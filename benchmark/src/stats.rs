//! Summary statistics with the benchmark's reporting rules.
//!
//! A percentile is the nearest-rank sample, and it is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it, so a tail figure
//! always rests on more than a handful of observations.

use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in percent, `0 < p <= 100`) of
/// `sorted`, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // Nearest rank: the smallest rank r with r/n >= p/100.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median by the usual midpoint rule (any sample count >= 1).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Timing of one open-loop request: when it was due, when the
/// generator actually sent it, and when its terminal response arrived
/// (`None` when it never did).
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSample {
    pub due: Instant,
    pub sent: Instant,
    pub done: Option<Instant>,
}

/// Open-loop accounting: latency runs from each request's *due* time,
/// so a generator or server stall is charged to every request it
/// delayed; lateness is how far the generator itself fell behind.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopSummary {
    /// Due-time latencies of completed requests, ms, sorted.
    pub latency_ms: Vec<f64>,
    /// Send-time round trips of completed requests, ms, sorted.
    pub round_trip_ms: Vec<f64>,
    /// Generator lateness (sent - due) of every request, ms, sorted.
    pub lateness_ms: Vec<f64>,
    /// Requests that never completed.
    pub missing: usize,
}

pub fn summarize_open_loop(samples: &[OpenLoopSample]) -> OpenLoopSummary {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut s = OpenLoopSummary::default();
    for x in samples {
        s.lateness_ms
            .push(ms(x.sent.saturating_duration_since(x.due)));
        match x.done {
            Some(done) => {
                s.latency_ms.push(ms(done.saturating_duration_since(x.due)));
                s.round_trip_ms
                    .push(ms(done.saturating_duration_since(x.sent)));
            }
            None => s.missing += 1,
        }
    }
    s.latency_ms.sort_by(f64::total_cmp);
    s.round_trip_ms.sort_by(f64::total_cmp);
    s.lateness_ms.sort_by(f64::total_cmp);
    s
}

/// Completions per second in each of `windows` equal slices of
/// `[start, start + length)`; the median slice is the steady rate.
pub fn window_rates(
    completions: &[Instant],
    start: Instant,
    length: Duration,
    windows: usize,
) -> Vec<f64> {
    let width = length.as_secs_f64() / windows as f64;
    let mut counts = vec![0usize; windows];
    for t in completions {
        let at = t.saturating_duration_since(start).as_secs_f64();
        let w = (at / width) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank ceil(0.99 * 1000) = 990 -> value 990, 10 samples beyond.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&v[..999], 99.0), None);
        // p50 of 20 samples: rank 10, 10 beyond.
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 0.0), None);
    }

    #[test]
    fn median_takes_the_midpoint() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let samples = [
            // On time, 500 us round trip.
            OpenLoopSample {
                due: at(0),
                sent: at(0),
                done: Some(at(500)),
            },
            // Generator 2 ms late: latency counts the stall, the round
            // trip does not.
            OpenLoopSample {
                due: at(1000),
                sent: at(3000),
                done: Some(at(3500)),
            },
            // Never answered.
            OpenLoopSample {
                due: at(2000),
                sent: at(3000),
                done: None,
            },
        ];
        let s = summarize_open_loop(&samples);
        assert_eq!(s.latency_ms, vec![0.5, 2.5]);
        assert_eq!(s.round_trip_ms, vec![0.5, 0.5]);
        assert_eq!(s.lateness_ms, vec![0.0, 1.0, 2.0]);
        assert_eq!(s.missing, 1);
    }

    #[test]
    fn window_rates_split_completions() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let done = [ms(100), ms(200), ms(600), ms(1500)];
        let rates = window_rates(&done, t0, Duration::from_secs(1), 2);
        // Two completions in the first 0.5 s window, one in the second;
        // the one past the end is dropped.
        assert_eq!(rates, vec![4.0, 2.0]);
    }
}
