//! The one measurement protocol of the perf binaries.
//!
//! A [`Bench`] reads the arguments (`--smoke` or nothing), then each
//! [`Bench::measure`] runs an untimed warm-up round and [`ROUNDS`]
//! timed rounds. Every round runs each configuration once, the order
//! rotating one place per round, so host drift during a round reaches
//! every configuration alike; ratios to the baseline (configuration 0)
//! are paired within a round, never across rounds. Every rate and ratio
//! is reported as a [`Stat`]: median, first and third quartile (nearest
//! rank) and the round count.
//!
//! A full run writes the record (one top-level section per line, led by
//! a `host` block) and audits it; a smoke run times one round at smoke
//! sizes and audits the checked-in record instead. The audit checks
//! every stated [`Bound`] against its median.

use std::time::Instant;

use vpd_report::Json;

/// Timed rounds of a full run.
pub const ROUNDS: usize = 11;

/// The machine's parallelism: the worker count of every engine asked
/// for `threads = 0`.
#[must_use]
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A workload size: the full run's, then the smoke run's.
#[derive(Clone, Copy, Debug)]
pub struct Size<T>(pub T, pub T);

/// One timed configuration: the record key of its rate, the work items
/// one run does, and optionally the record key of its per-round ratio
/// to the baseline.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    rate: &'static str,
    work: usize,
    ratio: Option<&'static str>,
}

impl Config {
    /// A configuration doing `work` items per run, its rate recorded
    /// under `rate` (items per second).
    #[must_use]
    pub const fn new(rate: &'static str, work: usize) -> Self {
        Self {
            rate,
            work,
            ratio: None,
        }
    }

    /// Also records this configuration's rate over the baseline's, per
    /// round, under `ratio`.
    #[must_use]
    pub const fn ratio(self, ratio: &'static str) -> Self {
        Self {
            ratio: Some(ratio),
            ..self
        }
    }
}

/// The `q`-quantile of non-empty `sorted` by nearest rank: the value
/// of rank ⌈q·n⌉ (at least 1).
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "a quantile needs a value");
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Median, quartiles (nearest rank) and count of per-round values.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Stat {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// How many rounds the values came from.
    pub rounds: usize,
}

impl Stat {
    /// The statistics of non-empty `values`, by [`quantile`].
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            rounds: sorted.len(),
        }
    }

    /// The record form `{median, q1, q3, rounds}`.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj([
            ("median", Json::from(self.median)),
            ("q1", Json::from(self.q1)),
            ("q3", Json::from(self.q3)),
            ("rounds", Json::from(self.rounds)),
        ])
    }

    /// Reads the stat at `path` in `record`; the error names the path
    /// and the field that is missing.
    fn read(record: &Json, path: &str) -> Result<Self, String> {
        let stat = path
            .split('.')
            .try_fold(record, |doc, key| doc.get(key))
            .ok_or_else(|| format!("{path}: missing"))?;
        let field = |name: &str| {
            stat.get(name)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("{path}.{name}: missing"))
        };
        Ok(Self {
            median: field("median")?,
            q1: field("q1")?,
            q3: field("q3")?,
            rounds: field("rounds")? as usize,
        })
    }
}

impl std::fmt::Display for Stat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} [{:.4}, {:.4}] ({} rounds)",
            self.median, self.q1, self.q3, self.rounds
        )
    }
}

/// A stated bound on the median of a record's stat, addressed by its
/// dotted path.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// The median must be at least the value.
    AtLeast(&'static str, f64),
    /// The median must be at most the value.
    AtMost(&'static str, f64),
}

/// Checks `record`: it carries a `host` block, and every [`Bound`]'s
/// stat is complete and its median within the bound.
///
/// # Errors
///
/// The first failed check, naming its field path.
fn audit(record: &Json, bounds: &[Bound]) -> Result<(), String> {
    record
        .get("host")
        .and_then(|h| h.get("available_parallelism"))
        .and_then(Json::as_i64)
        .ok_or("host.available_parallelism: missing")?;
    for &bound in bounds {
        let (path, limit, relation) = match bound {
            Bound::AtLeast(path, limit) => (path, limit, ">="),
            Bound::AtMost(path, limit) => (path, limit, "<="),
        };
        let median = Stat::read(record, path)?.median;
        let holds = match bound {
            Bound::AtLeast(..) => median >= limit,
            Bound::AtMost(..) => median <= limit,
        };
        if !holds {
            return Err(format!("{path}: median {median} is not {relation} {limit}"));
        }
        println!("  {path}: median {median:.4} {relation} {limit}");
    }
    Ok(())
}

/// The record section `name`: plain `counts` first, then `stats` in
/// their record form.
#[must_use]
pub fn section(
    name: &'static str,
    counts: &[(&'static str, usize)],
    stats: &[(&'static str, Stat)],
) -> (&'static str, Json) {
    let counts = counts.iter().map(|&(key, n)| (key, Json::from(n)));
    let stats = stats.iter().map(|(key, stat)| (*key, stat.json()));
    (name, Json::obj(counts.chain(stats)))
}

/// The per-round rates of a [`Bench::measure`] call.
#[derive(Clone, Debug)]
pub struct Measured {
    configs: Vec<Config>,
    /// `rates[config][round]`, work items per second.
    rates: Vec<Vec<f64>>,
}

impl Measured {
    /// The per-round rates of `config`.
    #[must_use]
    pub fn rates(&self, config: usize) -> &[f64] {
        &self.rates[config]
    }

    /// The per-round ratios of `config`'s rate over the baseline's.
    #[must_use]
    pub fn ratios(&self, config: usize) -> Vec<f64> {
        self.rates[config]
            .iter()
            .zip(&self.rates[0])
            .map(|(rate, base)| rate / base)
            .collect()
    }

    /// Every rate, then every configured ratio, as `(key, stat)`.
    #[must_use]
    fn stats(&self) -> Vec<(&'static str, Stat)> {
        let rates = self
            .configs
            .iter()
            .enumerate()
            .map(|(c, config)| (config.rate, Stat::of(&self.rates[c])));
        let ratios = self
            .configs
            .iter()
            .enumerate()
            .filter_map(|(c, config)| Some((config.ratio?, Stat::of(&self.ratios(c)))));
        rates.chain(ratios).collect()
    }

    /// The record [`section`] `name`: `counts` first, then every stat.
    #[must_use]
    pub fn section(
        &self,
        name: &'static str,
        counts: &[(&'static str, usize)],
    ) -> (&'static str, Json) {
        section(name, counts, &self.stats())
    }
}

/// One perf binary's run: full or smoke, and the record it writes or
/// audits.
#[derive(Clone, Debug)]
pub struct Bench {
    record: &'static str,
    smoke: bool,
    rounds: usize,
}

impl Bench {
    /// A run of the bench that writes `record`: a smoke run when
    /// `smoke`.
    #[must_use]
    fn new(record: &'static str, smoke: bool) -> Self {
        Self {
            record,
            smoke,
            rounds: ROUNDS,
        }
    }

    /// Reads the process arguments — `--smoke` or none; anything else
    /// prints the usage and exits 2 — and prints the banner.
    #[must_use]
    pub fn from_args(title: &str, record: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let smoke = match args.as_slice() {
            [] => false,
            [flag] if flag == "--smoke" => true,
            _ => {
                let bin = std::env::args().next().unwrap_or_default();
                eprintln!("usage: {bin} [--smoke]");
                std::process::exit(2);
            }
        };
        crate::banner(&if smoke {
            format!("{title} smoke")
        } else {
            format!("{title} benchmark ({record})")
        });
        Self::new(record, smoke)
    }

    /// Times `rounds` rounds in a full run instead of [`ROUNDS`].
    #[must_use]
    pub fn with_rounds(self, rounds: usize) -> Self {
        Self { rounds, ..self }
    }

    /// This run's size of `size`.
    #[must_use]
    pub fn size<T>(&self, size: Size<T>) -> T {
        if self.smoke {
            size.1
        } else {
            size.0
        }
    }

    /// Runs `run(config)` for every configuration: an untimed warm-up
    /// round (none in a smoke run), then the timed rounds (one in a
    /// smoke run), round `r` starting at configuration `r mod n`; prints
    /// every stat under `label`. Panics on a rate that is not finite and
    /// positive.
    pub fn measure(&self, label: &str, configs: &[Config], mut run: impl FnMut(usize)) -> Measured {
        let n = configs.len();
        if !self.smoke {
            (0..n).for_each(&mut run);
        }
        let mut rates = vec![Vec::new(); n];
        let rounds = if self.smoke { 1 } else { self.rounds };
        for round in 0..rounds {
            for k in 0..n {
                let config = (round + k) % n;
                let start = Instant::now();
                run(config);
                let rate = configs[config].work as f64 / start.elapsed().as_secs_f64();
                assert!(
                    rate.is_finite() && rate > 0.0,
                    "{}: rate {rate} is not finite and positive",
                    configs[config].rate
                );
                rates[config].push(rate);
            }
        }
        let measured = Measured {
            configs: configs.to_vec(),
            rates,
        };
        println!("{label}:");
        for (key, stat) in measured.stats() {
            println!("  {key:<36} {stat}");
        }
        measured
    }

    /// Ends the run. A full run writes the record — one line per
    /// section, the first a `host` block naming `threads`, the workers
    /// its parallel configurations used — and audits it; a smoke run
    /// audits the checked-in record. Exits 1 when the audit fails.
    pub fn finish(&self, threads: usize, sections: Vec<(&'static str, Json)>, bounds: &[Bound]) {
        let text = if self.smoke {
            std::fs::read_to_string(self.record)
                .unwrap_or_else(|e| panic!("{} must be checked in: {e}", self.record))
        } else {
            let lines: Vec<String> = std::iter::once(("host", host(threads)))
                .chain(sections)
                .map(|(key, value)| format!("{}:{value}", Json::from(key)))
                .collect();
            let text = format!("{{\n{}\n}}\n", lines.join(",\n"));
            std::fs::write(self.record, &text)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.record));
            println!("\nwrote {}", self.record);
            text
        };
        println!("\naudit of {}:", self.record);
        let record = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", self.record));
        if let Err(e) = audit(&record, bounds) {
            eprintln!("{} audit failed: {e}", self.record);
            std::process::exit(1);
        }
        println!("{} audit OK ({} bounds)", self.record, bounds.len());
    }
}

/// The `host` block: the machine's parallelism, the workers the
/// parallel configurations used, and the CPU model (`null` where
/// `/proc/cpuinfo` names none).
fn host(threads: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        });
    Json::obj([
        ("available_parallelism", Json::from(auto_threads())),
        ("parallel_threads", Json::from(threads)),
        ("cpu_model", cpu.map_or(Json::Null, Json::from)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run the clock can see: a zero-length run would read as an
    /// infinite rate, which `measure` rejects.
    fn tick() {
        std::thread::sleep(std::time::Duration::from_micros(1));
    }

    #[test]
    fn quantiles_take_the_nearest_rank() {
        let odd = Stat::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((odd.q1, odd.median, odd.q3, odd.rounds), (2.0, 3.0, 4.0, 5));
        let even = Stat::of(&[6.0, 2.0, 8.0, 4.0]);
        assert_eq!(
            (even.q1, even.median, even.q3, even.rounds),
            (2.0, 4.0, 6.0, 4)
        );
        let one = Stat::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn each_round_starts_one_configuration_later() {
        let configs = [
            Config::new("a", 1),
            Config::new("b", 1),
            Config::new("c", 1),
        ];
        let mut order = Vec::new();
        let m = Bench::new("unused.json", false)
            .with_rounds(4)
            .measure("test", &configs, |c| {
                order.push(c);
                tick();
            });
        let (warmup, rounds) = order.split_at(3);
        assert_eq!(warmup, [0, 1, 2]);
        assert_eq!(rounds, [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]);
        assert!((0..3).all(|c| m.rates(c).len() == 4));
    }

    #[test]
    fn a_smoke_run_is_exactly_one_round() {
        let configs = [Config::new("a", 1), Config::new("b", 1).ratio("b_vs_a")];
        let mut order = Vec::new();
        let m = Bench::new("unused.json", true).measure("test", &configs, |c| {
            order.push(c);
            tick();
        });
        assert_eq!(order, [0, 1]);
        assert!(m.stats().iter().all(|(_, s)| s.rounds == 1));
    }

    #[test]
    fn ratios_pair_within_a_round() {
        let m = Measured {
            configs: vec![
                Config::new("base", 1),
                Config::new("fast", 1).ratio("speedup"),
            ],
            rates: vec![vec![1.0, 10.0, 100.0], vec![2.0, 30.0, 400.0]],
        };
        assert_eq!(m.ratios(1), [2.0, 3.0, 4.0]);
        let stats = m.stats();
        let keys: Vec<&str> = stats.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["base", "fast", "speedup"]);
        // Across rounds the pairing would give 30 / 1 or 2 / 100.
        assert_eq!(
            (stats[2].1.q1, stats[2].1.median, stats[2].1.q3),
            (2.0, 3.0, 4.0)
        );
    }

    fn record(stat: &str) -> Json {
        let text = format!(r#"{{"host":{{"available_parallelism":2}},"dc":{{"speedup":{stat}}}}}"#);
        Json::parse(&text).unwrap()
    }

    #[test]
    fn the_audit_checks_medians_and_names_the_path() {
        let ok = record(r#"{"median":3.5,"q1":3.0,"q3":4.0,"rounds":11}"#);
        assert_eq!(audit(&ok, &[Bound::AtLeast("dc.speedup", 3.0)]), Ok(()));
        assert_eq!(audit(&ok, &[Bound::AtMost("dc.speedup", 4.0)]), Ok(()));
        let err = audit(&ok, &[Bound::AtLeast("dc.speedup", 4.0)]).unwrap_err();
        assert!(err.starts_with("dc.speedup: median 3.5"), "{err}");
        let err = audit(&ok, &[Bound::AtMost("dc.speedup", 3.0)]).unwrap_err();
        assert!(err.starts_with("dc.speedup: median 3.5"), "{err}");
        let err = audit(&ok, &[Bound::AtLeast("dc.other", 1.0)]).unwrap_err();
        assert_eq!(err, "dc.other: missing");
    }

    #[test]
    fn the_audit_rejects_an_incomplete_stat() {
        for (stat, field) in [
            (r#"{"median":3.5,"q3":4.0,"rounds":11}"#, "q1"),
            (r#"{"median":3.5,"q1":3.0,"rounds":11}"#, "q3"),
            (r#"{"median":3.5,"q1":3.0,"q3":4.0}"#, "rounds"),
            (r#"{"q1":3.0,"q3":4.0,"rounds":11}"#, "median"),
        ] {
            let err = audit(&record(stat), &[Bound::AtLeast("dc.speedup", 1.0)]).unwrap_err();
            assert_eq!(err, format!("dc.speedup.{field}: missing"));
        }
        let no_host = Json::parse(r#"{"dc":{}}"#).unwrap();
        assert!(audit(&no_host, &[]).unwrap_err().starts_with("host"));
    }

    #[test]
    fn a_written_record_passes_its_audit() {
        let dir = std::env::temp_dir().join(format!("vpd-bench-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path: &'static str = dir
            .join("BENCH_test.json")
            .to_str()
            .unwrap()
            .to_owned()
            .leak();
        let m = Bench::new(path, true).measure("test", &[Config::new("a", 1)], |_| tick());
        let bounds = [Bound::AtLeast("dc.a", 0.0)];
        Bench::new(path, false).finish(2, vec![m.section("dc", &[("n", 1)])], &bounds);
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 4, "{text}");
        let doc = Json::parse(&text).unwrap();
        assert_eq!(audit(&doc, &bounds), Ok(()));
        let host = doc.get("host").unwrap();
        assert_eq!(host.get("parallel_threads"), Some(&Json::Int(2)));
    }
}
