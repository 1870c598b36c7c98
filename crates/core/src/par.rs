//! Minimal scoped-thread parallel map for sweep and Monte-Carlo fans.
//!
//! The repo deliberately avoids external runtime dependencies, so this
//! is a contiguous-chunk fork/join on [`std::thread::scope`]: the input
//! is split into one contiguous chunk per worker, each worker gets its
//! own clone of a caller-supplied state value (a solver session, a
//! compiled plan, …), and results come back concatenated in input
//! order.
//!
//! Determinism is the caller's contract: as long as `f(state, item)` is
//! a pure function of `(state-as-cloned, item)` — i.e. the per-item work
//! does not depend on which items ran before it on the same worker —
//! the output is identical for every thread count, including 1. The
//! Monte-Carlo engine gets this by seeding every sample's RNG from the
//! sample index and warm-starting every solve from one shared nominal
//! solution rather than from the previous sample.

/// Most workers one call uses, whether the count is automatic or
/// explicit: each worker clones the state, and one request must not be
/// able to ask the process for thousands of threads. Results never
/// depend on the count, so the cap is unobservable in them.
const MAX_WORKERS: usize = 16;

/// Workers for a call that wants `wanted` of them (the explicit count,
/// or the machine's parallelism for auto) over `items` inputs: at least
/// one, at most [`MAX_WORKERS`], and never more than there are items.
fn worker_count(wanted: usize, items: usize) -> usize {
    wanted.clamp(1, MAX_WORKERS).min(items.max(1))
}

/// Maps `f` over `items` on `threads` workers (0 = auto), giving each
/// worker a clone of `state`, and returns the results in input order.
/// At most 16 workers run, however many are asked for.
///
/// `f` must be deterministic in `(state, item)` alone for the result to
/// be independent of the thread count — see the module docs.
///
/// ```
/// use vpd_core::par_map_with;
///
/// let squares = par_map_with(4, &[1_u64, 2, 3, 4, 5], &(), |(), &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn par_map_with<S, T, R, F>(threads: usize, items: &[T], state: &S, f: F) -> Vec<R>
where
    S: Clone + Send,
    T: Sync,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let wanted = match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    let workers = worker_count(wanted, items.len());
    vpd_obs::incr("par.jobs");
    vpd_obs::add("par.tasks", items.len() as u64);
    vpd_obs::add("par.workers", workers as u64);
    if workers == 1 || items.len() <= 1 {
        let _span = vpd_obs::span("par.worker_ns");
        let mut local = state.clone();
        return items.iter().map(|item| f(&mut local, item)).collect();
    }

    // Contiguous chunks, sized so the first `rem` chunks take one extra
    // item — every worker gets work, order is preserved by chunk index.
    let base = items.len() / workers;
    let rem = items.len() % workers;
    let mut chunks: Vec<&[T]> = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        chunks.push(&items[start..start + len]);
        start += len;
    }

    let mut out: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let mut local = state.clone();
                let f = &f;
                scope.spawn(move || {
                    let _span = vpd_obs::span("par.worker_ns");
                    chunk
                        .iter()
                        .map(|item| f(&mut local, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.push(h.join().expect("par_map_with worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..103).collect();
        let got = par_map_with(5, &items, &(), |(), &i| i * 2);
        let want: Vec<usize> = items.iter().map(|i| i * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let items: Vec<u64> = (0..57).collect();
        let f = |acc: &mut u64, &i: &u64| {
            // Stateful per worker, but the result only depends on `i`.
            *acc += 1;
            i.wrapping_mul(0x9E37_79B9).rotate_left(7)
        };
        let serial = par_map_with(1, &items, &0_u64, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(par_map_with(threads, &items, &0_u64, f), serial);
        }
    }

    #[test]
    fn worker_count_is_capped_for_auto_and_explicit_counts() {
        // An `mc` request may name 10,000 threads: it gets the cap, as
        // does auto on a 64-way machine.
        assert_eq!(worker_count(10_000, 1_000_000), MAX_WORKERS);
        assert_eq!(worker_count(64, 1_000), MAX_WORKERS);
        assert_eq!(worker_count(3, 1_000), 3);
        // Never more workers than items, never fewer than one.
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(8, 0), 1);
        assert_eq!(worker_count(0, 5), 1);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map_with(8, &empty, &(), |(), &x| x).is_empty());
        assert_eq!(par_map_with(0, &[9_u8], &(), |(), &x| x), vec![9]);
    }

    #[test]
    fn each_worker_gets_its_own_state() {
        // With per-worker cloned state, a mutation made for one item must
        // never leak into another worker's chunk; with 1 item per worker
        // every result sees the pristine clone.
        let items: Vec<usize> = (0..8).collect();
        let got = par_map_with(8, &items, &0_usize, |seen, &i| {
            *seen += 1;
            (*seen, i)
        });
        assert!(got.iter().all(|&(seen, _)| seen == 1));
    }
}
