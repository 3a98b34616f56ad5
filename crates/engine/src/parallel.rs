//! Scoped-thread fan-out with deterministic, index-ordered results.
//!
//! The paper's profiling (Section VI-B / Table VII discussion) shows the
//! per-target backward-delay computation dominates G-RAR's runtime while
//! the network-flow solve is under 2 %. Those backward passes are
//! independent per endpoint, so they fan out across threads without any
//! locking, each worker reusing its own scratch ([`parallel_map_with`]).
//! The primitives here are built on `std::thread::scope` (no external
//! dependencies) and always return results in input order, so parallel
//! and sequential runs are bit-identical.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Parses a raw `RETIME_THREADS` value: `Ok(n)` for a non-negative
/// integer (`0` means auto, same as unset), `Err(warning)` for anything
/// else — the same one-line warning shape `RETIME_SUITE` uses, so the
/// two knobs fail the same way.
///
/// # Errors
/// Returns the warning line to print when the value is unrecognized.
pub fn parse_thread_override(raw: &str) -> Result<usize, String> {
    raw.trim().parse::<usize>().map_err(|_| {
        format!(
            "warning: unrecognized RETIME_THREADS value {raw:?}; \
             want a non-negative integer (0 = auto) — using auto"
        )
    })
}

/// Number of worker threads a fan-out uses when the caller passes `0`
/// (auto): the `RETIME_THREADS` environment variable when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// `RETIME_THREADS=0` means auto too, mirroring the API convention.
/// An unrecognized value warns once on stderr and falls back to auto.
///
/// This is the one environment read in the library crates (every other
/// `RETIME_*` knob is parsed once per binary into
/// `retime_bench::RunConfig`): a thread count never changes an output.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("RETIME_THREADS") {
        match parse_thread_override(&v) {
            Ok(n) if n >= 1 => return n,
            Ok(_) => {} // 0 = auto, same as unset
            Err(warning) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| eprintln!("{warning}"));
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `threads` workers (`0` = auto, see
/// [`thread_count`]), returning results **in input order** regardless of
/// scheduling. Work is distributed dynamically through an atomic cursor,
/// so uneven per-item cost (deep vs. shallow fan-in cones) balances
/// automatically.
///
/// Falls back to a plain sequential map when one worker suffices —
/// callers can force that with `threads = 1` (or `RETIME_THREADS=1`) to
/// compare against the parallel path.
///
/// # Panics
/// Propagates a panic from `f` after the scope unwinds its workers.
pub fn parallel_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(threads, items, || (), |_, item| f(item))
}

/// [`parallel_map`] with per-worker scratch: each worker builds one
/// scratch value with `init` and lends it mutably to `f` for every item
/// it takes. Suits per-item work that needs large reusable buffers
/// (e.g. cloud-sized marks) — they are allocated once per worker rather
/// than once per item. Results stay in input order, so the output is
/// independent of the worker count as long as `f`'s result does not
/// depend on what earlier items left in the scratch.
///
/// No scratch is built for an empty `items`.
///
/// # Panics
/// Propagates a panic from `init` or `f` after the scope unwinds its
/// workers.
pub fn parallel_map_with<T, S, U, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = match threads {
        0 => thread_count(),
        n => n,
    }
    .min(items.len());
    if workers <= 1 {
        let mut scratch = init();
        return items.iter().map(|item| f(&mut scratch, item)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, U)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut out: Vec<(usize, U)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&mut scratch, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for chunk in &mut chunks {
        for (i, u) in chunk.drain(..) {
            slots[i] = Some(u);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(4, &items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_exactly() {
        let items: Vec<u64> = (0..100).map(|i| i * 17 + 3).collect();
        let seq = parallel_map(1, &items, |&x| x.wrapping_mul(x) ^ 0xdead);
        let par = parallel_map(8, &items, |&x| x.wrapping_mul(x) ^ 0xdead);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(0, &empty, |&x| x).is_empty());
        assert_eq!(parallel_map(0, &[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different cost still land in order.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(4, &items, |&x| {
            let spins = if x % 7 == 0 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(i as u64, x);
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker_and_reused() {
        let items: Vec<u64> = (0..200).collect();
        for threads in [1, 2, 4] {
            let built = AtomicUsize::new(0);
            let out = parallel_map_with(
                threads,
                &items,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new()
                },
                |buf, &x| {
                    // The result must not depend on what the scratch held.
                    buf.clear();
                    buf.extend(0..=x);
                    buf.iter().sum::<u64>()
                },
            );
            let want: Vec<u64> = items.iter().map(|&x| x * (x + 1) / 2).collect();
            assert_eq!(out, want, "threads={threads}");
            assert!(built.load(Ordering::Relaxed) <= threads);
        }
        let empty: Vec<u64> = Vec::new();
        let out: Vec<u64> =
            parallel_map_with(4, &empty, || panic!("no scratch"), |_: &mut (), &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn thread_override_parses_integers() {
        assert_eq!(parse_thread_override("8"), Ok(8));
        assert_eq!(parse_thread_override(" 2 "), Ok(2));
        assert_eq!(parse_thread_override("0"), Ok(0));
    }

    #[test]
    fn thread_override_warns_on_garbage() {
        for raw in ["nope", "-3", "1.5", ""] {
            let warning = parse_thread_override(raw).unwrap_err();
            assert!(
                warning.starts_with("warning: unrecognized RETIME_THREADS value"),
                "unexpected warning shape: {warning}"
            );
            assert!(warning.contains(&format!("{raw:?}")));
        }
    }
}
