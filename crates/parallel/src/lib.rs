//! # sega-parallel — deterministic data-parallel mapping on scoped threads
//!
//! The workspace builds hermetically (no crates.io), so instead of rayon
//! this crate provides the order-preserving map the coarse fan-outs need
//! (mixed-precision runs, design-space enumeration):
//!
//! * [`Pool`] — a width, not a set of threads. Constructing one starts
//!   nothing; each [`Pool::par_map`] call runs on `std::thread::scope`
//!   with the calling thread plus at most `min(width, items) − 1`
//!   spawned threads, all joined before the call returns.
//! * [`par_map`] — the same map, sized by a user-facing thread knob.
//!
//! Results are returned **in input order** regardless of thread count or
//! scheduling: parallelism changes *when* each item is evaluated, never
//! *where* its result lands, so callers are bit-identical between serial
//! and parallel runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pool::Pool;

/// The number of hardware threads, with a serial fallback of 1.
///
/// Cached after the first call: `std::thread::available_parallelism`
/// inspects cgroup quota files on Linux, which is too expensive to
/// repeat on every map.
pub fn available_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolves a user-facing thread-count knob: `0` means "all hardware
/// threads", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Maps `f` over `items` on up to `threads` concurrent participants
/// (`0` = all hardware threads), returning results in input order.
///
/// Shorthand for `Pool::new(resolve_threads(threads)).par_map(items, f)`.
///
/// # Panics
///
/// Propagates a panic from `f` as `"pool worker panicked: <original
/// message>"` (all participants are joined first).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Pool::new(resolve_threads(threads)).par_map(items, f)
}

mod pool {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An upper bound on the threads of a map: the calling thread plus
    /// up to `participants − 1` scoped threads, spawned per call and
    /// joined before it returns. `Pool::new` starts no thread.
    #[derive(Debug, Clone, Copy)]
    pub struct Pool {
        participants: usize,
    }

    /// Best-effort extraction of a panic payload's message, so the
    /// propagated panic keeps the original assertion text.
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    }

    impl Pool {
        /// A pool of `participants`-way parallelism (`0` is treated as
        /// 1: everything runs on the calling thread).
        pub fn new(participants: usize) -> Pool {
            Pool {
                participants: participants.max(1),
            }
        }

        /// Maximum concurrent participants of a map (the calling thread
        /// counts as one).
        pub fn participants(&self) -> usize {
            self.participants
        }

        /// Maps `f` over `items` on up to
        /// [`participants`](Pool::participants) threads, returning
        /// results in input order.
        pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
        where
            T: Sync,
            R: Send,
            F: Fn(&T) -> R + Sync,
        {
            self.par_map_bounded(items, self.participants, f)
        }

        /// [`par_map`](Pool::par_map) restricted to at most
        /// `max_participants` concurrent participants, the calling
        /// thread included. Items are claimed one at a time from an
        /// atomic cursor, so uneven item costs balance across threads.
        /// A thread that cannot be spawned is skipped: the participants
        /// that did start claim its share.
        ///
        /// # Panics
        ///
        /// Panics with `"pool worker panicked: <original message>"` if
        /// `f` panicked on any participant (all participants are joined
        /// first; the calling thread's own panic wins).
        pub fn par_map_bounded<T, R, F>(&self, items: &[T], max_participants: usize, f: F) -> Vec<R>
        where
            T: Sync,
            R: Send,
            F: Fn(&T) -> R + Sync,
        {
            let len = items.len();
            let participants = max_participants.min(self.participants).min(len).max(1);
            if participants == 1 {
                return items.iter().map(f).collect();
            }

            let cursor = AtomicUsize::new(0);
            let claim = || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break local;
                    };
                    local.push((i, f(item)));
                }
            };
            let (caller, helpers) = std::thread::scope(|scope| {
                let handles: Vec<_> = (1..participants)
                    .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, claim).ok())
                    .collect();
                let caller = catch_unwind(AssertUnwindSafe(claim));
                let helpers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                (caller, helpers)
            });

            let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
            let mut panicked = None;
            for outcome in std::iter::once(caller).chain(helpers) {
                match outcome {
                    Ok(results) => {
                        for (i, r) in results {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => {
                        panicked.get_or_insert_with(|| panic_message(&*payload));
                    }
                }
            }
            if let Some(msg) = panicked {
                panic!("pool worker panicked: {msg}");
            }
            slots
                .into_iter()
                .map(|s| s.expect("every item produced exactly once"))
                .collect()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};

        #[test]
        fn pool_par_map_preserves_order() {
            let pool = Pool::new(4);
            let items: Vec<u64> = (0..1000).collect();
            let out = pool.par_map(&items, |&x| x * 3 + 1);
            assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        }

        #[test]
        fn a_map_starts_at_most_one_thread_per_item() {
            // A wide pool over a short input: the caller plus at most
            // `items − 1` scoped threads ever touch the work.
            let pool = Pool::new(64);
            let ids = Mutex::new(HashSet::new());
            let out = pool.par_map(&[1u32, 2, 3], |&x| {
                ids.lock().unwrap().insert(std::thread::current().id());
                x * 2
            });
            assert_eq!(out, vec![2, 4, 6]);
            assert!(ids.lock().unwrap().len() <= 3);
        }

        #[test]
        fn bounded_batches_agree_with_serial() {
            let pool = Pool::new(7);
            let items: Vec<u64> = (0..257).collect();
            let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(9);
            let serial: Vec<u64> = items.iter().map(f).collect();
            for bound in [1, 2, 3, 7, 64] {
                assert_eq!(pool.par_map_bounded(&items, bound, f), serial);
            }
        }

        #[test]
        fn genuinely_concurrent() {
            // 4 items that each wait on the others only terminate if all
            // four participants run at once.
            let pool = Pool::new(4);
            let barrier = Barrier::new(4);
            let items = [0u32; 4];
            let out = pool.par_map(&items, |_| {
                barrier.wait();
                1u32
            });
            assert_eq!(out, vec![1; 4]);
        }

        #[test]
        fn nested_par_map_does_not_deadlock() {
            // An inner map submitted from inside an outer map item runs
            // on its own scoped threads.
            let pool = Pool::new(4);
            let outer: Vec<u32> = (0..8).collect();
            let sums = pool.par_map(&outer, |&o| {
                let inner: Vec<u32> = (0..32).collect();
                pool.par_map(&inner, |&i| i + o).into_iter().sum::<u32>()
            });
            let expect: Vec<u32> = outer
                .iter()
                .map(|&o| (0..32).map(|i| i + o).sum())
                .collect();
            assert_eq!(sums, expect);
        }

        #[test]
        #[should_panic(expected = "worker panicked")]
        fn panic_in_batch_propagates_after_join() {
            let pool = Pool::new(4);
            let items: Vec<u32> = (0..64).collect();
            pool.par_map(&items, |&x| {
                assert!(x != 63, "boom");
                x
            });
        }

        #[test]
        fn panic_keeps_the_original_message() {
            let pool = Pool::new(4);
            let items: Vec<u32> = (0..64).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map(&items, |&x| {
                    assert!(x != 63, "estimator exploded on item 63");
                    x
                })
            }));
            let payload = outcome.expect_err("map must panic");
            let msg = payload
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(
                msg.contains("pool worker panicked")
                    && msg.contains("estimator exploded on item 63"),
                "lost the original assertion text: {msg}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 8, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, f), par_map(&items, 1, f));
        }
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..500).collect();
        par_map(&items, 4, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(par_map::<u32, u32, _>(&[], 4, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_means_all() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(par_map(&items, 0, |&x| x), items);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        par_map(&items, 4, |&x| {
            assert!(x != 63, "boom");
            x
        });
    }

    #[test]
    fn actually_runs_concurrently() {
        // With 4 workers and 4 items that each wait for the others, the
        // map only terminates if the items run concurrently.
        use std::sync::Barrier;
        let barrier = Barrier::new(4);
        let items = [0u32; 4];
        let out = par_map(&items, 4, |_| {
            barrier.wait();
            1u32
        });
        assert_eq!(out, vec![1; 4]);
    }
}
