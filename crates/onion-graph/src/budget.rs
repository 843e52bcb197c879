//! Thread budgeting and the one deterministic fan-out for intra-graph
//! parallelism.
//!
//! Every parallel phase of the graph core — the BFS kernel
//! ([`crate::metrics::parallel_bfs_from_sources`]), the wave kernel
//! ([`crate::graph::Graph::repair_wave`]), the union-find component
//! count ([`crate::components`]) and the sharded overlay build in
//! `onionbots-core` — fans
//! its work out through [`map_in_order`], which returns results by item
//! index and caps workers at [`MAX_THREADS`].
//!
//! These phases run inside experiment *parts* that an executor is
//! already fanning across workers. Letting every phase grab all cores
//! would oversubscribe the machine as soon as two parts run
//! concurrently, so parallelism inside one part is governed by an
//! explicit **thread budget**. The executor scopes a per-item budget
//! around each work item with [`with_thread_budget`] (a thread-local,
//! so concurrent items on different worker threads cannot see each
//! other's budgets). Outside such a scope the budget is 1 and every
//! phase runs inline, on the calling thread.
//!
//! The budget only bounds *resource use*; results never depend on it —
//! [`map_in_order`] writes each item's result into its slot by item
//! index, so any budget produces byte-identical output.

use std::cell::Cell;
use std::sync::Mutex;

/// Hard ceiling on the workers of one [`map_in_order`] call. Budgets are
/// caller-supplied (a CLI flag, a work item's hint), and an absurd value
/// must degrade to "merely pointless", not to a failed `std::thread`
/// spawn aborting the scope. 64 is far above any useful fan-out while
/// keeping over-provisioned determinism tests (threads > cores)
/// meaningful.
pub const MAX_THREADS: usize = 64;

thread_local! {
    /// The calling thread's budget; 1 outside any scope.
    static BUDGET: Cell<usize> = const { Cell::new(1) };
}

/// The thread budget governing intra-graph parallelism on the calling
/// thread: the innermost [`with_thread_budget`] scope's if one is
/// active, else 1.
pub fn thread_budget() -> usize {
    BUDGET.with(Cell::get)
}

/// Runs `f` with the calling thread's budget set to `threads` (clamped to
/// at least 1), restoring the previous budget afterwards — also on panic,
/// via a drop guard, so a panicking work item cannot leak its budget into
/// the next item executed on the same worker thread.
pub fn with_thread_budget<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(threads.max(1))));
    f()
}

/// Maps `f` over `items` on up to `threads` scoped workers and returns
/// the results in item order.
///
/// `threads` is clamped to `1..=`[`MAX_THREADS`] and to the item count.
/// With one worker the map runs inline with one `scratch()` and no thread
/// machinery. Otherwise every worker builds one `scratch()`, claims the
/// next unclaimed `(index, item)` from one shared queue and keeps the
/// result with its index, so the output is **the sequential map's at any
/// thread count and any scheduling**. A panic in `f` propagates out of
/// the call.
pub fn map_in_order<T: Send, U: Send, S>(
    items: Vec<T>,
    threads: usize,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> U + Sync,
) -> Vec<U> {
    let threads = threads.clamp(1, MAX_THREADS).min(items.len());
    if threads <= 1 {
        let mut s = scratch();
        return items.into_iter().map(|item| f(&mut s, item)).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut s = scratch();
                    let mut local = Vec::new();
                    loop {
                        // Bound first, so the lock is released before `f` runs.
                        let next = queue.lock().expect("queue lock").next();
                        let Some((i, item)) = next else { break };
                        local.push((i, f(&mut s, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    // The queue hands each index to exactly one worker.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn unscoped_budget_is_one() {
        assert_eq!(thread_budget(), 1);
    }

    #[test]
    fn scoped_budgets_nest_and_restore() {
        let observed = with_thread_budget(4, || {
            let outer = thread_budget();
            let inner = with_thread_budget(2, thread_budget);
            (outer, thread_budget(), inner)
        });
        assert_eq!(observed, (4, 4, 2));
        assert_eq!(thread_budget(), 1, "scope exit restores the default");
    }

    #[test]
    fn zero_budget_is_clamped_to_one() {
        assert_eq!(with_thread_budget(0, thread_budget), 1);
    }

    #[test]
    fn budget_scope_survives_a_panic() {
        let result = std::panic::catch_unwind(|| {
            with_thread_budget(usize::MAX, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(thread_budget(), 1, "drop guard restored the budget");
    }

    #[test]
    fn budgets_are_per_thread() {
        with_thread_budget(6, || {
            let other = std::thread::spawn(thread_budget).join().unwrap();
            assert_eq!(other, 1, "a fresh thread sees the default");
            assert_eq!(thread_budget(), 6);
        });
    }

    #[test]
    fn map_in_order_equals_the_sequential_map() {
        // At most 200 items, so even a broken clamp spawns no more threads.
        for len in [0usize, 1, 5, 200] {
            let items: Vec<usize> = (0..len).collect();
            let expected: Vec<usize> = items.iter().map(|&i| i * i + 1).collect();
            for threads in [1, 2, 3, 8, 64, usize::MAX] {
                let mapped = map_in_order(items.clone(), threads, || (), |_, i| i * i + 1);
                assert_eq!(mapped, expected, "len={len}, threads={threads}");
            }
        }
    }

    #[test]
    fn map_in_order_builds_at_most_one_scratch_per_worker() {
        for len in [1usize, 5, 200] {
            for threads in [1, 2, 3, 8, 64, usize::MAX] {
                let built = AtomicUsize::new(0);
                let scratch = || {
                    built.fetch_add(1, Ordering::Relaxed);
                    0usize
                };
                let mapped = map_in_order((0..len).collect(), threads, scratch, |seen, i| {
                    *seen += 1;
                    i
                });
                assert_eq!(mapped, (0..len).collect::<Vec<_>>());
                let workers = threads.clamp(1, MAX_THREADS).min(len);
                let built = built.load(Ordering::Relaxed);
                assert!(
                    built <= workers,
                    "len={len}, threads={threads}: {built} scratches for {workers} workers"
                );
            }
        }
    }

    #[test]
    fn map_in_order_propagates_a_panic() {
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                map_in_order(
                    (0..20usize).collect(),
                    threads,
                    || (),
                    |_, i| {
                        assert_ne!(i, 7, "item 7 fails");
                        i
                    },
                )
            });
            assert!(result.is_err(), "threads={threads}");
        }
    }
}
