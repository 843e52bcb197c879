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
//! explicit **thread budget**:
//!
//! * the executor scopes a per-item budget around each work item with
//!   [`with_thread_budget`] (a thread-local, so concurrent items on
//!   different worker threads cannot see each other's budgets);
//! * standalone processes inherit a process-wide budget from the
//!   [`THREADS_ENV`] environment variable;
//! * with neither set, the budget is 1 and every phase runs inline, on
//!   the calling thread.
//!
//! The budget only bounds *resource use*; results never depend on it —
//! [`map_in_order`] writes each item's result into its slot by item
//! index, so any budget produces byte-identical output.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

/// Hard ceiling on the workers of one [`map_in_order`] call. Budgets are
/// caller-supplied (CLI flag, environment variable), and an absurd value
/// must degrade to "merely pointless", not to a failed `std::thread`
/// spawn aborting the scope. 64 is far above any useful fan-out while
/// keeping over-provisioned determinism tests (threads > cores)
/// meaningful.
pub const MAX_THREADS: usize = 64;

/// Environment variable holding the process-wide default thread budget
/// (`ONIONBOTS_THREADS_PER_ITEM`). Read once, on first use; values that
/// are absent, unparseable or zero mean a budget of 1. It is the
/// default for standalone processes (an example binary, a REPL); work
/// items carry their own budget, which [`with_thread_budget`] scopes.
pub const THREADS_ENV: &str = "ONIONBOTS_THREADS_PER_ITEM";

thread_local! {
    /// The scoped per-thread budget; `None` falls back to the env default.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parses one raw env value into a budget (`None` when it does not name a
/// usable thread count).
fn parse_env(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn env_default() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .as_deref()
            .and_then(parse_env)
            .unwrap_or(1)
    })
}

/// The thread budget governing intra-graph parallelism on the calling
/// thread: the innermost [`with_thread_budget`] scope if one is active,
/// else the [`THREADS_ENV`] process default, else 1.
pub fn thread_budget() -> usize {
    BUDGET.with(Cell::get).unwrap_or_else(env_default)
}

/// Runs `f` with the calling thread's budget set to `threads` (clamped to
/// at least 1), restoring the previous budget afterwards — also on panic,
/// via a drop guard, so a panicking work item cannot leak its budget into
/// the next item executed on the same worker thread.
pub fn with_thread_budget<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(Some(threads.max(1)))));
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

    /// The budget the current environment implies outside any scope —
    /// tests assert against this instead of a literal 1, so the suite
    /// passes even when the developer has exported [`THREADS_ENV`].
    fn ambient() -> usize {
        std::env::var(THREADS_ENV)
            .ok()
            .as_deref()
            .and_then(parse_env)
            .unwrap_or(1)
    }

    #[test]
    fn unscoped_budget_matches_the_environment() {
        assert_eq!(thread_budget(), ambient());
    }

    #[test]
    fn scoped_budgets_nest_and_restore() {
        let observed = with_thread_budget(4, || {
            let outer = thread_budget();
            let inner = with_thread_budget(2, thread_budget);
            (outer, thread_budget(), inner)
        });
        assert_eq!(observed, (4, 4, 2));
        assert_eq!(
            thread_budget(),
            ambient(),
            "scope exit restores the ambient default"
        );
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
        assert_eq!(thread_budget(), ambient(), "drop guard restored the budget");
    }

    #[test]
    fn budgets_are_per_thread() {
        with_thread_budget(6, || {
            let other = std::thread::spawn(thread_budget).join().unwrap();
            assert_eq!(other, ambient(), "a fresh thread sees the process default");
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

    #[test]
    fn env_values_parse_conservatively() {
        assert_eq!(parse_env("4"), Some(4));
        assert_eq!(parse_env(" 16 "), Some(16));
        assert_eq!(parse_env("0"), None, "zero threads is not a budget");
        assert_eq!(parse_env("auto"), None, "auto is resolved by the CLI");
        assert_eq!(parse_env(""), None);
        assert_eq!(parse_env("-2"), None);
    }
}
