//! Scoped-thread parallel sweep runner.
//!
//! Every §5 experiment sweep evaluates independent points (one module
//! instance per frame-size/rate/config point), so they parallelize with
//! no locking beyond a work-stealing index — and no dependencies beyond
//! `std::thread::scope`, preserving the hermetic build. Results come back
//! in input order, so sweep output (and every golden digest derived from
//! it) is identical to the serial path regardless of worker count.
//!
//! Worker counts come from [`effective_parallelism`]: the
//! `FLEXSFP_THREADS` environment variable overrides the machine's
//! [`std::thread::available_parallelism`], and nesting clamps to one —
//! a sharded run invoked from inside a sweep point (or a sweep inside a
//! shard worker) runs serially instead of spawning shards × workers
//! threads and oversubscribing the host. The clamp is a process-global
//! count of live parallel regions shared with the shard dispatcher.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live parallel regions in this process (sweeps and shard
/// dispatchers). While nonzero, new regions run with one worker.
static ACTIVE_REGIONS: AtomicUsize = AtomicUsize::new(0);

/// RAII registration of one parallel region. Constructed by `par_map`
/// and the shard dispatcher for the span their workers are live.
pub(crate) struct RegionGuard(());

impl RegionGuard {
    /// Enter a parallel region. The returned guard keeps nested calls
    /// to [`effective_parallelism`] clamped to 1 until dropped.
    pub(crate) fn enter() -> RegionGuard {
        ACTIVE_REGIONS.fetch_add(1, Ordering::Relaxed);
        RegionGuard(())
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        ACTIVE_REGIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Worker-count policy, pure for testability: `override_threads` wins
/// when parseable and nonzero, nesting clamps to 1, otherwise the
/// machine parallelism stands.
fn resolve_parallelism(
    available: usize,
    override_threads: Option<&str>,
    active_regions: usize,
) -> usize {
    if active_regions > 0 {
        return 1;
    }
    match override_threads.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => available.max(1),
    }
}

/// Worker threads for a sharded run of `shards` shards on a host with
/// `threads` effective threads, pure for testability: the dispatcher
/// keeps one thread to itself and the shards' lanes are dealt over the
/// rest, never more workers than shards. 0 means there is nothing to
/// gain from a second thread (one shard, or one thread) and the run
/// goes inline on the caller's.
pub(crate) fn shard_workers(shards: usize, threads: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    shards.min(threads.saturating_sub(1))
}

/// The number of worker threads a new parallel region should use:
/// `FLEXSFP_THREADS` if set to a positive integer, else
/// [`std::thread::available_parallelism`] — clamped to 1 inside an
/// already-running parallel region, so nested parallelism (a sharded
/// run inside a sweep point, or vice versa) never oversubscribes the
/// host.
pub fn effective_parallelism() -> usize {
    resolve_parallelism(
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        std::env::var("FLEXSFP_THREADS").ok().as_deref(),
        ACTIVE_REGIONS.load(Ordering::Relaxed),
    )
}

/// Map `f` over `items` on up to [`effective_parallelism`] scoped
/// worker threads, preserving input order in the result.
///
/// `f` runs once per item, on exactly one worker; items are claimed from
/// a shared atomic cursor, so uneven point costs (e.g. 64 B vs 1514 B
/// frame sweeps) balance automatically. With one effective worker (or
/// one item) this degrades to a plain serial map with no thread spawn.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = effective_parallelism().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let _region = RegionGuard::enter();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("sweep item lock")
                    .take()
                    .expect("each slot is claimed exactly once");
                let r = f(item);
                *results[i].lock().expect("sweep result lock") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker panics propagate via scope")
                .expect("every slot was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = par_map((0..100).collect(), |i: usize| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn each_item_processed_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let out = par_map((0..257).collect(), |i: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 257);
        assert_eq!(calls.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn non_copy_items_move_through() {
        let items: Vec<String> = (0..16).map(|i| format!("p{i}")).collect();
        let out = par_map(items, |s| s.len());
        assert_eq!(out[10], 3);
    }

    #[test]
    fn env_override_wins_when_valid() {
        assert_eq!(resolve_parallelism(8, Some("3"), 0), 3);
        assert_eq!(resolve_parallelism(8, Some(" 2 "), 0), 2);
        // Zero, garbage or absent fall back to the machine count.
        assert_eq!(resolve_parallelism(8, Some("0"), 0), 8);
        assert_eq!(resolve_parallelism(8, Some("lots"), 0), 8);
        assert_eq!(resolve_parallelism(8, None, 0), 8);
        assert_eq!(resolve_parallelism(0, None, 0), 1);
    }

    #[test]
    fn nesting_clamps_to_one() {
        // An active region clamps everything — including overrides.
        assert_eq!(resolve_parallelism(8, Some("4"), 1), 1);
        assert_eq!(resolve_parallelism(8, None, 2), 1);
    }

    #[test]
    fn sharded_runs_never_outnumber_the_cores() {
        // (shards, threads) → workers beside the dispatcher.
        assert_eq!(shard_workers(2, 2), 1);
        assert_eq!(shard_workers(2, 3), 2);
        assert_eq!(shard_workers(8, 2), 1);
        assert_eq!(shard_workers(4, 4), 3);
        assert_eq!(shard_workers(2, 64), 2);
        // One thread, or one shard, is the inline transport.
        for n in 1..=8 {
            assert_eq!(shard_workers(n, 1), 0);
            assert_eq!(shard_workers(1, n), 0);
        }
        assert_eq!(shard_workers(4, 0), 0);
    }

    #[test]
    fn nested_par_map_runs_serially() {
        // Outer parallelism is machine-dependent; the inner maps must
        // observe an active region and degrade to the serial path,
        // whatever the host. Behavior (order, completeness) is
        // unchanged either way — this exercises the clamp path.
        let guard = RegionGuard::enter();
        assert_eq!(effective_parallelism(), 1);
        let out = par_map((0..64).collect(), |i: usize| i + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        drop(guard);
    }
}
