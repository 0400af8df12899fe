//! Thread-count policy of the sharded dataplane.
//!
//! Nothing nests [`shard::run_sharded`](crate::shard::run_sharded), and
//! the one other spawner in the workspace,
//! `flexsfp_host::FleetManager::deploy_all`, sizes its own pool, so the
//! policy is two pure functions: how many threads the host has
//! ([`effective_parallelism`]: the `FLEXSFP_THREADS` environment
//! variable, else [`std::thread::available_parallelism`]) and how many
//! workers a run of N shards puts beside its dispatcher.

/// Thread-count policy, pure for testability: `override_threads` wins
/// when parseable and nonzero, otherwise the machine parallelism stands.
fn resolve_parallelism(available: usize, override_threads: Option<&str>) -> usize {
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

/// The number of threads a sharded run may use: `FLEXSFP_THREADS` if
/// set to a positive integer, else
/// [`std::thread::available_parallelism`].
pub fn effective_parallelism() -> usize {
    resolve_parallelism(
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        std::env::var("FLEXSFP_THREADS").ok().as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_wins_when_valid() {
        assert_eq!(resolve_parallelism(8, Some("3")), 3);
        assert_eq!(resolve_parallelism(8, Some(" 2 ")), 2);
        // Zero, garbage or absent fall back to the machine count.
        assert_eq!(resolve_parallelism(8, Some("0")), 8);
        assert_eq!(resolve_parallelism(8, Some("lots")), 8);
        assert_eq!(resolve_parallelism(8, None), 8);
        assert_eq!(resolve_parallelism(0, None), 1);
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
}
