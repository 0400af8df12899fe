//! A thread of the sharded dataplane that dies must fail the run, not
//! hang it.
//!
//! `thread::scope` re-raises a worker's panic only once the dispatcher
//! leaves the scope, and the dispatcher used to wait for the dead
//! worker's `Done` forever (a 20 000-packet `run_sharded(2, …)` whose
//! `make_module` panicked for shard 1 was still spinning after 40 s).
//! The rings carry the news instead: a worker that unwinds drops its
//! outbound producers, the dispatcher finds a ring closed before the
//! shard's `Done` and panics naming the shard; a dispatcher that
//! unwinds drops its transport, and the workers find their inbound
//! rings closed and stop. Either way `run_sharded` returns by
//! unwinding, which is what every test here asserts — under a
//! deadline, so that a regression reads as a failure and not as a test
//! run that never ends.

use flexsfp_bench::shard::run_sharded;
use flexsfp_core::module::{FlexSfp, ModuleConfig, SimPacket};
use flexsfp_ppe::engine::{PassThrough, ProcessContext, Verdict};
use flexsfp_ppe::{Direction, PacketProcessor};
use flexsfp_traffic::TraceBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

const SHARDS: usize = 2;
const PACKETS: usize = 20_000;

/// Make `run_sharded` see `threads` effective threads for the holder of
/// the returned guard; the override is process-wide, so the tests of
/// this binary take turns.
fn force_threads(threads: usize) -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("FLEXSFP_THREADS", threads.to_string());
    turn
}

fn trace() -> impl Iterator<Item = SimPacket> {
    TraceBuilder::new(0x51)
        .build(PACKETS)
        .into_iter()
        .map(|p| SimPacket {
            arrival_ns: p.arrival_ns,
            direction: Direction::EdgeToOptical,
            frame: p.frame,
        })
}

fn passthrough() -> FlexSfp {
    FlexSfp::new(ModuleConfig::default(), Box::new(PassThrough))
}

/// Forwards `left` packets, then panics: a worker dying mid-stream.
struct Fuse {
    left: u32,
}

impl PacketProcessor for Fuse {
    fn name(&self) -> &str {
        "fuse"
    }

    fn process(&mut self, _ctx: &ProcessContext, _packet: &mut Vec<u8>) -> Verdict {
        self.left = self.left.checked_sub(1).expect("the fuse blew");
        Verdict::Forward
    }
}

/// Run the trace through `run_sharded` on a thread of its own and
/// return the message it panicked with.
///
/// # Panics
/// Panics if the run returns normally, or has not returned in a minute.
fn panic_of(
    make_module: impl Fn(usize) -> FlexSfp + Send + Sync + 'static,
    sink: impl FnMut(flexsfp_core::module::OutputPacket) + Send + 'static,
) -> String {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_sharded(SHARDS, &ModuleConfig::default(), make_module, trace(), sink);
        }));
        // The receiver is gone only if the deadline already failed the test.
        let _ = tx.send(run);
    });
    let payload = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("run_sharded hung on a dead thread")
        .expect_err("run_sharded returned normally past a dead thread");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast::<&'static str>()
            .map(|msg| msg.to_string())
            .unwrap_or_default(),
    }
}

#[test]
fn a_worker_that_panics_building_its_shard_fails_the_run() {
    // Four threads: a worker per shard, so shard 0's outlives shard 1's.
    let _turn = force_threads(4);
    let msg = panic_of(
        |shard| {
            assert_ne!(shard, 1, "no module for shard 1");
            passthrough()
        },
        |_| {},
    );
    assert!(
        msg.contains("shard 1's worker died"),
        "panicked with: {msg}"
    );
}

#[test]
fn a_worker_that_panics_mid_stream_fails_the_run() {
    let fused = |shard| {
        if shard == 1 {
            FlexSfp::new(ModuleConfig::default(), Box::new(Fuse { left: 3_000 }))
        } else {
            passthrough()
        }
    };
    {
        let _turn = force_threads(4);
        let msg = panic_of(fused, |_| {});
        assert!(
            msg.contains("shard 1's worker died"),
            "panicked with: {msg}"
        );
    }
    // Two threads: one worker steps both lanes and takes both down, so
    // the dispatcher may trip over either shard first.
    let _turn = force_threads(2);
    let msg = panic_of(fused, |_| {});
    assert!(msg.contains("worker died"), "panicked with: {msg}");
}

#[test]
fn a_dispatcher_that_panics_stops_its_workers() {
    let _turn = force_threads(4);
    let mut sunk = 0u32;
    let msg = panic_of(
        |_| passthrough(),
        move |_| {
            sunk += 1;
            assert!(sunk < 5_000, "the sink gave up");
        },
    );
    assert!(msg.contains("the sink gave up"), "panicked with: {msg}");
}
