//! `sharded_2`: `nat_hot`'s stream through `bench::shard::run_sharded`
//! at two shards, on the transport the program itself picks.
//!
//! Same work as `nat_hot`, so the difference *is* the wrapper: dispatch,
//! rings, reconcile. Fixed at two shards so the number means the same on
//! every host. The calling thread is generator, dispatcher and
//! reconciler; with two or more cores the program adds two workers.

use crate::serial::{nat_module, outcome_of, span_capacity, NatStream, SerialNat};
use crate::spans::{ChunkTimed, SpanBuf, Trace, Tracer};
use crate::surface::{
    effective_parallelism, run_sharded, FlexSfp, ModuleConfig, PacketArena, ShardedRun,
};
use crate::workload::{Built, Layers, Outcome, Sink, Workload};
use std::sync::Mutex;
use std::time::Instant;

pub const SHARDS: usize = 2;

#[derive(Debug, Clone, PartialEq)]
pub struct Sharded {
    /// The serial workload whose stream and modules this shards.
    pub serial: SerialNat,
}

impl Sharded {
    pub fn new(seed: u64, packets: u64) -> Sharded {
        Sharded {
            serial: SerialNat {
                name: "sharded_2",
                ..SerialNat::nat_hot(seed, packets)
            },
        }
    }

    /// True when the program runs the shards on worker threads; false
    /// when it falls back to the inline transport (one core, or
    /// `FLEXSFP_THREADS=1`).
    fn threaded() -> bool {
        effective_parallelism() > 1
    }

    /// Run one built trial, with a `bench.shard.run` span around the call
    /// when traced.
    fn drive(
        &self,
        state: State,
        full_digest: bool,
        tracer: Option<&Tracer>,
    ) -> (ShardedRun, Sink, u64) {
        let State {
            modules,
            stream,
            arena,
        } = state;
        let mut sink = Sink::new(arena, full_digest);
        // Modules are built during set-up and handed out here, so
        // construction stays outside the timed region.
        let slots: Mutex<Vec<Option<FlexSfp>>> =
            Mutex::new(modules.into_iter().map(Some).collect());
        let make_module = |shard: usize| {
            slots.lock().expect("no shard panicked taking its module")[shard]
                .take()
                .expect("one module per shard")
        };
        let mut spans = tracer.map(|t| t.buf(0, 8));
        let start_ns = spans.as_ref().map(SpanBuf::now);
        let t = Instant::now();
        let config = ModuleConfig::default();
        let run = match tracer {
            None => run_sharded(SHARDS, &config, make_module, stream, |o| sink.take(o)),
            Some(tr) => run_sharded(
                SHARDS,
                &config,
                make_module,
                ChunkTimed::new(
                    stream,
                    tr.buf(0, span_capacity(self.serial.packets)),
                    "traffic.gen",
                    None,
                ),
                |o| sink.take(o),
            ),
        };
        let timed_ns = t.elapsed().as_nanos() as u64;
        if let (Some(spans), Some(start_ns)) = (spans.as_mut(), start_ns) {
            let end_ns = spans.now();
            spans.record(
                "bench.shard.run",
                start_ns,
                end_ns,
                run.report.offered as u32,
            );
        }
        (run, sink, timed_ns)
    }
}

pub struct State {
    modules: Vec<FlexSfp>,
    stream: NatStream,
    arena: PacketArena,
}

impl Workload for Sharded {
    type State = State;

    fn name(&self) -> &'static str {
        self.serial.name
    }

    fn packets(&self) -> u64 {
        self.serial.packets
    }

    fn build(&self, tracer: Option<&Tracer>) -> Built<State> {
        let arena = PacketArena::new();
        let mut built = Built {
            state: State {
                modules: Vec::with_capacity(SHARDS),
                stream: self.serial.stream(&arena),
                arena,
            },
            module_build_ns: Vec::new(),
            populate_ns: 0,
            populated: 0,
        };
        for shard in 0..SHARDS {
            // A worker's spans live on its own thread line; inline, the
            // shards run on the dispatcher's.
            let tid = if Sharded::threaded() {
                shard as u32 + 1
            } else {
                0
            };
            let spans = tracer.map(|t| t.buf(tid, self.serial.packets as usize / 16 + 64));
            let (module, build_ns, populate_ns) = nat_module(&self.serial, spans);
            built.state.modules.push(module);
            built.module_build_ns.push(build_ns);
            built.populate_ns += populate_ns;
            built.populated += self.serial.flows as u64;
        }
        built
    }

    fn run(&self, state: State, full_digest: bool, tracer: Option<&Tracer>) -> Outcome {
        let allocations = state.arena.clone();
        let (run, sink, timed_ns) = self.drive(state, full_digest, tracer);
        let mut outcome = outcome_of(
            &run.report,
            &sink,
            timed_ns,
            0,
            run.snapshot.cache,
            run.snapshot.table,
            allocations.allocations(),
        );
        let mean = run.routed.iter().sum::<u64>() as f64 / run.routed.len().max(1) as f64;
        let max = run.routed.iter().copied().max().unwrap_or(0) as f64;
        let c = &mut outcome.counts;
        c.insert("bench.shard.backpressure", run.backpressure as f64);
        c.insert(
            "bench.shard.imbalance",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
        c.insert("bench.shard.frame_copies", run.frame_copies as f64);
        c.insert("bench.shard.chunk_allocs", run.chunk_allocs as f64);
        outcome
    }

    /// The serial digest of the same stream: the reconciled output must
    /// reproduce it byte for byte, in order.
    fn reference(&self) -> Option<Outcome> {
        let serial = SerialNat {
            name: "nat_hot",
            ..self.serial.clone()
        };
        Some(serial.run(serial.build(None).state, true, None))
    }

    fn layers(&self, trace: &Trace, traced: &Outcome, out: &mut Layers) {
        let packets = traced.offered.max(1) as f64;
        let wall = trace.total_ns("bench.shard.run");
        // Dispatcher-thread wall minus generation. The sink (recycle
        // only) cannot be timed from outside without a clock read per
        // packet and stays in; `wire.arena.lease_recycle_ns` sizes it.
        out.set(
            "bench.shard.self_ns_per_pkt",
            wall.saturating_sub(trace.total_ns("traffic.gen")) as f64 / packets,
        );
        out.set(
            "bench.shard.worker_busy_share",
            trace.total_ns("apps.process") as f64 / (SHARDS as f64 * wall.max(1) as f64),
        );
        out.set(
            "core.batch.mean_fill",
            trace.items("apps.process") as f64 / trace.count("apps.process").max(1) as f64,
        );

        // The same stream on the inline transport: dispatch + reconcile
        // without rings or threads. Everything runs on this thread, so
        // the run span's self time is wall − gen − apps.
        let previous = std::env::var("FLEXSFP_THREADS").ok();
        std::env::set_var("FLEXSFP_THREADS", "1");
        let tracer = Tracer::new(0);
        let state = self.build(Some(&tracer)).state;
        let (run, _, _) = self.drive(state, false, Some(&tracer));
        match previous {
            Some(v) => std::env::set_var("FLEXSFP_THREADS", v),
            None => std::env::remove_var("FLEXSFP_THREADS"),
        }
        let inline = tracer.finish();
        out.set(
            "bench.shard.inline_self_ns_per_pkt",
            inline.self_total_ns("bench.shard.run") as f64 / run.report.offered.max(1) as f64,
        );
    }

    fn kernels(&self, out: &mut Layers) {
        self.serial.kernels(out);
    }

    fn degraded(&self) -> bool {
        !Sharded::threaded()
    }

    fn notes(&self) -> Vec<String> {
        let transport = if Sharded::threaded() {
            "threaded (dispatcher + 2 workers)"
        } else {
            "inline (the program fell back: one usable core)"
        };
        vec![format!(
            "transport {transport}; nproc {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_output_reproduces_the_serial_digest() {
        let w = Sharded::new(81, 30_000);
        let reference = w.reference().expect("serial reference");
        let out = w.run(w.build(None).state, true, None);
        assert_eq!(out.digest, reference.digest);
        assert_eq!(out.fingerprint, reference.fingerprint);
        assert_eq!(out.forwarded, 30_000);
        assert_eq!(out.counts["bench.shard.frame_copies"], 0.0);
        assert_eq!(out.failed(reference.fingerprint), 0);
    }

    #[test]
    fn traced_sharded_pass_keeps_the_digest_and_finds_worker_spans() {
        let w = Sharded::new(81, 30_000);
        let reference = w.reference().expect("serial reference");
        let tracer = Tracer::new(0);
        let out = w.run(w.build(Some(&tracer)).state, true, Some(&tracer));
        let trace = tracer.finish();
        assert_eq!(out.digest, reference.digest);
        assert_eq!(trace.items("apps.process"), 30_000);
        assert_eq!(trace.count("bench.shard.run"), 1);
        let mut layers = Layers::default();
        w.layers(&trace, &out, &mut layers);
        assert!(layers.0["bench.shard.self_ns_per_pkt"] > 0.0);
        assert!(layers.0["bench.shard.inline_self_ns_per_pkt"] > 0.0);
        let busy = layers.0["bench.shard.worker_busy_share"];
        assert!(busy > 0.0 && busy <= 1.0, "busy share {busy}");
    }
}
