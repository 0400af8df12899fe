//! Seed-stability golden tests for the in-tree PRNG and the traffic
//! generator.
//!
//! The deterministic-replay property (§"same builder always emits the
//! same trace, byte for byte") is what makes every benchmark in
//! `flexsfp-bench` reproducible. These tests pin it across releases:
//! a fixed seed must keep producing the exact same raw PRNG stream and
//! the exact same first-N packets — arrival timestamps and frame bytes
//! both — forever. An intentional change to the generator or the
//! xoshiro256** port must update the digests here, consciously.
//!
//! Runs with default features only; the digest is `flexsfp_wire::fnv1a`.

use flexsfp_traffic::gen::{ArrivalModel, SizeModel, TraceBuilder, TracePacket};
use flexsfp_traffic::rng::Xoshiro256;
use flexsfp_wire::{fnv1a, FNV1A_OFFSET as FNV_OFFSET};

/// Digest a trace: every packet's little-endian arrival time followed by
/// its frame bytes, all chained through one FNV-1a state.
fn trace_digest(trace: &[TracePacket]) -> u64 {
    let mut h = FNV_OFFSET;
    for p in trace {
        h = fnv1a(h, &p.arrival_ns.to_le_bytes());
        h = fnv1a(h, &p.frame);
    }
    h
}

#[test]
fn xoshiro_stream_is_seed_stable() {
    // First six outputs for seed 1 (SplitMix64-expanded), pinned.
    let mut r = Xoshiro256::seed_from_u64(1);
    let got: Vec<u64> = (0..6).map(|_| r.next_u64()).collect();
    assert_eq!(
        got,
        [
            0xb3f2_af6d_0fc7_10c5,
            0x853b_5596_4736_4cea,
            0x92f8_9756_082a_4514,
            0x642e_1c7b_c266_a3a7,
            0xb27a_48e2_9a23_3673,
            0x24c1_2312_6ffd_a722,
        ]
    );
}

#[test]
fn default_trace_first_64_packets_are_golden() {
    // Default builder (10G, 64 flows, IMIX, 50% paced) with a quarter of
    // the flows TCP. Seed 0x5eed_f00d, first 64 packets.
    let trace = TraceBuilder::new(0x5eed_f00d).tcp_share(0.25).build(64);
    assert_eq!(trace.len(), 64);
    assert_eq!(trace_digest(&trace), 0x73d7_765a_9dcd_1ece);
    // The digest covers timestamps too, but pin the span explicitly so a
    // failure here points at pacing rather than frame contents.
    assert_eq!(trace.last().unwrap().arrival_ns, 44_451);
}

#[test]
fn poisson_trace_first_64_packets_are_golden() {
    // Poisson arrivals exercise the exponential sampler (`Rng::exp`),
    // whose f64 path is the most fragile part of seed stability.
    let trace = TraceBuilder::new(7)
        .sizes(SizeModel::Fixed(256))
        .arrivals(ArrivalModel::Poisson { utilization: 0.4 })
        .flows(16)
        .build(64);
    assert_eq!(trace.len(), 64);
    assert_eq!(trace_digest(&trace), 0x9cc4_797e_d22a_631e);
    assert_eq!(trace.last().unwrap().arrival_ns, 31_903);
}

#[test]
fn streaming_reproduces_the_golden_digests() {
    // The streaming source must match the materialized path byte for
    // byte — same RNG stream, same frames, same arrival order — or the
    // fast path has silently diverged from the reference path. Digesting
    // the stream against the same pinned constants proves it.
    let streamed: Vec<TracePacket> = TraceBuilder::new(0x5eed_f00d)
        .tcp_share(0.25)
        .stream(64)
        .collect();
    assert_eq!(trace_digest(&streamed), 0x73d7_765a_9dcd_1ece);

    let poisson: Vec<TracePacket> = TraceBuilder::new(7)
        .sizes(SizeModel::Fixed(256))
        .arrivals(ArrivalModel::Poisson { utilization: 0.4 })
        .flows(16)
        .stream(64)
        .collect();
    assert_eq!(trace_digest(&poisson), 0x9cc4_797e_d22a_631e);
}

#[test]
fn streaming_matches_build_with_microbursts() {
    // Bursts interleave with the paced stream through a stable merge;
    // the streamed order must equal build()'s stable sort, ties included.
    let b = TraceBuilder::new(2)
        .sizes(SizeModel::Fixed(60))
        .arrivals(ArrivalModel::Paced { utilization: 0.01 })
        .microburst(1_000_000, 50)
        .microburst(500_000, 10);
    let built = b.build(100);
    let streamed: Vec<TracePacket> = b.stream(100).collect();
    assert_eq!(built.len(), streamed.len());
    assert_eq!(trace_digest(&built), trace_digest(&streamed));
    for (x, y) in built.iter().zip(&streamed) {
        assert_eq!(x.arrival_ns, y.arrival_ns);
        assert_eq!(x.frame, y.frame);
    }
}

#[test]
fn pooled_stream_is_allocation_bounded_and_identical() {
    use flexsfp_wire::PacketArena;
    let b = TraceBuilder::new(0x5eed_f00d).tcp_share(0.25);
    let reference = b.build(64);
    let arena = PacketArena::new();
    let mut digest = FNV_OFFSET;
    for (p, want) in b.stream_pooled(64, arena.clone()).zip(&reference) {
        assert_eq!(p.arrival_ns, want.arrival_ns);
        assert_eq!(p.frame, want.frame);
        digest = fnv1a(digest, &p.arrival_ns.to_le_bytes());
        digest = fnv1a(digest, &p.frame);
        arena.recycle(p.frame);
    }
    assert_eq!(digest, 0x73d7_765a_9dcd_1ece);
    // One frame in flight at a time => one buffer ever allocated per
    // size class, and IMIX fills both.
    assert_eq!(arena.allocations(), 2);
    assert_eq!(arena.leases(), 64);
}

#[test]
fn a_pooled_minimum_frame_leases_a_small_buffer() {
    use flexsfp_wire::PacketArena;
    let arena = PacketArena::new();
    let b = TraceBuilder::new(3)
        .tcp_share(0.25)
        .sizes(SizeModel::Fixed(60));
    for p in b.stream_pooled(256, arena.clone()) {
        assert_eq!(p.frame.len(), 60);
        assert!(
            p.frame.capacity() <= 128,
            "a 60 B frame reserved {} B",
            p.frame.capacity()
        );
        arena.recycle(p.frame);
    }
}

#[test]
fn rebuilding_reproduces_the_golden_digest() {
    // Replay stability: two independently constructed builders agree
    // with each other and with the pinned digest.
    let a = TraceBuilder::new(0x5eed_f00d).tcp_share(0.25).build(64);
    let b = TraceBuilder::new(0x5eed_f00d).tcp_share(0.25).build(64);
    assert_eq!(trace_digest(&a), trace_digest(&b));
    assert_eq!(trace_digest(&a), 0x73d7_765a_9dcd_1ece);
}

/// The rack's trace shape — IMIX, a quarter of the flows TCP, two
/// microbursts — and a jumbo builder whose frames outgrow the constant
/// filler and take the scratch-payload path. Each with its packet count
/// and the number of burst frames it adds.
fn rack_shaped() -> [(TraceBuilder, usize, usize); 2] {
    [
        (
            TraceBuilder::new(0x7ac4)
                .tcp_share(0.25)
                .microburst(200_000, 24)
                .microburst(600_000, 24),
            3_000,
            48,
        ),
        (
            TraceBuilder::new(0x7ac5)
                .tcp_share(0.25)
                .sizes(SizeModel::Fixed(9000)),
            200,
            0,
        ),
    ]
}

#[test]
fn rack_shaped_traces_build_what_the_pooled_stream_yields() {
    use flexsfp_wire::PacketArena;
    // IMIX fills both size classes; jumbo frames take the full one only.
    for ((b, n, bursts), classes) in rack_shaped().into_iter().zip([2, 1]) {
        let built = b.build(n);
        assert_eq!(built.len(), n + bursts);
        let arena = PacketArena::new();
        let mut yielded = 0;
        for (p, want) in b.stream_pooled(n, arena.clone()).zip(&built) {
            assert_eq!(p.arrival_ns, want.arrival_ns);
            assert_eq!(p.frame, want.frame);
            arena.recycle(p.frame);
            yielded += 1;
        }
        assert_eq!(yielded, built.len());
        // Every paced frame goes back to the arena, so one buffer per
        // size class serves the whole stream. Burst frames are built
        // before the stream starts, each to its own 1 514 B, and the
        // arena, already holding every buffer it made, refuses them.
        assert_eq!(arena.allocations(), classes);
        assert_eq!(arena.leases(), n as u64);
        assert_eq!(arena.recycles(), n as u64);
        assert_eq!(arena.discards(), bursts as u64);
    }
}

#[test]
fn materialised_frames_reserve_their_bytes_and_pooled_ones_the_arena_capacity() {
    use flexsfp_wire::arena::{PacketArena, DEFAULT_FRAME_CAPACITY};
    for (b, n, bursts) in rack_shaped() {
        let streamed: Vec<TracePacket> = b.stream(n).collect();
        for p in b.build(n).iter().chain(&streamed) {
            assert_eq!(p.frame.capacity(), p.frame.len());
        }
        // Burst frames are the stream's own, built to their 1 514 B
        // before any lease; every paced frame is an arena buffer of the
        // class for its length.
        let pooled: Vec<TracePacket> = b.stream_pooled(n, PacketArena::new()).collect();
        let leased = pooled
            .iter()
            .filter(|p| match p.frame.len() {
                ..=64 => p.frame.capacity() == 128,
                _ => p.frame.capacity() >= DEFAULT_FRAME_CAPACITY,
            })
            .count();
        assert_eq!(leased, n);
        assert_eq!(pooled.len() - leased, bursts);
    }
}
