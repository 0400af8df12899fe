//! Criterion benches: microflow action-cache primitives.
//!
//! Isolates the per-packet cost of the fast path — key extraction,
//! set-associative lookup, plan replay — and its churn modes (insert
//! under eviction pressure, epoch invalidation). These are the numbers
//! behind the cached-vs-uncached gap `experiments perf` reports.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flexsfp_apps::StaticNat;
use flexsfp_ppe::cache::{replay, ActionPlan, FlowCache, FlowKey, PlanOp};
use flexsfp_ppe::counters::CounterBank;
use flexsfp_ppe::{Direction, PacketProcessor, ProcessContext, Verdict};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::{checksum, MacAddr};
use std::hint::black_box;

const FLOWS: u32 = 64;

fn udp_frame(flow: u32) -> Vec<u8> {
    PacketBuilder::eth_ipv4_udp(
        MacAddr([0x02; 6]),
        MacAddr([0x04; 6]),
        0xc0a8_0000 + flow,
        0x0a00_0001,
        10_000 + flow as u16,
        53,
        &[0u8; 18],
    )
}

fn frames() -> Vec<Vec<u8>> {
    (0..FLOWS).map(udp_frame).collect()
}

fn nat_plan(flow: u32) -> ActionPlan {
    ActionPlan {
        ops: vec![
            PlanOp::Write {
                offset: 26,
                len: 4,
                data: (0x6540_0000u32 + flow).to_be_bytes(),
            },
            PlanOp::IncrCheck {
                offset: 24,
                delta: checksum::delta32(0xc0a8_0000 + flow, 0x6540_0000 + flow),
                udp: false,
            },
        ],
        verdict: Verdict::Forward,
        stage_stats: vec![(0, true), (1, true)],
        cycles: 10,
    }
}

fn seeded_cache() -> (FlowCache, Vec<FlowKey>) {
    let mut cache = FlowCache::default();
    let keys: Vec<FlowKey> = frames()
        .iter()
        .map(|f| FlowKey::extract(f, Direction::EdgeToOptical).unwrap())
        .collect();
    for (i, k) in keys.iter().enumerate() {
        cache.insert(*k, nat_plan(i as u32));
    }
    (cache, keys)
}

fn bench_extract(c: &mut Criterion) {
    let frames = frames();
    let mut group = c.benchmark_group("flowcache/extract");
    group.throughput(Throughput::Elements(1));
    group.bench_function("udp64", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let f = &frames[i % frames.len()];
            i += 1;
            black_box(FlowKey::extract(black_box(f), Direction::EdgeToOptical))
        })
    });
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let (mut cache, keys) = seeded_cache();
    let miss_keys: Vec<FlowKey> = (FLOWS..2 * FLOWS)
        .map(|f| FlowKey::extract(&udp_frame(f), Direction::EdgeToOptical).unwrap())
        .collect();
    let mut group = c.benchmark_group("flowcache/lookup");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let k = &keys[i % keys.len()];
            i += 1;
            black_box(cache.lookup(k).is_some())
        })
    });
    group.bench_function("miss", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let k = &miss_keys[i % miss_keys.len()];
            i += 1;
            black_box(cache.lookup(k).is_some())
        })
    });
    group.finish();
}

fn bench_insert_evict(c: &mut Criterion) {
    // A deliberately tiny cache: inserts constantly evict, exercising
    // the round-robin victim path.
    let mut group = c.benchmark_group("flowcache/insert");
    group.throughput(Throughput::Elements(1));
    group.bench_function("evicting", |b| {
        let mut cache = FlowCache::new(16);
        let keys: Vec<FlowKey> = (0..256)
            .map(|f| FlowKey::extract(&udp_frame(f), Direction::EdgeToOptical).unwrap())
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            let k = keys[i % keys.len()];
            i += 1;
            cache.insert(k, nat_plan(i as u32));
        })
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let frame = udp_frame(3);
    let plan = nat_plan(3);
    let mut counters = CounterBank::new(4);
    let mut group = c.benchmark_group("flowcache/replay");
    group.throughput(Throughput::Elements(1));
    group.bench_function("nat_plan", |b| {
        let mut buf = frame.clone();
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&frame);
            black_box(replay(plan.view(), &mut buf, &mut counters))
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    // The full cached NAT fast path as the module drives it:
    // extract → lookup → replay, versus the slow path with the cache off.
    let frames = frames();
    let ctx = ProcessContext::egress();
    let mut group = c.benchmark_group("flowcache/nat");
    group.throughput(Throughput::Elements(1));
    for (label, cached) in [("cache_on", true), ("cache_off", false)] {
        let mut nat = StaticNat::new();
        for i in 0..FLOWS {
            nat.add_mapping(0xc0a8_0000 + i, 0x6540_0000 + i).unwrap();
        }
        nat.set_flow_cache(cached);
        group.bench_function(label, |b| {
            let mut buf = frames[0].clone();
            let mut i = 0usize;
            b.iter(|| {
                buf.clear();
                buf.extend_from_slice(&frames[i % frames.len()]);
                i += 1;
                black_box(nat.process(&ctx, &mut buf))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_extract,
    bench_lookup,
    bench_insert_evict,
    bench_replay,
    bench_end_to_end
);
criterion_main!(benches);
