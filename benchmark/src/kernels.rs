//! Isolated kernels: single public functions of one layer, timed over
//! the workload's own frames and keys so that working set and hit
//! pattern match the workload. They split `apps.process` and the
//! wrappers into parts no outside span can reach. ns per call, median
//! of [`REPS`] passes.

use crate::stats::median;
use crate::surface::json::Value;
use crate::surface::{
    app_by_name, checksum_update32, crc32, ring_channel, ActionPlan, ArrivalModel, BatchPacket,
    CrosspointMatrix, Direction, FlexSfp, FlowCache, FlowKey, HashTable, LatencyHistogram, MacAddr,
    PacketArena, PacketBuilder, Parser, ProcessContext, SizeModel, TelemetrySnapshot, ToJson,
    TraceBuilder, Verdict, APP_NAMES, PRIVATE_BASE,
};
use crate::workload::Layers;
use std::hint::black_box;
use std::time::Instant;

/// Passes per kernel.
const REPS: usize = 3;

/// Keys sampled from the head of the workload's stream: 2²⁰, a
/// sixteenth of that in quick mode.
pub fn keys(quick: bool) -> usize {
    if quick {
        1 << 16
    } else {
        1 << 20
    }
}

/// Whole frames kept from the head of the stream: a sixteenth of the
/// keys (a 2²⁰-frame IMIX sample would outweigh every workload but the
/// rack).
fn frames(quick: bool) -> usize {
    keys(quick) / 16
}

/// Median over [`REPS`] passes of the time one pass takes per call.
fn ns_per_call(calls: usize, mut pass: impl FnMut()) -> f64 {
    let mut per_call = [0.0; REPS];
    for slot in &mut per_call {
        let t = Instant::now();
        pass();
        *slot = t.elapsed().as_nanos() as f64 / calls.max(1) as f64;
    }
    median(&per_call)
}

/// The head of a workload's stream: the first frames whole
/// and the flow key of every frame.
pub struct Sample {
    pub frames: Vec<Vec<u8>>,
    pub keys: Vec<FlowKey>,
}

impl Sample {
    pub fn collect(
        stream: impl Iterator<Item = Vec<u8>>,
        arena: &PacketArena,
        quick: bool,
    ) -> Sample {
        let keep = frames(quick);
        let mut sample = Sample {
            frames: Vec::with_capacity(keep),
            keys: Vec::with_capacity(keys(quick)),
        };
        for frame in stream {
            if let Some(key) = FlowKey::extract(&frame, Direction::EdgeToOptical) {
                sample.keys.push(key);
            }
            if sample.frames.len() < keep {
                // An exact-size copy: arena buffers reserve a full MTU
                // each and would spread the sample over 100 MB.
                sample.frames.push(frame.as_slice().to_vec());
            }
            arena.recycle(frame);
        }
        sample
    }
}

/// Kernels whose cost depends on the workload's keys: key extraction,
/// parse, flow cache at `cache_entries`, hash table at `table_slots`
/// holding `population` entries (skipped when 0), the flow hash.
pub fn keyed(
    sample: &Sample,
    cache_entries: usize,
    table_slots: usize,
    population: usize,
    out: &mut Layers,
) {
    let frames = &sample.frames;
    let keys = &sample.keys;
    out.set(
        "ppe.flowkey.extract_ns",
        ns_per_call(frames.len(), || {
            for f in frames {
                black_box(FlowKey::extract(black_box(f), Direction::EdgeToOptical));
            }
        }),
    );
    let parser = Parser::default();
    out.set(
        "ppe.parser.parse_ns",
        ns_per_call(frames.len(), || {
            for f in frames {
                black_box(parser.parse(black_box(f)));
            }
        }),
    );

    // A plan with empty op lists: cloning and dropping it touches no
    // heap, so what is timed is the cache's own probing and placement.
    let plan = ActionPlan {
        ops: Vec::new(),
        verdict: Verdict::Forward,
        stage_stats: Vec::new(),
        cycles: 10,
    };
    let mut cache = FlowCache::new(cache_entries);
    out.set(
        "ppe.cache.insert_ns",
        ns_per_call(keys.len(), || {
            for k in keys {
                cache.insert(*k, plan.clone());
            }
        }),
    );
    out.set(
        "ppe.cache.lookup_ns",
        ns_per_call(keys.len(), || {
            for k in keys {
                black_box(cache.lookup(k).is_some());
            }
        }),
    );

    out.set(
        "fabric.hash.crc32_ns",
        ns_per_call(keys.len(), || {
            for k in keys {
                let mut tuple = [0u8; 13];
                tuple[0..4].copy_from_slice(&k.src_ip().to_be_bytes());
                tuple[4..8].copy_from_slice(&k.dst_ip().to_be_bytes());
                tuple[8] = k.proto();
                tuple[9..11].copy_from_slice(&k.src_port().to_be_bytes());
                tuple[11..13].copy_from_slice(&k.dst_port().to_be_bytes());
                black_box(crc32(black_box(&tuple)));
            }
        }),
    );

    if population == 0 {
        return;
    }
    let mut table: HashTable<u32, u32> = HashTable::with_capacity(table_slots);
    // The population in first-seen order, as the workload's own set-up
    // would have met it had it been driven by traffic.
    let mut members: Vec<u32> = Vec::with_capacity(population);
    for k in keys {
        if members.len() == population {
            break;
        }
        if table.peek(&k.src_ip()).is_none() && table.insert(k.src_ip(), !k.src_ip()).is_ok() {
            members.push(k.src_ip());
        }
    }
    out.set(
        "ppe.table.lookup_ns",
        ns_per_call(keys.len(), || {
            for k in keys {
                black_box(table.lookup(&k.src_ip()));
            }
        }),
    );
    // Remove the whole population, put it back, and round again until
    // enough calls have been timed; the two halves are timed apart.
    let rounds = (keys.len() / 4 / members.len().max(1)).max(1);
    let (mut remove_ns, mut insert_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut removing, mut inserting) = (0u128, 0u128);
        for _ in 0..rounds {
            let t = Instant::now();
            for ip in &members {
                black_box(table.remove(ip));
            }
            removing += t.elapsed().as_nanos();
            let t = Instant::now();
            for ip in &members {
                black_box(table.insert(*ip, !*ip).is_ok());
            }
            inserting += t.elapsed().as_nanos();
        }
        let calls = (rounds * members.len()).max(1) as f64;
        remove_ns.push(removing as f64 / calls);
        insert_ns.push(inserting as f64 / calls);
    }
    out.set("ppe.table.remove_ns", median(&remove_ns));
    out.set("ppe.table.insert_ns", median(&insert_ns));
}

/// Kernels that do not depend on the workload's flow population.
pub fn independent(sample: &Sample, quick: bool, out: &mut Layers) {
    let keys = &sample.keys;
    let calls = self::keys(quick);

    // One thread, 64-item chunks through a 4 096-slot ring: the cost of
    // the ring's own bookkeeping with no cache-line ping-pong.
    const RING_CHUNK: usize = 64;
    let (mut tx, mut rx) = ring_channel::<u64>(4096);
    let mut staged: Vec<u64> = Vec::with_capacity(RING_CHUNK);
    let mut popped: Vec<u64> = Vec::with_capacity(RING_CHUNK);
    let chunks = calls / RING_CHUNK;
    out.set(
        "fabric.ring.item_ns",
        ns_per_call(chunks * RING_CHUNK, || {
            for c in 0..chunks {
                staged.extend((0..RING_CHUNK as u64).map(|i| i + c as u64));
                while !staged.is_empty() {
                    tx.push_slice(&mut staged);
                }
                popped.clear();
                rx.pop_chunk(&mut popped, RING_CHUNK);
                black_box(&popped);
            }
        }),
    );

    out.set(
        "wire.checksum.update_ns",
        ns_per_call(keys.len(), || {
            let mut check = 0x1234u16;
            for k in keys {
                check = checksum_update32(check, k.src_ip(), k.dst_ip());
            }
            black_box(check);
        }),
    );

    let arena = PacketArena::new();
    out.set(
        "wire.arena.lease_recycle_ns",
        ns_per_call(calls, || {
            for _ in 0..calls {
                let buf = arena.lease();
                arena.recycle(black_box(buf));
            }
        }),
    );

    let frames_built = calls / 8;
    out.set(
        "wire.builder.udp_frame_ns",
        ns_per_call(frames_built, || {
            for i in 0..frames_built as u32 {
                black_box(PacketBuilder::eth_ipv4_udp(
                    MacAddr([0x02, 0, 0, 0, 0, 1]),
                    MacAddr([0x02, 0, 0, 0, 0, 2]),
                    PRIVATE_BASE + (i & 0xfff),
                    0x0808_0808,
                    1024,
                    80,
                    &[0x5a; 18],
                ));
            }
        }),
    );

    let mut hist = LatencyHistogram::new();
    out.set(
        "obs.histogram.record_ns",
        ns_per_call(keys.len(), || {
            for k in keys {
                hist.record(u64::from(k.src_ip() & 0xf_ffff));
            }
        }),
    );

    let snapshot: TelemetrySnapshot = FlexSfp::passthrough().telemetry_snapshot();
    const ROUNDTRIPS: usize = 200;
    out.set(
        "obs.json.snapshot_roundtrip_us",
        ns_per_call(ROUNDTRIPS, || {
            for _ in 0..ROUNDTRIPS {
                let text = black_box(&snapshot).to_json().to_string();
                black_box(Value::parse(&text).expect("the codec reads its own output"));
            }
        }) / 1e3,
    );
}

/// `CrosspointMatrix::offer` + `arbitrate` over a sequence of
/// `(input, output)` port pairs (the rack's own).
pub fn xbar(ports: usize, depth: usize, pairs: &[(usize, usize)], out: &mut Layers) {
    let mut matrix: CrosspointMatrix<u64> = CrosspointMatrix::new(ports, depth);
    out.set(
        "fabric.xbar.offer_arbitrate_ns",
        ns_per_call(pairs.len(), || {
            for (i, &(input, output)) in pairs.iter().enumerate() {
                let _ = black_box(matrix.offer(input, output, i as u64));
                black_box(matrix.arbitrate(output));
            }
        }),
    );
}

/// One line per §3 application: `process_batch` over IMIX traffic from
/// 4 096 flows, half TCP, flow cache on, in 32-packet batches.
pub fn apps(seed: u64, quick: bool, out: &mut Layers) {
    const BATCH: usize = 32;
    let packets = keys(quick) / 8;
    for name in APP_NAMES {
        let mut app = app_by_name(name);
        app.set_flow_cache(true);
        let mut batches: Vec<Vec<BatchPacket>> = Vec::with_capacity(packets / BATCH);
        let mut stream = TraceBuilder::new(seed)
            .flows(4096)
            .src_base(PRIVATE_BASE)
            .sizes(SizeModel::Imix)
            .arrivals(ArrivalModel::Paced { utilization: 0.8 })
            .tcp_share(0.5)
            .stream(packets)
            .peekable();
        while stream.peek().is_some() {
            batches.push(
                stream
                    .by_ref()
                    .take(BATCH)
                    .map(|p| BatchPacket::new(ProcessContext::egress().at(p.arrival_ns), p.frame))
                    .collect(),
            );
        }
        let t = Instant::now();
        for batch in &mut batches {
            app.process_batch(batch);
        }
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&batches);
        out.set(
            &format!("apps.{name}.process_ns_per_pkt"),
            ns / packets as f64,
        );
    }
}
