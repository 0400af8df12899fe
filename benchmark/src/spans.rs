//! The traced run: spans recorded from outside the program, around
//! the calls into each layer.
//!
//! A span is `(name, thread, start, end, items)`. Recording sites own a
//! [`SpanBuf`] and push into it without locking; buffers commit to the
//! [`Tracer`] when dropped. [`Tracer::finish`] orders the spans, gives
//! each its parent (the innermost span on the same thread that contains
//! it) and from that each layer's self time: its span minus the part
//! its children cover.
//!
//! Clock reads cost about as much as a fifth of one `nat_hot` packet,
//! so nothing here is per packet: the generator is timed per 256-packet
//! pull ([`ChunkTimed`]), the application per `process_batch` call
//! ([`Traced`]), the rack per call.

use crate::surface::{
    json, BatchPacket, CacheStats, DataplaneEvent, FlightStamp, PacketProcessor, ProcessContext,
    ResourceManifest, TableOp, TableOpResult, TableTelemetry, Verdict,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Packets per generator pull in the traced pass.
pub const GEN_CHUNK: usize = 256;
/// Spans written to a trace file; the per-layer numbers use all of them.
pub const TRACE_FILE_SPANS: usize = 40_000;
/// `parent` of a span with no enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// 0 is the generator thread; shard workers are 1, 2, ….
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Packets (or entries) the call handled.
    pub items: u32,
    /// Index of the enclosing span after [`Tracer::finish`].
    pub parent: u32,
    pub trial: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the spans of one traced pass.
pub struct Tracer {
    epoch: Instant,
    trial: u32,
    committed: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(trial: u32) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            trial,
            committed: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A recording buffer for thread `tid` with room for `capacity`
    /// spans, so that recording does not allocate inside the counted
    /// region.
    pub fn buf(&self, tid: u32, capacity: usize) -> SpanBuf {
        SpanBuf {
            epoch: self.epoch,
            tid,
            trial: self.trial,
            spans: Vec::with_capacity(capacity),
            committed: Arc::clone(&self.committed),
        }
    }

    /// Order the committed spans and resolve parents. Every [`SpanBuf`]
    /// must have been dropped.
    pub fn finish(self) -> Trace {
        let spans = std::mem::take(
            &mut *self
                .committed
                .lock()
                .expect("no recording thread panicked holding the span list"),
        );
        Trace::from_spans(spans)
    }
}

/// One recording site's private span list.
pub struct SpanBuf {
    epoch: Instant,
    tid: u32,
    trial: u32,
    spans: Vec<Span>,
    committed: Arc<Mutex<Vec<Span>>>,
}

impl SpanBuf {
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, items: u32) {
        self.spans.push(Span {
            name,
            tid: self.tid,
            start_ns,
            end_ns: end_ns.max(start_ns),
            items,
            parent: NO_PARENT,
            trial: self.trial,
        });
    }

    /// Time one call.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, items: u32, f: impl FnOnce() -> R) -> R {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.record(name, t0, t1, items);
        r
    }
}

impl Drop for SpanBuf {
    fn drop(&mut self) {
        // A poisoned list means another recorder panicked; the run is
        // failing anyway and Drop must not panic on top of it.
        if let Ok(mut all) = self.committed.lock() {
            all.append(&mut self.spans);
        }
    }
}

/// Time `f` when a buffer is present, just call it otherwise.
#[inline]
pub fn timed<R>(
    buf: &mut Option<SpanBuf>,
    name: &'static str,
    items: u32,
    f: impl FnOnce() -> R,
) -> R {
    match buf {
        Some(b) => b.time(name, items, f),
        None => f(),
    }
}

/// The finished trace: spans in `(thread, start)` order with parents.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Self time of each span, same index.
    pub self_ns: Vec<u64>,
}

impl Trace {
    pub fn from_spans(mut spans: Vec<Span>) -> Trace {
        // Outer spans first among those that start together.
        spans.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
        let mut open: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            let s = spans[i];
            while let Some(&top) = open.last() {
                let t = &spans[top];
                if t.tid == s.tid && t.start_ns <= s.start_ns && s.end_ns <= t.end_ns {
                    break;
                }
                open.pop();
            }
            if let Some(&top) = open.last() {
                spans[i].parent = top as u32;
                // Siblings on one thread are sequential calls and cannot
                // overlap, so their sum fits in the parent; saturate
                // anyway so clock granularity can never go negative.
                self_ns[top] = self_ns[top].saturating_sub(s.dur_ns());
            }
            open.push(i);
        }
        Trace { spans, self_ns }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Summed duration of every span called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|(_, s)| s.dur_ns()).sum()
    }

    /// Summed self time of every span called `name`, ns.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|(i, _)| self.self_ns[i]).sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    pub fn items(&self, name: &str) -> u64 {
        self.named(name).map(|(_, s)| u64::from(s.items)).sum()
    }

    /// Durations of every span called `name`, ns.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|(_, s)| s.dur_ns() as f64).collect()
    }

    /// Self time per layer name, ns, for the trace file's summary.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *by_name.entry(s.name).or_insert(0) += self.self_ns[i];
        }
        by_name
    }

    /// Chrome trace-event JSON (load in Perfetto or chrome://tracing):
    /// the first [`TRACE_FILE_SPANS`] spans as complete (`X`) events,
    /// plus the per-layer self-time table over all spans.
    pub fn to_chrome_json(&self, workload: &str) -> json::Value {
        let mut first: Vec<&Span> = self.spans.iter().collect();
        first.sort_by_key(|s| s.start_ns);
        first.truncate(TRACE_FILE_SPANS);
        let mut events = Vec::with_capacity(first.len() + 1);
        events.push(json!({
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": (format!("flexbench {workload}"))}
        }));
        for s in first {
            events.push(json!({
                "name": (s.name),
                "cat": "flexbench",
                "ph": "X",
                "ts": (s.start_ns as f64 / 1e3),
                "dur": (s.dur_ns() as f64 / 1e3),
                "pid": 1,
                "tid": (s.tid),
                "args": {"items": (s.items), "trial": (s.trial)}
            }));
        }
        let self_table: BTreeMap<String, json::Value> = self
            .self_by_name()
            .into_iter()
            .map(|(name, ns)| (name.to_string(), json::Value::UInt(ns)))
            .collect();
        json!({
            "displayTimeUnit": "ns",
            "traceEvents": (json::Value::Array(events)),
            "otherData": {
                "workload": (workload),
                "spans_recorded": (self.spans.len() as u64),
                "spans_written": (self.spans.len().min(TRACE_FILE_SPANS) as u64),
                "self_ns_by_layer": (json::Value::Object(self_table))
            }
        })
    }
}

/// Iterator adaptor that pulls [`GEN_CHUNK`] items at a time under one
/// `gen` span and hands them out one by one. The time between two pulls
/// is what the consumer spent on the previous chunk; when `gap` is
/// named, that interval is recorded as a span too, which is how the
/// serial loop gets its `offer` spans without a clock read per packet.
pub struct ChunkTimed<I: Iterator> {
    inner: I,
    pending: VecDeque<I::Item>,
    spans: SpanBuf,
    gen: &'static str,
    gap: Option<&'static str>,
    gap_start: Option<(u64, u32)>,
    done: bool,
}

impl<I: Iterator> ChunkTimed<I> {
    pub fn new(
        inner: I,
        spans: SpanBuf,
        gen: &'static str,
        gap: Option<&'static str>,
    ) -> ChunkTimed<I> {
        ChunkTimed {
            inner,
            pending: VecDeque::with_capacity(GEN_CHUNK),
            spans,
            gen,
            gap,
            gap_start: None,
            done: false,
        }
    }
}

impl<I: Iterator> Iterator for ChunkTimed<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        if self.pending.is_empty() && !self.done {
            let t0 = self.spans.now();
            if let (Some(gap), Some((start, items))) = (self.gap, self.gap_start.take()) {
                self.spans.record(gap, start, t0, items);
            }
            self.pending.extend(self.inner.by_ref().take(GEN_CHUNK));
            let t1 = self.spans.now();
            let pulled = self.pending.len() as u32;
            self.done = pulled == 0;
            if pulled > 0 {
                self.spans.record(self.gen, t0, t1, pulled);
                self.gap_start = Some((t1, pulled));
            }
        }
        self.pending.pop_front()
    }
}

/// A [`PacketProcessor`] that times every `process_batch`/`process`
/// call into the application it wraps (the application and all of
/// `ppe` beneath it) and forwards everything else untouched.
pub struct Traced<P> {
    inner: P,
    spans: SpanBuf,
    name: &'static str,
}

impl<P: PacketProcessor> Traced<P> {
    pub fn new(inner: P, spans: SpanBuf, name: &'static str) -> Traced<P> {
        Traced { inner, spans, name }
    }
}

impl<P: PacketProcessor> PacketProcessor for Traced<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let inner = &mut self.inner;
        self.spans.time(self.name, 1, || inner.process(ctx, packet))
    }

    fn process_batch(&mut self, batch: &mut [BatchPacket]) {
        let inner = &mut self.inner;
        let items = batch.len() as u32;
        self.spans
            .time(self.name, items, || inner.process_batch(batch));
    }

    fn set_flow_cache(&mut self, enabled: bool) -> bool {
        self.inner.set_flow_cache(enabled)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn cache_occupancy(&self) -> Option<u64> {
        self.inner.cache_occupancy()
    }

    fn table_stats(&self) -> Option<TableTelemetry> {
        self.inner.table_stats()
    }

    fn resource_manifest(&self) -> ResourceManifest {
        self.inner.resource_manifest()
    }

    fn pipeline_depth(&self) -> u32 {
        self.inner.pipeline_depth()
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        self.inner.control_op(op)
    }

    fn set_flight_recording(&mut self, enabled: bool) -> bool {
        self.inner.set_flight_recording(enabled)
    }

    fn flight_stamp(&self) -> Option<FlightStamp> {
        self.inner.flight_stamp()
    }

    fn drain_events(&mut self) -> Vec<DataplaneEvent> {
        self.inner.drain_events()
    }

    fn events_lost(&self) -> u64 {
        self.inner.events_lost()
    }
}

/// `app` boxed for a module: wrapped in [`Traced`] when the pass is
/// traced, as it is otherwise.
pub fn maybe_traced<P: PacketProcessor + 'static>(
    app: P,
    spans: Option<SpanBuf>,
) -> Box<dyn PacketProcessor> {
    match spans {
        Some(spans) => Box::new(Traced::new(app, spans, "apps.process")),
        None => Box::new(app),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tid,
            start_ns,
            end_ns,
            items: 1,
            parent: NO_PARENT,
            trial: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_never_negative() {
        let trace = Trace::from_spans(vec![
            span("app", 0, 20, 30),
            span("root", 0, 0, 100),
            span("offer", 0, 10, 60),
            span("app", 0, 35, 55),
            span("gen", 0, 60, 90),
            // Another thread's span inside root's interval is no child.
            span("app", 1, 5, 95),
        ]);
        assert_eq!(trace.total_ns("root"), 100);
        assert_eq!(trace.self_total_ns("root"), 100 - 50 - 30);
        assert_eq!(trace.self_total_ns("offer"), 50 - 10 - 20);
        assert_eq!(trace.total_ns("app"), 10 + 20 + 90);
        assert_eq!(trace.self_total_ns("app"), 120);
        assert_eq!(trace.count("app"), 3);
        for (i, s) in trace.spans.iter().enumerate() {
            assert!(trace.self_ns[i] <= s.dur_ns());
            if s.parent != NO_PARENT {
                let p = &trace.spans[s.parent as usize];
                assert_eq!(p.tid, s.tid);
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        // Children of each parent never sum past it.
        let mut covered = vec![0u64; trace.spans.len()];
        for s in &trace.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        for (i, s) in trace.spans.iter().enumerate() {
            assert!(covered[i] <= s.dur_ns(), "children exceed {}", s.name);
            assert_eq!(trace.self_ns[i], s.dur_ns() - covered[i]);
        }
    }

    #[test]
    fn partly_overlapping_spans_are_siblings_not_children() {
        let trace = Trace::from_spans(vec![span("a", 0, 0, 50), span("b", 0, 40, 80)]);
        assert!(trace.spans.iter().all(|s| s.parent == NO_PARENT));
        assert_eq!(trace.self_total_ns("a"), 50);
    }

    #[test]
    fn chunked_iterator_yields_the_same_items_and_tiles_time() {
        let tracer = Tracer::new(3);
        let items: Vec<u32> = (0..1000).collect();
        let out: Vec<u32> = ChunkTimed::new(
            items.iter().copied(),
            tracer.buf(0, 16),
            "gen",
            Some("offer"),
        )
        .collect();
        assert_eq!(out, items);
        let trace = tracer.finish();
        assert_eq!(trace.count("gen"), 4);
        assert_eq!(trace.items("gen"), 1000);
        assert_eq!(trace.count("offer"), 4);
        assert_eq!(trace.items("offer"), 1000);
        assert!(trace.spans.iter().all(|s| s.trial == 3));
        // gen and offer alternate without overlap.
        let mut by_start: Vec<&Span> = trace.spans.iter().collect();
        by_start.sort_by_key(|s| s.start_ns);
        for pair in by_start.windows(2) {
            assert!(pair[0].end_ns <= pair[1].start_ns);
        }
    }

    #[test]
    fn chrome_json_is_loadable_and_capped() {
        let trace = Trace::from_spans(
            (0..(TRACE_FILE_SPANS as u64 + 10))
                .map(|i| span("gen", 0, i * 10, i * 10 + 5))
                .collect(),
        );
        let v = trace.to_chrome_json("unit");
        let text = v.to_string();
        let back = json::Value::parse(&text).expect("valid JSON");
        let events = back["traceEvents"].as_array().expect("array");
        assert_eq!(events.len(), TRACE_FILE_SPANS + 1);
        assert_eq!(events[1]["ph"].as_str(), Some("X"));
        assert_eq!(
            back["otherData"]["spans_recorded"].as_u64(),
            Some(TRACE_FILE_SPANS as u64 + 10)
        );
    }
}
