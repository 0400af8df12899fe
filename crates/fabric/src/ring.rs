//! Bounded single-producer/single-consumer rings that move chunks.
//!
//! The sharded dataplane hands packets from the dispatcher core to the
//! worker cores, and outputs back, over exactly this structure: a
//! fixed-depth ring, one writer, one reader. What crosses it is never
//! an item but a *chunk* — a whole `Vec<T>` of messages the producer
//! staged — so the cost of a crossing is paid once per chunk, however
//! many messages it carries.
//!
//! # What a slot is
//!
//! A slot is one `Mutex<Vec<T>>`, and it holds one chunk or an empty
//! vector. [`Producer::push_slice`] *swaps* the caller's full vector
//! for the slot's empty one; [`Consumer::pop_chunk`] swaps it out again
//! for the caller's empty one. Nothing is copied per item: a crossing
//! is one lock, one three-word swap and one position publish per end.
//! The monotone `head`/`tail` counters count chunks, and `capacity`
//! (the argument of [`channel`]) is the number of chunks the ring can
//! hold, not the number of items; a chunk is as long as the producer
//! made it.
//!
//! # Why the lock is uncontended
//!
//! The workspace forbids `unsafe`, so instead of the classic
//! raw-slot/`UnsafeCell` construction each slot sits behind a `Mutex`.
//! The counters alone decide who may touch a slot — the producer
//! writes slot `tail` only while `tail - head < capacity`, the consumer
//! reads slot `head` only while `head < tail` — so the two ends never
//! hold the same slot's lock at once and every `lock()` is an
//! uncontended atomic exchange. Each end keeps a private copy of its
//! own position and a cached snapshot of the other end's, refreshed
//! with an `Acquire` load only when the ring looks full (producer) or
//! empty (consumer).
//!
//! # Where buffers come from and go
//!
//! The ring allocates nothing but its slot array: every slot starts as
//! an unallocated `Vec`. Buffers enter from the callers. On its first
//! lap the producer receives those unallocated vectors back from
//! `push_slice` and sizes them as it sees fit; from then on it
//! receives the buffers the consumer swapped in, so a ring of depth
//! `d` settles on `d + 2` buffers (one per slot, one in each caller's
//! hands) that circulate for as long as it lives. The consumer only
//! swaps when its buffer is empty and the chunk fits its `max`;
//! otherwise it drains the front of the chunk in place and the slot
//! keeps its buffer.
//!
//! Ends are typed: [`channel`] returns a [`Producer`]/[`Consumer`]
//! pair, neither clonable, both `Send`, so the single-producer/
//! single-consumer discipline is enforced at compile time. Backpressure
//! is explicit: a full ring moves nothing and returns 0, leaving the
//! caller's chunk untouched to retry. Dropping the producer marks the
//! ring closed ([`Consumer::is_closed`]), which is how each side of
//! the dataplane learns that the thread at the other end is gone.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shared state behind one ring: the slot array and the monotone
/// position counters. `head`/`tail` count *chunks* — the slot index is
/// `position % capacity` — so full (`tail - head == capacity`) and
/// empty (`tail == head`) are unambiguous without a wasted slot. A
/// slot outside `[head, tail)` holds an empty vector.
struct Shared<T> {
    slots: Box<[Mutex<Vec<T>>]>,
    /// Next position to pop; owned by the consumer, read by the producer.
    head: AtomicUsize,
    /// Next position to push; owned by the producer, read by the consumer.
    tail: AtomicUsize,
    /// Set when the producer end is dropped.
    closed: AtomicBool,
}

/// Create a bounded SPSC ring holding up to `capacity` chunks.
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be nonzero");
    let shared = Arc::new(Shared {
        slots: (0..capacity).map(|_| Mutex::new(Vec::new())).collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

/// The write end of a ring. Not clonable: exactly one producer exists.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Private copy of the shared `tail` (this end is its only writer).
    tail: usize,
    /// Last observed consumer `head`; refreshed (Acquire) only when the
    /// ring looks full, so steady-state pushes skip the atomic load.
    /// It can only under-report free slots, never over-report.
    head_cache: usize,
}

impl<T> Producer<T> {
    /// Move the whole of `items` into the ring as one chunk and return
    /// its length, leaving `items` an empty vector to stage the next
    /// chunk in — on the first lap an unallocated one, afterwards a
    /// buffer the consumer handed back. Returns 0 and leaves `items`
    /// untouched when it is empty or the ring is full; the caller
    /// decides whether to spin, yield, or drop.
    pub fn push_slice(&mut self, items: &mut Vec<T>) -> usize {
        if items.is_empty() {
            return 0;
        }
        let s = &*self.shared;
        let cap = s.slots.len();
        if self.tail.wrapping_sub(self.head_cache) == cap {
            // Acquire pairs with the consumer's Release store of
            // `head`: once we observe a slot as vacated, the consumer's
            // swap out of it has happened-before our swap in.
            self.head_cache = s.head.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) == cap {
                return 0;
            }
        }
        let n = items.len();
        std::mem::swap(
            &mut *s.slots[self.tail % cap].lock().expect("ring slot lock"),
            items,
        );
        debug_assert!(items.is_empty(), "a vacant slot holds an empty vector");
        self.tail = self.tail.wrapping_add(1);
        // Release publishes the slot write to the consumer's Acquire
        // load of `tail`.
        s.tail.store(self.tail, Ordering::Release);
        n
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Release orders every prior push before the closed flag, so a
        // consumer that observes `closed` and then drains sees all of
        // them.
        self.shared.closed.store(true, Ordering::Release);
    }
}

/// The read end of a ring. Not clonable: exactly one consumer exists.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Private copy of the shared `head` (this end is its only writer).
    head: usize,
    /// Last observed producer `tail`; refreshed (Acquire) only when the
    /// ring looks empty, so steady-state pops skip the atomic load.
    tail_cache: usize,
}

impl<T> Consumer<T> {
    /// Append up to `max` items from the front of the oldest chunk to
    /// `out`, preserving order, and return how many (0 when the ring
    /// is empty). One call never crosses a chunk boundary. When `out`
    /// is empty and the whole chunk fits `max`, the chunk's buffer is
    /// swapped for `out`'s and no item moves; otherwise the items are
    /// drained across and the slot is released once the chunk is used
    /// up.
    pub fn pop_chunk(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let s = &*self.shared;
        if self.tail_cache == self.head {
            // Acquire pairs with the producer's Release store of `tail`.
            self.tail_cache = s.tail.load(Ordering::Acquire);
            if self.tail_cache == self.head {
                return 0;
            }
        }
        let mut chunk = s.slots[self.head % s.slots.len()]
            .lock()
            .expect("ring slot lock");
        let n = chunk.len().min(max);
        if out.is_empty() && n == chunk.len() {
            std::mem::swap(&mut *chunk, out);
        } else {
            out.extend(chunk.drain(..n));
        }
        if chunk.is_empty() {
            drop(chunk);
            self.head = self.head.wrapping_add(1);
            // Release hands the vacated slot back to the producer.
            s.head.store(self.head, Ordering::Release);
        }
        n
    }

    /// True once the producer end has been dropped. Read it *before*
    /// draining: every chunk pushed before the drop is then visible to
    /// the [`pop_chunk`](Self::pop_chunk) calls that follow, so an
    /// empty ring after a `true` is the end of the stream.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn empty_ring_pops_nothing() {
        let (_p, mut c) = channel::<u32>(4);
        let mut out = vec![7];
        assert_eq!(c.pop_chunk(&mut out, 64), 0);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn full_ring_hands_the_chunk_back_untouched() {
        let (mut p, mut c) = channel::<u32>(2);
        assert_eq!(p.push_slice(&mut vec![1, 2, 3]), 3);
        assert_eq!(p.push_slice(&mut vec![4]), 1);
        // Capacity counts chunks, not items: two chunks fill the ring.
        let mut refused = vec![5, 6];
        assert_eq!(p.push_slice(&mut refused), 0);
        assert_eq!(refused, vec![5, 6]);
        // Draining one chunk re-admits exactly one push.
        let mut out = Vec::new();
        assert_eq!(c.pop_chunk(&mut out, 64), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(p.push_slice(&mut refused), 2);
        assert!(refused.is_empty());
        assert_eq!(p.push_slice(&mut vec![7]), 0);
        // Empty pushes are free no-ops, full ring or not.
        assert_eq!(p.push_slice(&mut Vec::new()), 0);
    }

    #[test]
    fn buffers_circulate_instead_of_being_copied() {
        let (mut p, mut c) = channel::<u64>(1);
        let mut staged: Vec<u64> = Vec::with_capacity(64);
        let mut out: Vec<u64> = Vec::with_capacity(32);
        staged.extend(0..10);
        let sent = staged.as_ptr();
        assert_eq!(p.push_slice(&mut staged), 10);
        // First lap: the slot's own vector comes back, unallocated.
        assert_eq!(staged.capacity(), 0);
        let spare = out.as_ptr();
        assert_eq!(c.pop_chunk(&mut out, 64), 10);
        assert_eq!(out.as_ptr(), sent, "the chunk's buffer itself moved");
        // Second lap: the producer gets the consumer's old buffer.
        staged.push(10);
        assert_eq!(p.push_slice(&mut staged), 1);
        assert_eq!(staged.as_ptr(), spare);
        assert!(staged.is_empty() && staged.capacity() >= 32);
    }

    #[test]
    fn pop_chunk_drains_when_it_cannot_swap() {
        let (mut p, mut c) = channel::<u32>(2);
        assert_eq!(p.push_slice(&mut (0..6).collect()), 6);
        assert_eq!(p.push_slice(&mut vec![6]), 1);
        // Chunk longer than `max`: front-drained over two calls, and the
        // slot stays occupied in between.
        let mut out = Vec::new();
        assert_eq!(c.pop_chunk(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(p.push_slice(&mut vec![9]), 0, "still two chunks queued");
        // Non-empty caller buffer: appended to, never replaced; the
        // call stops at the chunk boundary.
        assert_eq!(c.pop_chunk(&mut out, 4), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(c.pop_chunk(&mut out, 4), 1);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(c.pop_chunk(&mut out, 0), 0);
        assert_eq!(c.pop_chunk(&mut out, 4), 0);
    }

    #[test]
    fn close_is_visible_after_drop_and_after_the_last_chunk() {
        let (mut p, mut c) = channel::<String>(2);
        assert!(!c.is_closed());
        p.push_slice(&mut vec![String::from("alpha"), String::from("beta")]);
        drop(p);
        assert!(c.is_closed());
        let mut out = Vec::new();
        assert_eq!(c.pop_chunk(&mut out, 64), 2);
        assert_eq!(out, ["alpha", "beta"]);
        assert_eq!(c.pop_chunk(&mut out, 64), 0);
    }

    /// One call on one end of the ring, as the schedule enumerator
    /// issues it.
    #[derive(Clone, Copy, Debug)]
    enum Call {
        /// `push_slice` of a chunk this long.
        Push(usize),
        /// `pop_chunk(out, MAX)` with `out` empty or holding one item.
        Pop { out_empty: bool },
    }

    /// The `max` every enumerated `pop_chunk` passes.
    const MAX: usize = 3;
    /// Marks the item a non-empty caller buffer starts with.
    const SENTINEL: u64 = u64::MAX;

    /// Replay `schedule` on a fresh ring of `depth` chunks beside the
    /// obvious model — a bounded `VecDeque` of chunks — comparing every
    /// return value and every caller buffer, then drain both and check
    /// that each pushed item came out exactly once, in order.
    fn replay(depth: usize, schedule: &[Call]) {
        let (mut p, mut c) = channel::<u64>(depth);
        let mut model: VecDeque<VecDeque<u64>> = VecDeque::new();
        let mut next = 0u64;
        let mut expect = 0u64;
        let mut check_order = |out: &[u64]| {
            for &v in out.iter().filter(|&&v| v != SENTINEL) {
                assert_eq!(v, expect, "lost or reordered in {schedule:?}");
                expect += 1;
            }
        };
        for (step, call) in schedule.iter().enumerate() {
            let ctx = || format!("depth {depth}, step {step} of {schedule:?}");
            match *call {
                Call::Push(len) => {
                    let mut items: Vec<u64> = (next..next + len as u64).collect();
                    let moved = p.push_slice(&mut items);
                    if len == 0 || model.len() == depth {
                        assert_eq!(moved, 0, "{}", ctx());
                        assert_eq!(items.len(), len, "refused chunk changed: {}", ctx());
                    } else {
                        assert_eq!(moved, len, "{}", ctx());
                        assert!(items.is_empty(), "{}", ctx());
                        model.push_back((next..next + len as u64).collect());
                        next += len as u64;
                    }
                }
                Call::Pop { out_empty } => {
                    let mut out = if out_empty { vec![] } else { vec![SENTINEL] };
                    let mut want = out.clone();
                    if let Some(chunk) = model.front_mut() {
                        want.extend(chunk.drain(..chunk.len().min(MAX)));
                        if chunk.is_empty() {
                            model.pop_front();
                        }
                    }
                    let got = c.pop_chunk(&mut out, MAX);
                    assert_eq!(got, want.len() - usize::from(!out_empty), "{}", ctx());
                    assert_eq!(out, want, "{}", ctx());
                    check_order(&out);
                }
            }
        }
        // A pop that finds anything takes at least one item, so `next`
        // of them empty the ring (a bounded loop: a ring that never
        // empties must fail this test, not hang it).
        let mut out = Vec::new();
        for _ in 0..next {
            c.pop_chunk(&mut out, MAX);
        }
        assert_eq!(c.pop_chunk(&mut out, MAX), 0, "{schedule:?}");
        check_order(&out);
        assert_eq!(expect, next, "items left behind by {schedule:?}");
    }

    /// The slot type's safety net: every interleaving of producer and
    /// consumer calls up to `DEPTH` calls long — chunk lengths 0, 1,
    /// `max` and `max + 1`, caller buffer empty and not, ring depths 1
    /// to 3 — agrees with the model on order, loss, return values and
    /// the full and empty edges.
    #[test]
    fn every_short_call_schedule_matches_the_model() {
        const CALLS: [Call; 6] = [
            Call::Push(0),
            Call::Push(1),
            Call::Push(MAX),
            Call::Push(MAX + 1),
            Call::Pop { out_empty: true },
            Call::Pop { out_empty: false },
        ];
        const DEPTH: u32 = 7;
        for depth in 1..=3 {
            for code in 0..CALLS.len().pow(DEPTH) {
                let schedule: Vec<Call> = (0..DEPTH)
                    .map(|i| CALLS[code / CALLS.len().pow(i) % CALLS.len()])
                    .collect();
                replay(depth, &schedule);
            }
        }
    }

    /// Two-thread stress: the producer moves 10^6 items in seeded
    /// variable-size chunks, the consumer pops under a seeded variable
    /// `max` (so it both swaps and drains); everything arrives complete
    /// and in order.
    #[test]
    fn spsc_chunk_stress_no_loss_no_reorder() {
        use flexsfp_traffic::rng::Xoshiro256;

        const ITEMS: u64 = 1_000_000;
        let (mut p, mut c) = channel::<u64>(8);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(0xa11);
                let mut staged: Vec<u64> = Vec::new();
                let mut next = 0u64;
                while next < ITEMS || !staged.is_empty() {
                    while staged.len() < (1 + rng.next_u64() % 48) as usize && next < ITEMS {
                        staged.push(next);
                        next += 1;
                    }
                    if p.push_slice(&mut staged) == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            let mut rng = Xoshiro256::seed_from_u64(0xb22);
            let mut out: Vec<u64> = Vec::new();
            let mut expect = 0u64;
            while expect < ITEMS {
                let max = (1 + rng.next_u64() % 96) as usize;
                if c.pop_chunk(&mut out, max) == 0 {
                    std::thread::yield_now();
                }
                for v in out.drain(..) {
                    assert_eq!(v, expect, "reordered or lost item");
                    expect += 1;
                }
            }
            assert_eq!(c.pop_chunk(&mut out, 64), 0);
        });
    }
}
