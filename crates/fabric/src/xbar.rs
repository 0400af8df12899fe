//! The crosspoint-queued crossbar matrix (FlexCross-style).
//!
//! A classic input-queued switch suffers head-of-line blocking: one
//! congested output stalls every frame behind it in the input FIFO. The
//! crosspoint-queued (CQ) organisation — one small bounded FIFO per
//! (input, output) pair — removes that coupling entirely: input *i* can
//! keep sending to output *b* while its queue toward output *a* is full,
//! and each output arbitrates round-robin over its own column of
//! crosspoints, independent of every other output.
//!
//! This module is the geometry and arbitration only; it is generic over
//! the queued item so the host layer can queue timestamped frames while
//! unit tests queue integers. Buffering reuses [`crate::fifo::Fifo`],
//! so per-crosspoint occupancy, high-water and overflow statistics come
//! for free and flow into the `flexsfp_xbar_*` telemetry family.
//!
//! An arbiter in hardware does not visit its column's queues: each
//! crosspoint raises a valid bit and a priority encoder picks the first
//! one at or after the round-robin pointer. The model does the same.
//! Per output it keeps one bit per input whose crosspoint holds an item
//! (a `u64` per 64 inputs) and a count of the items in the column, so
//! an empty column is refused on the count alone, a grant is a
//! `trailing_zeros` over at most a column's words plus one, and
//! occupancy is read, never summed. A call costs what it moves, not
//! what the matrix could hold.

use crate::fifo::{Fifo, FifoStats};

/// Aggregate counters across the whole matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XbarTotals {
    /// Items accepted into some crosspoint queue.
    pub enqueued: u64,
    /// Items rejected because their crosspoint queue was full.
    pub dropped: u64,
    /// Items granted (popped) by output arbitration.
    pub granted: u64,
    /// Deepest occupancy any single crosspoint ever reached.
    pub high_water: usize,
}

/// An N×N matrix of bounded crosspoint queues with per-output
/// round-robin arbitration.
#[derive(Debug, Clone)]
pub struct CrosspointMatrix<T> {
    ports: usize,
    /// Row-major: the queue from `input` to `output` lives at
    /// `input * ports + output`.
    queues: Vec<Fifo<T>>,
    /// Per-output round-robin pointer: the next input examined first.
    rr_next: Vec<usize>,
    /// Per-output grant counters.
    grants: Vec<u64>,
    /// Per output, `words` consecutive `u64`s: bit `input % 64` of word
    /// `input / 64` is set exactly while that crosspoint holds an item.
    valid: Vec<u64>,
    /// `u64`s per column of `valid`.
    words: usize,
    /// Items queued toward each output.
    column_len: Vec<usize>,
    /// Items queued anywhere.
    occupancy: usize,
}

/// The first set bit of `column` at or after bit `start`, wrapping past
/// the column's end once: the order a scan `start, start + 1, …` over
/// the inputs visits them in. `None` when no bit is set.
fn first_valid_from(column: &[u64], start: usize) -> Option<usize> {
    let (start_word, start_bit) = (start / 64, start % 64);
    let at_or_after = !0u64 << start_bit;
    // The start word's upper part, every other word in order, and last
    // the start word's lower part.
    let upper = column[start_word] & at_or_after;
    if upper != 0 {
        return Some(start_word * 64 + upper.trailing_zeros() as usize);
    }
    for step in 1..=column.len() {
        let word = (start_word + step) % column.len();
        let bits = if step == column.len() {
            column[word] & !at_or_after
        } else {
            column[word]
        };
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
    }
    None
}

impl<T> CrosspointMatrix<T> {
    /// An N×N matrix with `depth` slots per crosspoint. Panics when
    /// `ports` or `depth` is zero.
    pub fn new(ports: usize, depth: usize) -> CrosspointMatrix<T> {
        assert!(ports > 0, "crossbar needs at least one port");
        let words = ports.div_ceil(64);
        CrosspointMatrix {
            ports,
            queues: (0..ports * ports).map(|_| Fifo::new(depth)).collect(),
            rr_next: vec![0; ports],
            grants: vec![0; ports],
            valid: vec![0; ports * words],
            words,
            column_len: vec![0; ports],
            occupancy: 0,
        }
    }

    /// Port count (the matrix is square).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Slots per crosspoint queue.
    pub fn depth(&self) -> usize {
        self.queues[0].capacity()
    }

    #[inline]
    fn idx(&self, input: usize, output: usize) -> usize {
        debug_assert!(input < self.ports && output < self.ports);
        input * self.ports + output
    }

    /// Where the (input, output) crosspoint's valid bit lives: the word
    /// of `valid` and the bit in it.
    #[inline]
    fn valid_bit(&self, input: usize, output: usize) -> (usize, u64) {
        (output * self.words + input / 64, 1 << (input % 64))
    }

    /// Offer an item to the (input, output) crosspoint. On overflow the
    /// item comes back in `Err` and the crosspoint counts the drop.
    pub fn offer(&mut self, input: usize, output: usize, item: T) -> Result<(), T> {
        let i = self.idx(input, output);
        self.queues[i].push(item)?;
        let (word, bit) = self.valid_bit(input, output);
        self.valid[word] |= bit;
        self.column_len[output] += 1;
        self.occupancy += 1;
        Ok(())
    }

    /// Grant one item toward `output`: round-robin over the output's
    /// column starting after the last granted input. Returns the
    /// granted input and the item, or `None` when the column is empty.
    pub fn arbitrate(&mut self, output: usize) -> Option<(usize, T)> {
        if self.column_len[output] == 0 {
            return None;
        }
        let column = output * self.words..(output + 1) * self.words;
        let input = first_valid_from(&self.valid[column], self.rr_next[output])
            .expect("a column that counts an item has a valid bit set");
        let i = self.idx(input, output);
        let item = self.queues[i]
            .pop()
            .expect("a valid bit marks a crosspoint that holds an item");
        if self.queues[i].is_empty() {
            let (word, bit) = self.valid_bit(input, output);
            self.valid[word] &= !bit;
        }
        self.column_len[output] -= 1;
        self.occupancy -= 1;
        self.rr_next[output] = (input + 1) % self.ports;
        self.grants[output] += 1;
        Some((input, item))
    }

    /// Items queued toward `output` across all inputs.
    pub fn column_len(&self, output: usize) -> usize {
        self.column_len[output]
    }

    /// Items queued anywhere in the matrix.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Lifetime statistics of one crosspoint queue.
    pub fn crosspoint_stats(&self, input: usize, output: usize) -> FifoStats {
        self.queues[self.idx(input, output)].stats()
    }

    /// Lifetime grants issued by `output`'s arbiter.
    pub fn grants(&self, output: usize) -> u64 {
        self.grants[output]
    }

    /// Aggregate counters across every crosspoint.
    pub fn totals(&self) -> XbarTotals {
        let mut t = XbarTotals::default();
        for q in &self.queues {
            let s = q.stats();
            t.enqueued += s.pushed;
            t.dropped += s.overflows;
            t.high_water = t.high_water.max(s.high_water);
        }
        t.granted = self.grants.iter().sum();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair_across_inputs() {
        let mut m: CrosspointMatrix<usize> = CrosspointMatrix::new(4, 8);
        // Inputs 0, 1, 2 each queue four items toward output 3.
        for input in 0..3 {
            for k in 0..4 {
                m.offer(input, 3, input * 10 + k).unwrap();
            }
        }
        // Grants must interleave 0, 1, 2, 0, 1, 2, … — not drain one
        // input before touching the next.
        let order: Vec<usize> = (0..12).map(|_| m.arbitrate(3).unwrap().0).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
        assert_eq!(m.grants(3), 12);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn rr_pointer_starts_after_last_grant() {
        let mut m: CrosspointMatrix<u8> = CrosspointMatrix::new(3, 4);
        m.offer(2, 0, b'c').unwrap();
        assert_eq!(m.arbitrate(0), Some((2, b'c')));
        // Pointer wrapped past input 2; a lone item from input 2 is
        // still found after scanning 0 and 1.
        m.offer(2, 0, b'd').unwrap();
        assert_eq!(m.arbitrate(0), Some((2, b'd')));
        assert_eq!(m.arbitrate(0), None);
    }

    #[test]
    fn full_crosspoint_does_not_block_other_outputs() {
        let mut m: CrosspointMatrix<u32> = CrosspointMatrix::new(2, 1);
        // Input 0 → output 0 is full…
        m.offer(0, 0, 1).unwrap();
        assert!(m.offer(0, 0, 2).is_err());
        // …but input 0 → output 1 still accepts: no HOL coupling.
        m.offer(0, 1, 3).unwrap();
        assert_eq!(m.arbitrate(1), Some((0, 3)));
        assert_eq!(m.crosspoint_stats(0, 0).overflows, 1);
        assert_eq!(m.crosspoint_stats(0, 1).overflows, 0);
    }

    #[test]
    fn totals_aggregate_per_crosspoint_counters() {
        let mut m: CrosspointMatrix<u32> = CrosspointMatrix::new(2, 2);
        for k in 0..3 {
            let _ = m.offer(0, 1, k); // third push overflows
        }
        m.offer(1, 0, 9).unwrap();
        m.arbitrate(1).unwrap();
        let t = m.totals();
        assert_eq!(t.enqueued, 3);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.granted, 1);
        assert_eq!(t.high_water, 2);
        assert_eq!(m.occupancy(), 2);
        assert_eq!(m.column_len(1), 1);
        assert_eq!(m.column_len(0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = CrosspointMatrix::<u8>::new(0, 4);
    }
}
