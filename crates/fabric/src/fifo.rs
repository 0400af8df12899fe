//! Bounded FIFOs with occupancy statistics.
//!
//! Every clock-domain or rate boundary in the module (interface → PPE,
//! the Two-Way-Core aggregator, the control-plane injection path) buffers
//! through a FIFO whose depth is a real hardware resource. The model
//! tracks high-water marks and overflow drops so experiments can report
//! where loss occurs when a shell is overdriven.

/// A bounded FIFO over items of type `T`.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: std::collections::VecDeque<T>,
    capacity: usize,
    stats: FifoStats,
}

/// Occupancy and loss statistics of a [`Fifo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoStats {
    /// Total successful pushes.
    pub pushed: u64,
    /// Total pops.
    pub popped: u64,
    /// Pushes rejected because the FIFO was full.
    pub overflows: u64,
    /// Maximum occupancy ever observed.
    pub high_water: usize,
}

impl<T> Fifo<T> {
    /// A FIFO holding up to `capacity` items. Panics on zero capacity.
    pub fn new(capacity: usize) -> Fifo<T> {
        assert!(capacity > 0, "FIFO capacity must be non-zero");
        Fifo {
            items: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            stats: FifoStats::default(),
        }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when full (the next push would drop).
    pub(crate) fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Push an item; on overflow the item is returned in `Err` and
    /// counted as a drop.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            self.stats.overflows += 1;
            return Err(item);
        }
        self.items.push_back(item);
        self.stats.pushed += 1;
        self.stats.high_water = self.stats.high_water.max(self.items.len());
        Ok(())
    }

    /// Pop the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.stats.popped += 1;
        }
        item
    }

    /// Peek at the oldest item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> FifoStats {
        self.stats
    }

    /// Drop all contents (items are lost, not counted as overflows).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_preserved() {
        let mut f = Fifo::new(4);
        for i in 0..4 {
            f.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(f.pop(), Some(i));
        }
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn overflow_returns_item_and_counts() {
        let mut f = Fifo::new(2);
        f.push("a").unwrap();
        f.push("b").unwrap();
        assert_eq!(f.push("c"), Err("c"));
        assert_eq!(f.stats().overflows, 1);
        assert_eq!(f.stats().pushed, 2);
        assert!(f.is_full());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut f = Fifo::new(8);
        for i in 0..5 {
            f.push(i).unwrap();
        }
        for _ in 0..5 {
            f.pop();
        }
        f.push(9).unwrap();
        assert_eq!(f.stats().high_water, 5);
        assert_eq!(f.stats().popped, 5);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut f = Fifo::new(2);
        f.push(7).unwrap();
        assert_eq!(f.peek(), Some(&7));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(7));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Fifo::<u8>::new(0);
    }
}
