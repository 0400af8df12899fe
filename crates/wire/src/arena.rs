//! Reusable frame-buffer pool.
//!
//! [`PacketArena`] hands out fixed-capacity `Vec<u8>` frame buffers and takes
//! them back once a packet leaves the simulation, so a streaming run touches
//! a handful of buffers instead of allocating one per packet. The arena is a
//! cheap clonable handle (internally reference-counted) intended to live on
//! one worker thread; parallel sweeps create one arena per worker.
//!
//! The lease/recycle contract is advisory: a leased buffer is a plain
//! `Vec<u8>` and may simply be dropped, in which case the arena allocates a
//! fresh buffer on the next lease. Recycling a buffer that grew beyond the
//! arena's frame capacity keeps it (capacity is the *minimum* kept), while
//! buffers that were shrunk below it are discarded rather than pooled, so the
//! steady state is a small set of full-size buffers.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Default per-buffer capacity: a full 1514-byte Ethernet frame (no FCS)
/// rounded up to a friendly power-of-two-ish size with headroom for an
/// encapsulation header or a VLAN tag.
pub const DEFAULT_FRAME_CAPACITY: usize = 1536;

#[derive(Debug, Default)]
struct ArenaStats {
    leases: Cell<u64>,
    allocations: Cell<u64>,
    recycles: Cell<u64>,
    discards: Cell<u64>,
}

#[derive(Debug)]
struct ArenaInner {
    free: RefCell<Vec<Vec<u8>>>,
    frame_capacity: usize,
    stats: ArenaStats,
}

/// A pool of reusable frame buffers (see the module docs for the contract).
#[derive(Debug, Clone)]
pub struct PacketArena {
    inner: Rc<ArenaInner>,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketArena {
    /// An empty arena with the [`DEFAULT_FRAME_CAPACITY`].
    pub fn new() -> Self {
        Self::with_frame_capacity(DEFAULT_FRAME_CAPACITY)
    }

    /// An empty arena whose leased buffers reserve `frame_capacity` bytes.
    pub fn with_frame_capacity(frame_capacity: usize) -> Self {
        PacketArena {
            inner: Rc::new(ArenaInner {
                free: RefCell::new(Vec::new()),
                frame_capacity,
                stats: ArenaStats::default(),
            }),
        }
    }

    /// Capacity reserved in each freshly allocated buffer.
    pub fn frame_capacity(&self) -> usize {
        self.inner.frame_capacity
    }

    /// Lease an empty buffer: pooled if available, freshly allocated
    /// otherwise. The returned vector has `len() == 0` and at least
    /// [`frame_capacity`](Self::frame_capacity) spare capacity.
    pub fn lease(&self) -> Vec<u8> {
        let s = &self.inner.stats;
        s.leases.set(s.leases.get() + 1);
        if let Some(buf) = self.inner.free.borrow_mut().pop() {
            return buf;
        }
        s.allocations.set(s.allocations.get() + 1);
        Vec::with_capacity(self.inner.frame_capacity)
    }

    /// Return a buffer to the pool. The buffer is cleared; it is kept only
    /// if its capacity still covers a full frame, otherwise it is dropped
    /// (and counted as a discard).
    pub fn recycle(&self, mut buf: Vec<u8>) {
        let s = &self.inner.stats;
        if buf.capacity() < self.inner.frame_capacity {
            s.discards.set(s.discards.get() + 1);
            return;
        }
        buf.clear();
        s.recycles.set(s.recycles.get() + 1);
        self.inner.free.borrow_mut().push(buf);
    }

    /// Buffers currently sitting in the pool.
    pub fn pooled(&self) -> usize {
        self.inner.free.borrow().len()
    }

    /// Total leases served (pooled + freshly allocated).
    pub fn leases(&self) -> u64 {
        self.inner.stats.leases.get()
    }

    /// Fresh heap allocations performed — the O(1)-memory witness: a
    /// streaming run that recycles every frame keeps this at the number of
    /// buffers simultaneously in flight, independent of trace length.
    pub fn allocations(&self) -> u64 {
        self.inner.stats.allocations.get()
    }

    /// Buffers successfully returned to the pool.
    pub fn recycles(&self) -> u64 {
        self.inner.stats.recycles.get()
    }

    /// Buffers rejected at recycle time for having lost their capacity.
    pub fn discards(&self) -> u64 {
        self.inner.stats.discards.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_recycle_reuses_buffer() {
        let arena = PacketArena::new();
        let mut a = arena.lease();
        a.extend_from_slice(&[1, 2, 3]);
        let ptr = a.as_ptr();
        arena.recycle(a);
        assert_eq!(arena.pooled(), 1);
        let b = arena.lease();
        assert_eq!(b.as_ptr(), ptr, "recycled buffer must be handed back");
        assert!(b.is_empty(), "recycled buffer must be cleared");
        assert!(b.capacity() >= DEFAULT_FRAME_CAPACITY);
        assert_eq!(arena.allocations(), 1);
        assert_eq!(arena.leases(), 2);
    }

    #[test]
    fn steady_state_allocations_are_bounded() {
        let arena = PacketArena::new();
        for _ in 0..10_000 {
            let mut f = arena.lease();
            f.resize(60, 0xab);
            arena.recycle(f);
        }
        assert_eq!(arena.allocations(), 1, "one in-flight frame => one alloc");
        assert_eq!(arena.leases(), 10_000);
        assert_eq!(arena.recycles(), 10_000);
    }

    #[test]
    fn undersized_buffers_are_discarded() {
        let arena = PacketArena::with_frame_capacity(256);
        arena.recycle(Vec::with_capacity(16));
        assert_eq!(arena.pooled(), 0);
        assert_eq!(arena.discards(), 1);
        // Oversized buffers are fine: capacity is a minimum.
        arena.recycle(Vec::with_capacity(4096));
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn clones_share_the_pool() {
        let arena = PacketArena::new();
        let handle = arena.clone();
        handle.recycle(arena.lease());
        assert_eq!(arena.pooled(), 1);
        assert_eq!(arena.leases(), 1);
    }
}
