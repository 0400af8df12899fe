//! Reusable frame-buffer pool.
//!
//! [`PacketArena`] hands out `Vec<u8>` frame buffers in two size classes and
//! takes them back once a packet leaves the simulation, so a streaming run
//! touches a handful of buffers instead of allocating one per packet. A
//! minimum-size frame leases 128 B, any other frame [`DEFAULT_FRAME_CAPACITY`].
//! The arena is a cheap clonable handle (internally reference-counted) for
//! one thread; parallel sweeps create one arena per worker.
//!
//! The contract is advisory: a leased buffer is a plain `Vec<u8>` and may be
//! dropped. A recycled buffer joins the largest class its capacity meets, and
//! the pools never hold more buffers than the arena has made, so frames built
//! elsewhere cannot grow them.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Capacity of the full class: a 1514-byte Ethernet frame (no FCS) rounded
/// up, with headroom for an encapsulation header or a VLAN tag.
pub const DEFAULT_FRAME_CAPACITY: usize = 1536;

/// Capacity of the small class: a frame of at most [`SMALL_FRAME_MAX`]
/// bytes plus 64 B of headroom, enough for a QinQ push or a VXLAN encap.
const SMALL_FRAME_CAPACITY: usize = 128;

/// Longest frame [`PacketArena::lease_for`] serves from the small class.
const SMALL_FRAME_MAX: usize = 64;

#[derive(Debug, Default)]
struct ArenaStats {
    leases: Cell<u64>,
    allocations: Cell<u64>,
    recycles: Cell<u64>,
    discards: Cell<u64>,
}

/// One free list per class, each holding buffers whose capacity meets it.
#[derive(Debug, Default)]
struct Pools {
    small: Vec<Vec<u8>>,
    full: Vec<Vec<u8>>,
}

#[derive(Debug, Default)]
struct ArenaInner {
    pools: RefCell<Pools>,
    stats: ArenaStats,
}

/// A pool of reusable frame buffers (see the module docs for the contract).
#[derive(Debug, Clone, Default)]
pub struct PacketArena {
    inner: Rc<ArenaInner>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease an empty full-class buffer: `len() == 0` and at least
    /// [`DEFAULT_FRAME_CAPACITY`] spare capacity.
    pub fn lease(&self) -> Vec<u8> {
        self.lease_class(false)
    }

    /// Lease an empty buffer for a `len`-byte frame: the small class for a
    /// minimum-size frame, the full class otherwise.
    pub fn lease_for(&self, len: usize) -> Vec<u8> {
        self.lease_class(len <= SMALL_FRAME_MAX)
    }

    /// Pooled if available, freshly allocated otherwise.
    fn lease_class(&self, small: bool) -> Vec<u8> {
        let s = &self.inner.stats;
        s.leases.set(s.leases.get() + 1);
        let mut pools = self.inner.pools.borrow_mut();
        let (pool, capacity) = if small {
            (&mut pools.small, SMALL_FRAME_CAPACITY)
        } else {
            (&mut pools.full, DEFAULT_FRAME_CAPACITY)
        };
        if let Some(buf) = pool.pop() {
            return buf;
        }
        s.allocations.set(s.allocations.get() + 1);
        Vec::with_capacity(capacity)
    }

    /// Return a buffer to the pool of the largest class its capacity
    /// meets, cleared. It is dropped (and counted as a discard) below the
    /// small class, or once as many buffers have come back as the arena
    /// lent, so the pools never hold more buffers than it has made.
    pub fn recycle(&self, mut buf: Vec<u8>) {
        let s = &self.inner.stats;
        if buf.capacity() < SMALL_FRAME_CAPACITY || s.recycles.get() >= s.leases.get() {
            s.discards.set(s.discards.get() + 1);
            return;
        }
        buf.clear();
        s.recycles.set(s.recycles.get() + 1);
        let mut pools = self.inner.pools.borrow_mut();
        if buf.capacity() >= DEFAULT_FRAME_CAPACITY {
            pools.full.push(buf);
        } else {
            pools.small.push(buf);
        }
    }

    /// Buffers currently sitting in the pools.
    pub fn pooled(&self) -> usize {
        let pools = self.inner.pools.borrow();
        pools.small.len() + pools.full.len()
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

    /// Buffers dropped at recycle time: below the small class, or beyond
    /// the buffers the arena has made.
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
        let arena = PacketArena::new();
        let (small, full) = (arena.lease_for(60), arena.lease());
        arena.recycle(Vec::with_capacity(SMALL_FRAME_CAPACITY - 1));
        assert_eq!(arena.discards(), 1);
        arena.recycle(full);
        arena.recycle(small);
        assert_eq!(arena.pooled(), 2);
        // Each class hands back its own buffer.
        assert_eq!(
            arena.lease_for(SMALL_FRAME_MAX + 1).capacity(),
            DEFAULT_FRAME_CAPACITY
        );
        assert_eq!(
            arena.lease_for(SMALL_FRAME_MAX).capacity(),
            SMALL_FRAME_CAPACITY
        );
        assert_eq!(arena.allocations(), 2);
    }

    #[test]
    fn a_sink_that_never_leased_keeps_nothing() {
        // The rack's sink: every frame it recycles was built to its own
        // length elsewhere, so pooling them would grow without limit.
        let arena = PacketArena::new();
        for _ in 0..1_000 {
            for len in [60, 64, 128, 594, 1514] {
                arena.recycle(vec![0xab; len]);
            }
        }
        assert_eq!(arena.pooled(), 0);
        assert_eq!(arena.allocations(), 0);
    }

    #[test]
    fn a_lease_and_recycle_loop_allocates_once() {
        let arena = PacketArena::new();
        for &len in [60, 1514, 9000, 64, 594].iter().cycle().take(1_000) {
            let mut f = arena.lease();
            f.resize(len, 0xab);
            arena.recycle(f);
        }
        assert_eq!(arena.allocations(), 1);
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
