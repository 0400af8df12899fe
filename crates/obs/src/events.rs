//! Dataplane event trace ring.
//!
//! Modeled on a hardware trace buffer: a fixed-capacity ring that the
//! dataplane pushes events into at line rate and the management plane
//! drains out-of-band. When the ring is full the oldest event is
//! overwritten — that is the only behaviour a line-rate producer can
//! afford — but every overwrite increments a counter that is exported
//! with each drain, so event loss shows up in telemetry instead of
//! disappearing.

use std::collections::VecDeque;

/// Default ring capacity; matches a small on-module SRAM trace buffer.
/// Flight records are bigger than trace events, so their ring holds as
/// many rather than more.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 256;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Ingress FIFO overflowed (module could not keep up with arrivals).
    FifoOverflow,
    /// The packet-processing app returned a drop verdict.
    App,
    /// The egress link was down or unusable.
    LinkDown,
    /// The packet arrived out of order in an offered trace (host-composed
    /// traces must be sorted by arrival time; stragglers are dropped and
    /// counted instead of aborting the run).
    UnsortedArrival,
}

impl DropReason {
    /// Stable lowercase label used in Prometheus metric labels.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::FifoOverflow => "fifo_overflow",
            DropReason::App => "app",
            DropReason::LinkDown => "link_down",
            DropReason::UnsortedArrival => "unsorted_arrival",
        }
    }
}

/// What happened, without the when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A packet was dropped for the given reason.
    Drop {
        /// Why the packet was dropped.
        reason: DropReason,
    },
    /// A new app image was staged into a flash slot.
    Reprogram {
        /// Flash slot the image was written to.
        slot: u8,
    },
    /// The module rebooted (or tried to) into a flash slot.
    Reboot {
        /// Flash slot the boot targeted.
        slot: u8,
        /// Whether the boot verified and succeeded.
        ok: bool,
    },
    /// A control frame failed authentication and was rejected.
    AuthReject,
    /// An in-progress firmware update was torn down before activation
    /// (host-requested abort or error teardown).
    UpdateAbort,
}

impl EventKind {
    /// Stable lowercase label. Test-only: `tests/pinned_trace.rs`: the
    /// pinned event log.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Drop { .. } => "drop",
            EventKind::Reprogram { .. } => "reprogram",
            EventKind::Reboot { .. } => "reboot",
            EventKind::AuthReject => "auth_reject",
            EventKind::UpdateAbort => "update_abort",
        }
    }
}

crate::impl_json_enum!(DropReason {
    FifoOverflow,
    App,
    LinkDown,
    UnsortedArrival,
});
crate::impl_json_enum!(EventKind {
    Drop { reason },
    Reprogram { slot },
    Reboot { slot, ok },
    AuthReject,
    UpdateAbort,
});

/// One traced dataplane event.
#[derive(Debug, Clone, PartialEq)]
pub struct DataplaneEvent {
    /// Module-local timestamp of the event, nanoseconds.
    pub timestamp_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

crate::impl_json_struct!(DataplaneEvent { timestamp_ns, kind });

/// Fixed-capacity overwrite-oldest ring with loss accounting: the one
/// implementation behind [`EventRing`] and [`crate::FlightRing`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRing<T> {
    ring: VecDeque<T>,
    capacity: usize,
    /// Lifetime count of items pushed out of the ring unread.
    overwritten: u64,
    /// Lifetime count of items handed to a drain call.
    drained: u64,
}

/// The dataplane event ring.
pub type EventRing = TraceRing<DataplaneEvent>;

impl<T> Default for TraceRing<T> {
    fn default() -> TraceRing<T> {
        TraceRing::new(DEFAULT_RING_CAPACITY)
    }
}

impl<T> TraceRing<T> {
    /// A ring holding at most `capacity` undrained items (at least 1).
    pub fn new(capacity: usize) -> TraceRing<T> {
        TraceRing {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            overwritten: 0,
            drained: 0,
        }
    }

    /// Push an item, overwriting (and counting) the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.overwritten += 1;
        }
        self.ring.push_back(item);
    }

    /// Remove and return all buffered items, oldest first.
    pub fn drain(&mut self) -> Vec<T> {
        let out: Vec<T> = self.ring.drain(..).collect();
        self.drained += out.len() as u64;
        out
    }

    /// Lifetime count of items lost to overwrite — never resets, so a
    /// collector diffing successive snapshots sees every loss window.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Lifetime count of items successfully drained.
    ///
    /// Test-only: `crates/obs/tests/prop.rs`: the drained share of the
    /// ring's conservation identity.
    pub fn drained(&self) -> u64 {
        self.drained
    }
}

impl EventRing {
    /// Convenience: push an event from its parts.
    pub fn record(&mut self, timestamp_ns: u64, kind: EventKind) {
        self.push(DataplaneEvent { timestamp_ns, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> DataplaneEvent {
        DataplaneEvent {
            timestamp_ns: t,
            kind: EventKind::AuthReject,
        }
    }

    #[test]
    fn drain_returns_events_in_order() {
        let mut r = EventRing::new(8);
        for t in 0..5 {
            r.push(ev(t));
        }
        let out = r.drain();
        assert_eq!(out.len(), 5);
        assert!(out
            .windows(2)
            .all(|w| w[0].timestamp_ns < w[1].timestamp_ns));
        assert!(r.ring.is_empty());
        assert_eq!(r.drained(), 5);
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts() {
        let mut r = EventRing::new(4);
        for t in 0..10 {
            r.push(ev(t));
        }
        assert_eq!(r.ring.len(), 4);
        assert_eq!(r.overwritten(), 6);
        let out = r.drain();
        // The survivors are the newest four.
        assert_eq!(
            out.iter().map(|e| e.timestamp_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        // Conservation: pushed == drained + overwritten + buffered.
        assert_eq!(r.drained() + r.overwritten(), 10);
    }

    #[test]
    fn accounting_survives_interleaved_drains() {
        let mut r = EventRing::new(2);
        let mut pushed = 0u64;
        let mut collected = 0u64;
        for round in 0..50u64 {
            for t in 0..(round % 5) {
                r.push(ev(t));
                pushed += 1;
            }
            collected += r.drain().len() as u64;
        }
        assert_eq!(pushed, collected + r.overwritten());
        assert_eq!(r.drained(), collected);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = EventRing::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.capacity, 1);
        assert_eq!(r.ring.len(), 1);
        assert_eq!(r.overwritten(), 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DropReason::FifoOverflow.label(), "fifo_overflow");
        assert_eq!(
            EventKind::Drop {
                reason: DropReason::App
            }
            .label(),
            "drop"
        );
        assert_eq!(EventKind::Reboot { slot: 1, ok: true }.label(), "reboot");
    }
}
