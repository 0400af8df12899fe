//! The over-the-network reprogramming FSM.
//!
//! §4.2: "the control plane authenticates reconfiguration packets whose
//! payload carries a new bitstream; a small FSM writes it to SPI flash
//! and then triggers a reboot so the SFP boots the new application."
//! Authentication happens at the control-protocol framing layer; this
//! FSM handles ordered chunk assembly, integrity verification and the
//! flash commit.

use flexsfp_fabric::flash::{FlashError, SpiFlash};
use flexsfp_fabric::hash::crc32;

/// Maximum chunk payload carried by one reconfiguration packet (fits a
/// standard frame with protocol overhead).
pub const MAX_CHUNK: usize = 1024;

/// FSM states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateState {
    /// No update in progress.
    Idle,
    /// Receiving chunks.
    Receiving {
        /// Target flash slot.
        slot: usize,
        /// Expected total image length.
        total_len: usize,
        /// Expected CRC-32 of the full image.
        expected_crc: u32,
        /// Next expected chunk sequence number.
        next_seq: u32,
        /// Bytes received so far.
        received: usize,
    },
    /// Image assembled and verified, committed to flash; awaiting
    /// activation.
    Staged {
        /// Flash slot holding the staged image.
        slot: usize,
    },
}

/// Errors surfaced to the control protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// Operation invalid in the current state.
    WrongState,
    /// Chunk arrived out of order.
    BadSequence {
        /// Sequence number expected next.
        expected: u32,
        /// Sequence number received.
        got: u32,
    },
    /// Chunk exceeds [`MAX_CHUNK`] or overruns the declared total.
    BadChunk,
    /// Assembled image CRC mismatch.
    BadCrc,
    /// Slot invalid or image too large (slot 0 is the protected golden
    /// image).
    BadSlot,
    /// Flash programming failed.
    Flash(FlashError),
}

impl core::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for UpdateError {}

/// The reprogramming FSM with its assembly buffer.
#[derive(Debug)]
pub struct UpdateFsm {
    state: UpdateState,
    buffer: Vec<u8>,
}

impl Default for UpdateFsm {
    fn default() -> Self {
        Self::new()
    }
}

impl UpdateFsm {
    /// A fresh FSM in `Idle`.
    pub fn new() -> UpdateFsm {
        UpdateFsm {
            state: UpdateState::Idle,
            buffer: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> &UpdateState {
        &self.state
    }

    /// Begin an update targeting `slot` (1..SLOTS; 0 is golden).
    pub fn begin(
        &mut self,
        slot: usize,
        total_len: usize,
        expected_crc: u32,
    ) -> Result<(), UpdateError> {
        if !matches!(self.state, UpdateState::Idle) {
            return Err(UpdateError::WrongState);
        }
        if slot == 0
            || slot >= flexsfp_fabric::flash::SLOTS
            || total_len == 0
            || total_len > flexsfp_fabric::flash::SLOT_BYTES
        {
            return Err(UpdateError::BadSlot);
        }
        self.buffer = Vec::with_capacity(total_len);
        self.state = UpdateState::Receiving {
            slot,
            total_len,
            expected_crc,
            next_seq: 0,
            received: 0,
        };
        Ok(())
    }

    /// Feed chunk `seq`. `Ok(true)` when it retransmits the last
    /// accepted chunk, acknowledged idempotently (a lost ack the sender
    /// had to resend).
    pub fn chunk(&mut self, seq: u32, data: &[u8]) -> Result<bool, UpdateError> {
        let UpdateState::Receiving {
            total_len,
            next_seq,
            received,
            ..
        } = &mut self.state
        else {
            return Err(UpdateError::WrongState);
        };
        if *next_seq > 0 && seq == *next_seq - 1 {
            // Retransmit of the last accepted chunk: its ack was lost in
            // flight. The bytes are already in the buffer, so acknowledge
            // idempotently instead of wedging the sender with an error.
            return Ok(true);
        }
        if seq != *next_seq {
            return Err(UpdateError::BadSequence {
                expected: *next_seq,
                got: seq,
            });
        }
        if data.is_empty() || data.len() > MAX_CHUNK || *received + data.len() > *total_len {
            return Err(UpdateError::BadChunk);
        }
        self.buffer.extend_from_slice(data);
        *received += data.len();
        *next_seq += 1;
        Ok(false)
    }

    /// Verify the assembled image and commit it to flash. On success the
    /// FSM moves to `Staged` and returns the slot.
    pub fn commit(&mut self, flash: &mut SpiFlash) -> Result<usize, UpdateError> {
        let UpdateState::Receiving {
            slot,
            total_len,
            expected_crc,
            received,
            ..
        } = self.state
        else {
            return Err(UpdateError::WrongState);
        };
        if received != total_len {
            return Err(UpdateError::BadChunk);
        }
        if crc32(&self.buffer) != expected_crc {
            self.abort();
            return Err(UpdateError::BadCrc);
        }
        if let Err(e) = flash.write_slot(slot, &self.buffer) {
            // A flash failure is as terminal as a CRC mismatch: keeping
            // the stale buffer in `Receiving` would wedge every later
            // `begin` with `WrongState`. Drop back to `Idle`.
            self.abort();
            return Err(UpdateError::Flash(e));
        }
        self.buffer.clear();
        self.state = UpdateState::Staged { slot };
        Ok(slot)
    }

    /// Abort any in-progress update and return to `Idle`.
    pub fn abort(&mut self) {
        self.buffer.clear();
        self.state = UpdateState::Idle;
    }

    /// Acknowledge activation: `Staged → Idle` (the module reboots).
    pub fn activated(&mut self) {
        if matches!(self.state, UpdateState::Staged { .. }) {
            self.state = UpdateState::Idle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn full_update_flow() {
        let mut fsm = UpdateFsm::new();
        let mut flash = SpiFlash::new();
        let img = image(3000);
        let crc = crc32(&img);
        fsm.begin(1, img.len(), crc).unwrap();
        for (seq, chunk) in img.chunks(MAX_CHUNK).enumerate() {
            fsm.chunk(seq as u32, chunk).unwrap();
        }
        let slot = fsm.commit(&mut flash).unwrap();
        assert_eq!(slot, 1);
        assert_eq!(fsm.state(), &UpdateState::Staged { slot: 1 });
        assert_eq!(flash.image(1).unwrap(), &img[..]);
        fsm.activated();
        assert_eq!(fsm.state(), &UpdateState::Idle);
    }

    #[test]
    fn out_of_order_chunk_rejected() {
        let mut fsm = UpdateFsm::new();
        fsm.begin(1, 2048, 0).unwrap();
        fsm.chunk(0, &[0u8; 1024]).unwrap();
        assert_eq!(
            fsm.chunk(2, &[0u8; 1024]),
            Err(UpdateError::BadSequence {
                expected: 1,
                got: 2
            })
        );
        // Retransmit of the correct seq still works.
        fsm.chunk(1, &[0u8; 1024]).unwrap();
    }

    #[test]
    fn duplicate_of_last_chunk_is_idempotent_ack() {
        let mut fsm = UpdateFsm::new();
        let mut flash = SpiFlash::new();
        let img = image(3000);
        let crc = crc32(&img);
        fsm.begin(1, img.len(), crc).unwrap();
        let chunks: Vec<&[u8]> = img.chunks(MAX_CHUNK).collect();
        assert_eq!(fsm.chunk(0, chunks[0]), Ok(false));
        // The ack for chunk 0 was lost; the sender retransmits it.
        assert_eq!(fsm.chunk(0, chunks[0]), Ok(true));
        assert_eq!(fsm.chunk(0, chunks[0]), Ok(true));
        // The buffer took the bytes exactly once: the rest of the image
        // still fits and the commit CRC still matches.
        assert_eq!(fsm.chunk(1, chunks[1]), Ok(false));
        assert_eq!(fsm.chunk(1, chunks[1]), Ok(true));
        assert_eq!(fsm.chunk(2, chunks[2]), Ok(false));
        assert_eq!(fsm.commit(&mut flash).unwrap(), 1);
        assert_eq!(flash.image(1).unwrap(), &img[..]);
    }

    #[test]
    fn genuinely_out_of_order_chunk_still_rejected() {
        let mut fsm = UpdateFsm::new();
        fsm.begin(1, 4096, 0).unwrap();
        // A duplicate before any chunk was accepted cannot exist; seq 0
        // at next_seq 0 is simply the first chunk.
        assert_eq!(fsm.chunk(0, &[0u8; 1024]), Ok(false));
        fsm.chunk(1, &[0u8; 1024]).unwrap();
        // Ahead of the window: rejected.
        assert_eq!(
            fsm.chunk(3, &[0u8; 1024]),
            Err(UpdateError::BadSequence {
                expected: 2,
                got: 3
            })
        );
        // More than one behind (not the last accepted): rejected.
        assert_eq!(
            fsm.chunk(0, &[0u8; 1024]),
            Err(UpdateError::BadSequence {
                expected: 2,
                got: 0
            })
        );
    }

    #[test]
    fn flash_failure_on_commit_returns_to_idle() {
        let mut fsm = UpdateFsm::new();
        let mut flash = SpiFlash::new();
        flash.protect_golden();
        let img = image(100);
        let crc = crc32(&img);
        fsm.begin(2, img.len(), crc).unwrap();
        fsm.chunk(0, &img).unwrap();
        flash.inject_fault(FlashError::NotErased);
        assert_eq!(
            fsm.commit(&mut flash),
            Err(UpdateError::Flash(FlashError::NotErased))
        );
        // The FSM must not stay wedged in `Receiving` with a stale
        // buffer: like `BadCrc`, a flash failure aborts to `Idle` …
        assert_eq!(fsm.state(), &UpdateState::Idle);
        // … so a fresh update can begin and succeed.
        fsm.begin(2, img.len(), crc).unwrap();
        fsm.chunk(0, &img).unwrap();
        assert_eq!(fsm.commit(&mut flash).unwrap(), 2);
        assert_eq!(flash.image(2).unwrap(), &img[..]);
    }

    #[test]
    fn crc_mismatch_aborts() {
        let mut fsm = UpdateFsm::new();
        let mut flash = SpiFlash::new();
        let img = image(100);
        fsm.begin(2, img.len(), 0xdeadbeef).unwrap();
        fsm.chunk(0, &img).unwrap();
        assert_eq!(fsm.commit(&mut flash), Err(UpdateError::BadCrc));
        assert_eq!(fsm.state(), &UpdateState::Idle);
        // Flash untouched: nothing erased, no image committed.
        assert_eq!((flash.erase_count, flash.image(2).unwrap()), (0, &[][..]));
    }

    #[test]
    fn golden_slot_refused() {
        let mut fsm = UpdateFsm::new();
        assert_eq!(fsm.begin(0, 100, 0), Err(UpdateError::BadSlot));
        assert_eq!(fsm.begin(9, 100, 0), Err(UpdateError::BadSlot));
        assert_eq!(
            fsm.begin(1, flexsfp_fabric::flash::SLOT_BYTES + 1, 0),
            Err(UpdateError::BadSlot)
        );
    }

    #[test]
    fn state_machine_guards() {
        let mut fsm = UpdateFsm::new();
        let mut flash = SpiFlash::new();
        assert_eq!(fsm.chunk(0, &[0]), Err(UpdateError::WrongState));
        assert_eq!(fsm.commit(&mut flash), Err(UpdateError::WrongState));
        fsm.begin(1, 10, 0).unwrap();
        assert_eq!(fsm.begin(1, 10, 0), Err(UpdateError::WrongState));
        // Oversized chunk.
        assert_eq!(fsm.chunk(0, &[0u8; 2000]), Err(UpdateError::BadChunk));
        // Overrun of declared total.
        fsm.chunk(0, &[0u8; 8]).unwrap();
        assert_eq!(fsm.chunk(1, &[0u8; 8]), Err(UpdateError::BadChunk));
        // Commit before all bytes arrive.
        assert_eq!(fsm.commit(&mut flash), Err(UpdateError::BadChunk));
        fsm.abort();
        assert_eq!(fsm.state(), &UpdateState::Idle);
    }
}
