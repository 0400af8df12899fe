//! SPI flash model.
//!
//! The prototype carries a 128 Mb (16 MiB) SPI flash that stores multiple
//! FPGA designs, "enabling the module to be reconfigurable at runtime"
//! (§4.3). The OTA reprogramming FSM in `flexsfp-core` writes a staged
//! bitstream here before triggering a reboot. The model enforces the two
//! physical realities that matter to that FSM: erase-before-write
//! semantics and sector granularity.

use std::sync::OnceLock;

/// Total size: 128 Mb = 16 MiB.
pub const FLASH_BYTES: usize = 16 * 1024 * 1024;
/// Erase sector size (typical 64 KiB for this class of part).
const SECTOR_BYTES: usize = 64 * 1024;
/// Number of design slots the flash is partitioned into. Slot 0 is the
/// golden (factory fallback) image.
pub const SLOTS: usize = 4;
/// Bytes per slot.
pub const SLOT_BYTES: usize = FLASH_BYTES / SLOTS;

/// Errors from flash operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// Address or length out of device range.
    OutOfRange,
    /// Attempt to program bits 0→1 without an erase.
    NotErased,
    /// Slot index out of range.
    BadSlot,
    /// Image larger than a slot.
    ImageTooLarge,
    /// The golden slot (0) is write-protected.
    WriteProtected,
}

impl core::fmt::Display for FlashError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlashError::OutOfRange => write!(f, "address out of range"),
            FlashError::NotErased => write!(f, "programming unerased bytes"),
            FlashError::BadSlot => write!(f, "bad slot index"),
            FlashError::ImageTooLarge => write!(f, "image exceeds slot size"),
            FlashError::WriteProtected => write!(f, "golden slot is write-protected"),
        }
    }
}

impl std::error::Error for FlashError {}

/// The SPI flash device.
#[derive(Clone)]
pub struct SpiFlash {
    /// The array, materialized (all 0xFF) by the first access. A module
    /// that never stages an image or reboots from flash — every
    /// dataplane run — never pays for 16 MiB of first-touched memory.
    data: OnceLock<Vec<u8>>,
    /// Cumulative erase operations (wear proxy).
    pub erase_count: u64,
    /// Cumulative bytes programmed.
    pub programmed_bytes: u64,
    golden_protected: bool,
    /// Length of the image [`SpiFlash::write_slot`] last committed to
    /// each slot; 0 while none is (an erased or half-written slot).
    committed: [usize; SLOTS],
    /// One-shot fault injected with [`SpiFlash::inject_fault`]; the next
    /// erase or program consumes it and fails.
    injected_fault: Option<FlashError>,
}

impl std::fmt::Debug for SpiFlash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpiFlash")
            .field("bytes", &FLASH_BYTES)
            .field("erase_count", &self.erase_count)
            .field("programmed_bytes", &self.programmed_bytes)
            .finish()
    }
}

impl Default for SpiFlash {
    fn default() -> Self {
        Self::new()
    }
}

impl SpiFlash {
    /// A blank (all-0xFF) flash with the golden slot unprotected (so the
    /// factory can write it); call [`SpiFlash::protect_golden`] after.
    pub fn new() -> SpiFlash {
        SpiFlash {
            data: OnceLock::new(),
            erase_count: 0,
            programmed_bytes: 0,
            golden_protected: false,
            committed: [0; SLOTS],
            injected_fault: None,
        }
    }

    /// Enable write protection of slot 0.
    ///
    /// Test-only: `crates/fabric/src/flash.rs` and
    /// `crates/core/src/reprogram.rs`: no product code protects the golden
    /// slot yet.
    pub fn protect_golden(&mut self) {
        self.golden_protected = true;
    }

    /// Arm a one-shot fault: the next erase or program operation fails
    /// with `err` instead of touching the array. Deterministic
    /// fault-injection hook for exercising flash-failure paths (a real
    /// part fails this way on a worn sector or a brown-out mid-write).
    ///
    /// Test-only: `crates/fabric/src/flash.rs` and
    /// `crates/core/src/reprogram.rs`: a failing erase or program, which no
    /// product input causes.
    pub fn inject_fault(&mut self, err: FlashError) {
        self.injected_fault = Some(err);
    }

    fn array(&self) -> &[u8] {
        self.data.get_or_init(|| vec![0xff; FLASH_BYTES])
    }

    fn array_mut(&mut self) -> &mut [u8] {
        self.array();
        self.data.get_mut().expect("materialized just above")
    }

    fn take_injected_fault(&mut self) -> Result<(), FlashError> {
        match self.injected_fault.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Erase the sector containing `addr` (sets it to 0xFF).
    fn erase_sector(&mut self, addr: usize) -> Result<(), FlashError> {
        if addr >= FLASH_BYTES {
            return Err(FlashError::OutOfRange);
        }
        let start = addr - (addr % SECTOR_BYTES);
        if self.golden_protected && start < SLOT_BYTES {
            return Err(FlashError::WriteProtected);
        }
        self.take_injected_fault()?;
        self.array_mut()[start..start + SECTOR_BYTES].fill(0xff);
        self.erase_count += 1;
        Ok(())
    }

    /// Program `bytes` at `addr`. Flash programming can only clear bits
    /// (1→0); setting a 0 bit back to 1 requires an erase first.
    fn program(&mut self, addr: usize, bytes: &[u8]) -> Result<(), FlashError> {
        let end = addr
            .checked_add(bytes.len())
            .ok_or(FlashError::OutOfRange)?;
        if end > FLASH_BYTES {
            return Err(FlashError::OutOfRange);
        }
        if self.golden_protected && addr < SLOT_BYTES {
            return Err(FlashError::WriteProtected);
        }
        self.take_injected_fault()?;
        // Check erase state: every programmed bit must currently be 1
        // wherever the new value wants a 1... more precisely new & !old
        // must be 0 (cannot set bits).
        let target = &mut self.array_mut()[addr..end];
        for (old, new) in target.iter().zip(bytes) {
            if *new & !*old != 0 {
                return Err(FlashError::NotErased);
            }
        }
        target.copy_from_slice(bytes);
        self.programmed_bytes += bytes.len() as u64;
        Ok(())
    }

    /// Read `len` bytes at `addr`.
    pub fn read(&self, addr: usize, len: usize) -> Result<&[u8], FlashError> {
        let end = addr.checked_add(len).ok_or(FlashError::OutOfRange)?;
        if end > FLASH_BYTES {
            return Err(FlashError::OutOfRange);
        }
        Ok(&self.array()[addr..end])
    }

    /// Base address of design slot `slot`.
    pub(crate) fn slot_base(slot: usize) -> Result<usize, FlashError> {
        if slot >= SLOTS {
            return Err(FlashError::BadSlot);
        }
        Ok(slot * SLOT_BYTES)
    }

    /// Erase a whole slot and program `image` into it.
    pub fn write_slot(&mut self, slot: usize, image: &[u8]) -> Result<(), FlashError> {
        if image.len() > SLOT_BYTES {
            return Err(FlashError::ImageTooLarge);
        }
        let base = Self::slot_base(slot)?;
        if self.golden_protected && slot == 0 {
            return Err(FlashError::WriteProtected);
        }
        self.committed[slot] = 0;
        let mut a = base;
        while a < base + SLOT_BYTES {
            self.erase_sector(a)?;
            a += SECTOR_BYTES;
        }
        self.program(base, image)?;
        self.committed[slot] = image.len();
        Ok(())
    }

    /// The image last committed to `slot`, exactly as long as it was
    /// written: empty when the slot holds none.
    pub fn image(&self, slot: usize) -> Result<&[u8], FlashError> {
        let len = *self.committed.get(slot).ok_or(FlashError::BadSlot)?;
        self.read_slot(slot, len)
    }

    /// Read back `len` bytes of slot `slot`.
    fn read_slot(&self, slot: usize, len: usize) -> Result<&[u8], FlashError> {
        if len > SLOT_BYTES {
            return Err(FlashError::ImageTooLarge);
        }
        let base = Self::slot_base(slot)?;
        self.read(base, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_image_is_as_long_as_its_commit() {
        let mut f = SpiFlash::new();
        assert_eq!(f.image(1).unwrap(), b"");
        // A trailing 0xFF is image, not erase fill.
        f.write_slot(1, &[0x12, 0xff]).unwrap();
        assert_eq!(f.image(1).unwrap(), &[0x12, 0xff]);
        // A write that fails leaves no image behind.
        f.inject_fault(FlashError::NotErased);
        assert!(f.write_slot(1, &[0x34]).is_err());
        assert_eq!(f.image(1).unwrap(), b"");
        assert_eq!(f.image(SLOTS), Err(FlashError::BadSlot));
    }

    #[test]
    fn array_materializes_on_first_access_only() {
        let mut f = SpiFlash::new();
        f.protect_golden();
        // Construction, protection and refused operations touch nothing.
        assert_eq!(f.erase_sector(0), Err(FlashError::WriteProtected));
        assert_eq!(f.read(FLASH_BYTES, 1), Err(FlashError::OutOfRange));
        assert!(f.clone().data.get().is_none());
        // A blank part reads as erased, wherever it is read.
        assert_eq!(f.read_slot(3, 4).unwrap(), &[0xff; 4]);
        assert_eq!(f.data.get().map(Vec::len), Some(FLASH_BYTES));
        // And a part first touched by a write behaves like any other.
        let mut g = SpiFlash::new();
        g.program(SLOT_BYTES, &[0x12]).unwrap();
        assert_eq!(g.read(SLOT_BYTES - 1, 3).unwrap(), &[0xff, 0x12, 0xff]);
    }

    #[test]
    fn program_requires_erase() {
        let mut f = SpiFlash::new();
        f.program(0x100, &[0x00, 0x0f]).unwrap();
        // Re-programming to clear more bits is fine...
        f.program(0x101, &[0x0e]).unwrap();
        // ...but setting bits back needs an erase.
        assert_eq!(f.program(0x100, &[0x01]), Err(FlashError::NotErased));
        f.golden_protected = false;
        f.erase_sector(0x100).unwrap();
        f.program(0x100, &[0x01]).unwrap();
        assert_eq!(f.read(0x100, 1).unwrap(), &[0x01]);
    }

    #[test]
    fn erase_is_sector_granular() {
        let mut f = SpiFlash::new();
        f.program(SECTOR_BYTES, &[0]).unwrap();
        f.program(2 * SECTOR_BYTES - 1, &[0]).unwrap();
        f.program(2 * SECTOR_BYTES, &[0]).unwrap();
        f.erase_sector(SECTOR_BYTES + 5).unwrap();
        // Whole first-sector span is back to 0xFF…
        assert_eq!(f.read(SECTOR_BYTES, 1).unwrap(), &[0xff]);
        assert_eq!(f.read(2 * SECTOR_BYTES - 1, 1).unwrap(), &[0xff]);
        // …but the neighbouring sector is untouched.
        assert_eq!(f.read(2 * SECTOR_BYTES, 1).unwrap(), &[0x00]);
        assert_eq!(f.erase_count, 1);
    }

    #[test]
    fn slot_round_trip() {
        let mut f = SpiFlash::new();
        let image: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        f.write_slot(2, &image).unwrap();
        assert_eq!(f.read_slot(2, image.len()).unwrap(), &image[..]);
        // Rewrite works because write_slot erases first.
        let image2 = vec![0xabu8; 500];
        f.write_slot(2, &image2).unwrap();
        assert_eq!(f.read_slot(2, 500).unwrap(), &image2[..]);
    }

    #[test]
    fn golden_slot_protection() {
        let mut f = SpiFlash::new();
        f.write_slot(0, b"golden image").unwrap();
        f.protect_golden();
        assert_eq!(f.write_slot(0, b"evil"), Err(FlashError::WriteProtected));
        assert_eq!(f.program(10, &[0]), Err(FlashError::WriteProtected));
        assert_eq!(f.erase_sector(0), Err(FlashError::WriteProtected));
        // Other slots unaffected.
        f.write_slot(1, b"app").unwrap();
        assert_eq!(f.read_slot(0, 12).unwrap(), b"golden image");
    }

    #[test]
    fn range_checks() {
        let mut f = SpiFlash::new();
        assert_eq!(f.program(FLASH_BYTES, &[0]), Err(FlashError::OutOfRange));
        assert_eq!(f.read(FLASH_BYTES - 1, 2), Err(FlashError::OutOfRange));
        assert_eq!(SpiFlash::slot_base(SLOTS), Err(FlashError::BadSlot));
        assert_eq!(
            f.write_slot(1, &vec![0u8; SLOT_BYTES + 1]),
            Err(FlashError::ImageTooLarge)
        );
    }

    #[test]
    fn injected_fault_fires_once() {
        let mut f = SpiFlash::new();
        f.inject_fault(FlashError::NotErased);
        assert_eq!(
            f.write_slot(1, b"payload"),
            Err(FlashError::NotErased),
            "armed fault must fail the next write"
        );
        // The fault is one-shot: the retry succeeds.
        f.write_slot(1, b"payload").unwrap();
        assert_eq!(f.read_slot(1, 7).unwrap(), b"payload");
    }

    #[test]
    fn capacity_is_128_mbit() {
        assert_eq!(FLASH_BYTES * 8, 128 * 1024 * 1024);
        assert_eq!(SLOT_BYTES, 4 * 1024 * 1024);
    }
}
