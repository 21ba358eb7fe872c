//! Cluster memory system: L1 TCDM and L2 backing store.
//!
//! The address map mirrors PULP: the multi-banked, word-interleaved L1
//! tightly-coupled data memory (TCDM) lives at [`L1_BASE`]; the off-cluster
//! L2 at [`L2_BASE`]. Bank arbitration and port timing are modelled by the
//! [`Cluster`](crate::cluster::Cluster); this module owns the backing
//! storage, the address decode, and the access-fault rules (range and
//! natural alignment).

use core::fmt;

use crate::isa::MemWidth;

/// Base address of the L1 TCDM scratchpad.
pub const L1_BASE: u32 = 0x1000_0000;
/// Base address of the off-cluster L2 memory.
pub const L2_BASE: u32 = 0x1C00_0000;

/// Which physical memory an address decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// L1 tightly-coupled data memory (banked, single-cycle).
    L1,
    /// L2 background memory (single-ported, multi-cycle).
    L2,
}

/// Reason a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// Address does not fall in L1 or L2.
    Unmapped,
    /// Address is in a known region but beyond its configured size.
    OutOfRange,
    /// Address is not naturally aligned for the access width.
    Misaligned,
}

/// A faulting memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting byte address.
    pub addr: u32,
    /// Access width.
    pub width: MemWidth,
    /// Fault classification.
    pub kind: FaultKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            FaultKind::Unmapped => "unmapped address",
            FaultKind::OutOfRange => "address out of configured range",
            FaultKind::Misaligned => "misaligned access",
        };
        write!(f, "{what} {:#010x} ({}B)", self.addr, self.width.bytes())
    }
}

impl std::error::Error for MemFault {}

/// Backing storage for both memories.
///
/// # Examples
///
/// ```
/// use pulp_sim::mem::{Memory, L1_BASE, L2_BASE};
/// use pulp_sim::isa::MemWidth;
///
/// let mut mem = Memory::new(48 * 1024, 64 * 1024);
/// mem.write(L2_BASE, MemWidth::Word, 0xdead_beef)?;
/// assert_eq!(mem.read(L2_BASE, MemWidth::Word)?, 0xdead_beef);
/// assert_eq!(mem.read(L2_BASE, MemWidth::Half)?, 0xbeef); // little-endian
/// # Ok::<(), pulp_sim::mem::MemFault>(())
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    l1: Vec<u8>,
    l2: Vec<u8>,
}

impl Memory {
    /// Allocates zeroed L1 and L2 of the given byte sizes.
    #[must_use]
    pub fn new(l1_size: u32, l2_size: u32) -> Self {
        Self {
            l1: vec![0; l1_size as usize],
            l2: vec![0; l2_size as usize],
        }
    }

    /// L1 size in bytes.
    #[must_use]
    pub fn l1_size(&self) -> u32 {
        self.l1.len() as u32
    }

    /// L2 size in bytes.
    #[must_use]
    pub fn l2_size(&self) -> u32 {
        self.l2.len() as u32
    }

    /// Decodes an address to its memory space, checking range and
    /// alignment.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for unmapped, out-of-range, or misaligned
    /// accesses.
    pub fn decode(&self, addr: u32, width: MemWidth) -> Result<(MemSpace, usize), MemFault> {
        let bytes = width.bytes();
        if !addr.is_multiple_of(bytes) {
            return Err(MemFault {
                addr,
                width,
                kind: FaultKind::Misaligned,
            });
        }
        let (space, base, size) = if (L1_BASE..L1_BASE.saturating_add(0x0400_0000)).contains(&addr)
        {
            (MemSpace::L1, L1_BASE, self.l1.len() as u32)
        } else if addr >= L2_BASE {
            (MemSpace::L2, L2_BASE, self.l2.len() as u32)
        } else {
            return Err(MemFault {
                addr,
                width,
                kind: FaultKind::Unmapped,
            });
        };
        let offset = addr - base;
        if offset + bytes > size {
            return Err(MemFault {
                addr,
                width,
                kind: FaultKind::OutOfRange,
            });
        }
        Ok((space, offset as usize))
    }

    fn slice(&self, space: MemSpace) -> &[u8] {
        match space {
            MemSpace::L1 => &self.l1,
            MemSpace::L2 => &self.l2,
        }
    }

    fn slice_mut(&mut self, space: MemSpace) -> &mut [u8] {
        match space {
            MemSpace::L1 => &mut self.l1,
            MemSpace::L2 => &mut self.l2,
        }
    }

    /// Reads a zero-extended value.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] as for [`decode`](Self::decode).
    pub fn read(&self, addr: u32, width: MemWidth) -> Result<u32, MemFault> {
        let (space, off) = self.decode(addr, width)?;
        let mem = self.slice(space);
        Ok(match width {
            MemWidth::Byte => u32::from(mem[off]),
            MemWidth::Half => u32::from(u16::from_le_bytes([mem[off], mem[off + 1]])),
            MemWidth::Word => {
                u32::from_le_bytes([mem[off], mem[off + 1], mem[off + 2], mem[off + 3]])
            }
        })
    }

    /// Writes the low bits of `value` at the given width.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] as for [`decode`](Self::decode).
    pub fn write(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), MemFault> {
        let (space, off) = self.decode(addr, width)?;
        let mem = self.slice_mut(space);
        match width {
            MemWidth::Byte => mem[off] = value as u8,
            MemWidth::Half => mem[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            MemWidth::Word => mem[off..off + 4].copy_from_slice(&value.to_le_bytes()),
        }
        Ok(())
    }

    /// Host helper: writes a slice of words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on the first failing word.
    pub fn write_words(&mut self, addr: u32, words: &[u32]) -> Result<(), MemFault> {
        for (i, &w) in words.iter().enumerate() {
            self.write(addr + 4 * i as u32, MemWidth::Word, w)?;
        }
        Ok(())
    }

    /// Host helper: reads `count` words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on the first failing word.
    pub fn read_words(&self, addr: u32, count: usize) -> Result<Vec<u32>, MemFault> {
        (0..count)
            .map(|i| self.read(addr + 4 * i as u32, MemWidth::Word))
            .collect()
    }

    /// Host helper: writes a slice of halfwords starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] on the first failing halfword.
    pub fn write_halves(&mut self, addr: u32, halves: &[u16]) -> Result<(), MemFault> {
        for (i, &h) in halves.iter().enumerate() {
            self.write(addr + 2 * i as u32, MemWidth::Half, u32::from(h))?;
        }
        Ok(())
    }

    /// The TCDM bank an L1 address maps to, with word interleaving.
    ///
    /// Non-L1 addresses return `None`.
    #[must_use]
    pub fn bank_of(&self, addr: u32, n_banks: usize) -> Option<usize> {
        if (L1_BASE..L1_BASE + self.l1.len() as u32).contains(&addr) {
            Some(((addr - L1_BASE) as usize >> 2) % n_banks)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip_in_both_spaces() {
        let mut mem = Memory::new(1024, 1024);
        mem.write(L1_BASE + 4, MemWidth::Word, 0x1234_5678).unwrap();
        mem.write(L2_BASE + 8, MemWidth::Word, 0x9abc_def0).unwrap();
        assert_eq!(mem.read(L1_BASE + 4, MemWidth::Word).unwrap(), 0x1234_5678);
        assert_eq!(mem.read(L2_BASE + 8, MemWidth::Word).unwrap(), 0x9abc_def0);
    }

    #[test]
    fn little_endian_sub_word_access() {
        let mut mem = Memory::new(64, 64);
        mem.write(L1_BASE, MemWidth::Word, 0xa1b2_c3d4).unwrap();
        assert_eq!(mem.read(L1_BASE, MemWidth::Byte).unwrap(), 0xd4);
        assert_eq!(mem.read(L1_BASE + 1, MemWidth::Byte).unwrap(), 0xc3);
        assert_eq!(mem.read(L1_BASE, MemWidth::Half).unwrap(), 0xc3d4);
        assert_eq!(mem.read(L1_BASE + 2, MemWidth::Half).unwrap(), 0xa1b2);
    }

    #[test]
    fn misaligned_access_faults() {
        let mem = Memory::new(64, 64);
        let err = mem.read(L1_BASE + 2, MemWidth::Word).unwrap_err();
        assert_eq!(err.kind, FaultKind::Misaligned);
        let err = mem.read(L1_BASE + 1, MemWidth::Half).unwrap_err();
        assert_eq!(err.kind, FaultKind::Misaligned);
        // Byte access is always aligned.
        assert!(mem.read(L1_BASE + 1, MemWidth::Byte).is_ok());
    }

    #[test]
    fn out_of_range_faults() {
        let mem = Memory::new(64, 64);
        assert_eq!(
            mem.read(L1_BASE + 64, MemWidth::Word).unwrap_err().kind,
            FaultKind::OutOfRange
        );
        // Last valid word is fine; the first word past the end is not.
        assert!(mem.read(L1_BASE + 60, MemWidth::Word).is_ok());
        assert_eq!(
            mem.read(L2_BASE + 64, MemWidth::Word).unwrap_err().kind,
            FaultKind::OutOfRange
        );
        // A misaligned straddle reports misalignment first.
        assert_eq!(
            mem.read(L2_BASE + 62, MemWidth::Word).unwrap_err().kind,
            FaultKind::Misaligned
        );
    }

    #[test]
    fn unmapped_faults() {
        let mem = Memory::new(64, 64);
        assert_eq!(
            mem.read(0x0000_1000, MemWidth::Word).unwrap_err().kind,
            FaultKind::Unmapped
        );
    }

    #[test]
    fn bulk_word_io() {
        let mut mem = Memory::new(64, 256);
        let data: Vec<u32> = (0..16).map(|i| i * 3).collect();
        mem.write_words(L2_BASE, &data).unwrap();
        assert_eq!(mem.read_words(L2_BASE, 16).unwrap(), data);
    }

    #[test]
    fn halfword_bulk_io() {
        let mut mem = Memory::new(64, 64);
        mem.write_halves(L1_BASE, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.read(L1_BASE, MemWidth::Word).unwrap(), 0x0002_0001);
        assert_eq!(mem.read(L1_BASE + 4, MemWidth::Word).unwrap(), 0x0004_0003);
    }

    #[test]
    fn word_interleaved_banking() {
        let mem = Memory::new(1024, 64);
        assert_eq!(mem.bank_of(L1_BASE, 16), Some(0));
        assert_eq!(mem.bank_of(L1_BASE + 4, 16), Some(1));
        assert_eq!(mem.bank_of(L1_BASE + 64, 16), Some(0));
        assert_eq!(mem.bank_of(L2_BASE, 16), None);
    }

    #[test]
    fn fault_display_is_informative() {
        let fault = MemFault {
            addr: 0x10,
            width: MemWidth::Word,
            kind: FaultKind::Unmapped,
        };
        let text = fault.to_string();
        assert!(text.contains("unmapped"));
        assert!(text.contains("0x00000010"));
    }
}
