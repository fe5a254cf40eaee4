//! Functional byte-addressable memory image.

use std::error::Error;
use std::fmt;
use temu_isa::Width;
use temu_state::{StateError, StateReader, StateWriter};

/// Error for out-of-range, misaligned or unmapped functional accesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// Address (plus access width) falls outside the device.
    OutOfRange { addr: u32, size: u32 },
    /// Address is not aligned to the access width.
    Misaligned { addr: u32, width: Width },
    /// Address falls in no mapped range of the memory controller, or the
    /// access kind is not supported there (e.g. fetch or TAS from MMIO).
    Unmapped { addr: u32 },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, size } => {
                write!(f, "address {addr:#010x} outside device of {size} bytes")
            }
            MemError::Misaligned { addr, width } => {
                write!(f, "address {addr:#010x} misaligned for {}-byte access", width.bytes())
            }
            MemError::Unmapped { addr } => write!(f, "address {addr:#010x} is not mapped"),
        }
    }
}

impl Error for MemError {}

/// A little-endian byte-addressable memory image with bounds and alignment
/// checking. Purely functional — all timing lives in the cache/interconnect
/// models.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MemArray {
    data: Vec<u8>,
}

impl MemArray {
    /// Creates a zero-filled image of `size` bytes.
    pub fn new(size: u32) -> MemArray {
        MemArray { data: vec![0; size as usize] }
    }

    /// Device size in bytes.
    pub fn size(&self) -> u32 {
        self.data.len() as u32
    }

    #[inline]
    fn check(&self, addr: u32, width: Width) -> Result<usize, MemError> {
        let bytes = width.bytes();
        if !addr.is_multiple_of(bytes) {
            return Err(MemError::Misaligned { addr, width });
        }
        let end = addr.checked_add(bytes).ok_or(MemError::OutOfRange { addr, size: self.size() })?;
        if end > self.size() {
            return Err(MemError::OutOfRange { addr, size: self.size() });
        }
        Ok(addr as usize)
    }

    /// Reads `width` bytes at `addr`, zero-extended into a `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misaligned or out-of-range access.
    #[inline]
    pub fn read(&self, addr: u32, width: Width) -> Result<u32, MemError> {
        let i = self.check(addr, width)?;
        let b = &self.data[i..i + width.bytes() as usize];
        Ok(match width {
            Width::Byte => u32::from(b[0]),
            Width::Half => u32::from(u16::from_le_bytes([b[0], b[1]])),
            Width::Word => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        })
    }

    /// Writes the low `width` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misaligned or out-of-range access.
    #[inline]
    pub fn write(&mut self, addr: u32, width: Width, value: u32) -> Result<(), MemError> {
        let i = self.check(addr, width)?;
        match width {
            Width::Byte => self.data[i] = value as u8,
            Width::Half => self.data[i..i + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            Width::Word => self.data[i..i + 4].copy_from_slice(&value.to_le_bytes()),
        }
        Ok(())
    }

    /// Copies a byte slice into the image starting at `addr` (used by the
    /// program loader).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the slice does not fit.
    pub fn load(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        let end = addr as usize + bytes.len();
        if end > self.data.len() {
            return Err(MemError::OutOfRange { addr, size: self.size() });
        }
        self.data[addr as usize..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Borrow a region of the image (for result verification in tests).
    ///
    /// # Panics
    ///
    /// Panics if the region is out of range.
    pub fn slice(&self, addr: u32, len: u32) -> &[u8] {
        &self.data[addr as usize..(addr + len) as usize]
    }

    /// Serializes the image into a checkpoint stream (zero-run RLE: an idle
    /// memory costs almost nothing on the wire).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.bytes_rle(&self.data);
    }

    /// Restores the image from a checkpoint stream.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::BadLength`] if the recorded image size differs
    /// from this device's size (the checkpoint belongs to another platform).
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let data = r.bytes_rle()?;
        if data.len() != self.data.len() {
            return Err(StateError::BadLength { found: data.len() as u64, max: self.data.len() as u64 });
        }
        self.data = data;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_write_word_round_trip() {
        let mut m = MemArray::new(64);
        m.write(8, Width::Word, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read(8, Width::Word).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read(8, Width::Byte).unwrap(), 0xEF, "little endian");
        assert_eq!(m.read(10, Width::Half).unwrap(), 0xDEAD);
    }

    #[test]
    fn misaligned_rejected() {
        let m = MemArray::new(64);
        assert!(matches!(m.read(2, Width::Word), Err(MemError::Misaligned { .. })));
        assert!(matches!(m.read(1, Width::Half), Err(MemError::Misaligned { .. })));
        assert!(m.read(1, Width::Byte).is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = MemArray::new(8);
        assert!(matches!(m.read(8, Width::Word), Err(MemError::OutOfRange { .. })));
        assert!(matches!(m.write(u32::MAX - 2, Width::Byte, 0), Err(MemError::OutOfRange { .. })));
        assert!(m.read(4, Width::Word).is_ok());
    }

    #[test]
    fn load_places_bytes() {
        let mut m = MemArray::new(16);
        m.load(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read(4, Width::Word).unwrap(), 0x0403_0201);
        assert!(m.load(14, &[0; 4]).is_err());
    }

    #[test]
    fn error_display() {
        assert!(MemError::OutOfRange { addr: 4, size: 2 }.to_string().contains("outside"));
        assert!(MemError::Misaligned { addr: 1, width: Width::Word }.to_string().contains("misaligned"));
    }

    proptest! {
        #[test]
        fn subword_writes_preserve_neighbours(addr in (0u32..60).prop_map(|a| a & !3), val in any::<u32>(), b in any::<u8>()) {
            let mut m = MemArray::new(64);
            m.write(addr, Width::Word, val).unwrap();
            m.write(addr, Width::Byte, u32::from(b)).unwrap();
            let expect = (val & 0xFFFF_FF00) | u32::from(b);
            prop_assert_eq!(m.read(addr, Width::Word).unwrap(), expect);
        }

        #[test]
        fn reads_never_panic(addr in any::<u32>()) {
            let m = MemArray::new(128);
            let _ = m.read(addr, Width::Word);
            let _ = m.read(addr, Width::Half);
            let _ = m.read(addr, Width::Byte);
        }
    }
}
