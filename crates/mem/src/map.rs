//! Memory-controller address map (§3.2).
//!
//! One memory controller is attached to every core; it routes each request by
//! address to the private memory, the shared memory (through the platform
//! interconnect) or the memory-mapped I/O window, and knows which ranges are
//! cacheable.

use crate::error::MemConfigError;
use std::fmt;

/// Device class a range maps to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RangeTarget {
    /// The core's private main memory, local to the memory controller.
    Private,
    /// The shared main memory, reached over the interconnect.
    Shared,
    /// Memory-mapped I/O (sniffer control, core id, sensors, console).
    Mmio,
}

/// One mapped address range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MappedRange {
    /// First byte address of the range.
    pub base: u32,
    /// Size in bytes.
    pub size: u32,
    /// Device the range maps to.
    pub target: RangeTarget,
    /// Whether accesses in the range go through the L1 caches.
    pub cacheable: bool,
}

impl MappedRange {
    /// Whether `addr` falls inside the range.
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && (addr - self.base) < self.size
    }

    /// Offset of `addr` within the range.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is not contained.
    #[inline]
    pub fn offset(&self, addr: u32) -> u32 {
        debug_assert!(self.contains(addr));
        addr - self.base
    }
}

impl fmt::Display for MappedRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#010x}..{:#010x} -> {:?}{}",
            self.base,
            self.base as u64 + self.size as u64,
            self.target,
            if self.cacheable { " (cacheable)" } else { "" }
        )
    }
}

/// The per-core address map. The defaults mirror the paper's platform:
/// private memory at 0, shared memory at `0x1000_0000`, MMIO at `0xFFFF_0000`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AddressMap {
    ranges: Vec<MappedRange>,
}

/// Default base address of the shared main memory.
pub const SHARED_BASE: u32 = 0x1000_0000;
/// Default base address of the MMIO window.
pub const MMIO_BASE: u32 = 0xFFFF_0000;
/// Default size of the MMIO window.
pub const MMIO_SIZE: u32 = 0x1000;

impl AddressMap {
    /// Builds an address map from explicit ranges.
    ///
    /// # Errors
    ///
    /// Returns [`MemConfigError`] if a range is empty-sized, wraps the
    /// address space, or overlaps another.
    pub fn new(ranges: Vec<MappedRange>) -> Result<AddressMap, MemConfigError> {
        for r in &ranges {
            if r.size == 0 {
                return Err(MemConfigError::ZeroSizedRange { base: r.base });
            }
            if r.base.checked_add(r.size - 1).is_none() {
                return Err(MemConfigError::WrappingRange { base: r.base });
            }
        }
        for (i, a) in ranges.iter().enumerate() {
            for b in &ranges[i + 1..] {
                let a_end = a.base as u64 + a.size as u64;
                let b_end = b.base as u64 + b.size as u64;
                if (a.base as u64) < b_end && (b.base as u64) < a_end {
                    return Err(MemConfigError::OverlappingRanges { a: *a, b: *b });
                }
            }
        }
        Ok(AddressMap { ranges })
    }

    /// The paper's default map: `priv_size` bytes of private memory at 0
    /// (cacheable), `shared_size` bytes of shared memory at
    /// [`SHARED_BASE`] (`shared_cacheable` selectable), MMIO window.
    pub fn paper_default(priv_size: u32, shared_size: u32, shared_cacheable: bool) -> AddressMap {
        AddressMap::new(vec![
            MappedRange { base: 0, size: priv_size, target: RangeTarget::Private, cacheable: true },
            MappedRange { base: SHARED_BASE, size: shared_size, target: RangeTarget::Shared, cacheable: shared_cacheable },
            MappedRange { base: MMIO_BASE, size: MMIO_SIZE, target: RangeTarget::Mmio, cacheable: false },
        ])
        .expect("default map is disjoint")
    }

    /// Finds the range containing `addr`.
    #[inline]
    pub fn lookup(&self, addr: u32) -> Option<&MappedRange> {
        self.ranges.iter().find(|r| r.contains(addr))
    }

    /// Iterates over all ranges.
    pub fn iter(&self) -> impl Iterator<Item = &MappedRange> {
        self.ranges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_map_routes() {
        let m = AddressMap::paper_default(64 * 1024, 1024 * 1024, false);
        assert_eq!(m.lookup(0x100).unwrap().target, RangeTarget::Private);
        assert_eq!(m.lookup(SHARED_BASE + 4).unwrap().target, RangeTarget::Shared);
        assert_eq!(m.lookup(MMIO_BASE).unwrap().target, RangeTarget::Mmio);
        assert!(m.lookup(0x0800_0000).is_none(), "hole between ranges");
        assert!(!m.lookup(SHARED_BASE).unwrap().cacheable);
        assert!(m.lookup(0).unwrap().cacheable);
    }

    #[test]
    fn contains_and_offset() {
        let r = MappedRange { base: 0x1000, size: 0x100, target: RangeTarget::Shared, cacheable: false };
        assert!(r.contains(0x1000));
        assert!(r.contains(0x10FF));
        assert!(!r.contains(0x1100));
        assert!(!r.contains(0xFFF));
        assert_eq!(r.offset(0x1010), 0x10);
    }

    #[test]
    fn overlap_rejected() {
        let e = AddressMap::new(vec![
            MappedRange { base: 0, size: 0x200, target: RangeTarget::Private, cacheable: true },
            MappedRange { base: 0x100, size: 0x100, target: RangeTarget::Shared, cacheable: false },
        ]);
        assert!(e.is_err());
    }

    #[test]
    fn zero_size_rejected() {
        let e = AddressMap::new(vec![MappedRange { base: 0, size: 0, target: RangeTarget::Private, cacheable: true }]);
        assert!(e.is_err());
    }

    #[test]
    fn wrapping_range_rejected() {
        let e = AddressMap::new(vec![MappedRange {
            base: 0xFFFF_FFF0,
            size: 0x100,
            target: RangeTarget::Mmio,
            cacheable: false,
        }]);
        assert!(e.is_err());
    }

    #[test]
    fn range_display() {
        let r = MappedRange { base: 0, size: 16, target: RangeTarget::Private, cacheable: true };
        let s = r.to_string();
        assert!(s.contains("Private") && s.contains("cacheable"));
    }
}
