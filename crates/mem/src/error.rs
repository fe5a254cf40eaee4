//! Typed configuration errors of the memory hierarchy.
//!
//! Runtime access faults keep their own type ([`MemError`](crate::MemError));
//! this module covers *construction-time* validation: cache geometry and
//! address-map consistency.

use crate::map::MappedRange;
use std::error::Error;
use std::fmt;

/// Why a [`CacheConfig`](crate::CacheConfig) or
/// [`AddressMap`](crate::AddressMap) failed validation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum MemConfigError {
    /// Cache capacity is not a power of two.
    CacheSizeNotPowerOfTwo {
        /// The offending capacity in bytes.
        size_bytes: u32,
    },
    /// Cache line size is not a power of two of at least 4 bytes.
    CacheLineInvalid {
        /// The offending line size in bytes.
        line_bytes: u32,
    },
    /// The ways do not split the capacity into a power-of-two number of
    /// sets (at least one) with no bytes left over.
    CacheGeometry {
        /// Capacity in bytes.
        size_bytes: u32,
        /// Associativity.
        ways: u32,
        /// Line size in bytes.
        line_bytes: u32,
    },
    /// Cache hit latency of zero cycles.
    CacheZeroHitLatency,
    /// An address-map range with zero bytes.
    ZeroSizedRange {
        /// Base address of the offending range.
        base: u32,
    },
    /// An address-map range that wraps past the end of the address space.
    WrappingRange {
        /// Base address of the offending range.
        base: u32,
    },
    /// Two address-map ranges overlap.
    OverlappingRanges {
        /// The two offending ranges.
        a: MappedRange,
        /// The two offending ranges.
        b: MappedRange,
    },
}

impl fmt::Display for MemConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemConfigError::CacheSizeNotPowerOfTwo { size_bytes } => {
                write!(f, "cache size {size_bytes} is not a power of two")
            }
            MemConfigError::CacheLineInvalid { line_bytes } => {
                write!(f, "line size {line_bytes} must be a power of two >= 4")
            }
            MemConfigError::CacheGeometry { size_bytes, ways, line_bytes } => {
                write!(f, "capacity {size_bytes} does not split into a power-of-two number of sets of {ways} way(s) of {line_bytes}-byte lines")
            }
            MemConfigError::CacheZeroHitLatency => write!(f, "hit latency must be at least 1 cycle"),
            MemConfigError::ZeroSizedRange { base } => write!(f, "range at {base:#010x} has zero size"),
            MemConfigError::WrappingRange { base } => {
                write!(f, "range at {base:#010x} wraps the address space")
            }
            MemConfigError::OverlappingRanges { a, b } => write!(f, "ranges {a} and {b} overlap"),
        }
    }
}

impl Error for MemConfigError {}
