//! The [`Key`] abstraction over the unsigned integer key types used by SOSD.
//!
//! The SOSD benchmark (and the Shift-Table paper) evaluates datasets of 32-bit
//! and 64-bit unsigned integer keys. Every index in this workspace is generic
//! over [`Key`] so both widths share one implementation while keeping the
//! memory-footprint difference that the paper's 32-vs-64-bit rows reflect.

use std::fmt::{Debug, Display};
use std::hash::Hash;

/// An unsigned integer key type usable by every index in the workspace.
///
/// The trait exposes the handful of conversions the learned models need:
/// a widening conversion to `u64` (for exact integer arithmetic) and to `f64`
/// (for CDF model fitting / interpolation).
pub trait Key: Copy + Ord + Eq + Hash + Debug + Display + Send + Sync + Default + 'static {
    /// Number of value bits in the key type (32 or 64).
    const BITS: u32;
    /// Smallest representable key.
    const MIN_KEY: Self;
    /// Largest representable key.
    const MAX_KEY: Self;

    /// Widen to `u64` (lossless).
    fn to_u64(self) -> u64;

    /// Narrow from `u64`, saturating at the type's maximum.
    fn from_u64_saturating(v: u64) -> Self;

    /// Convert to `f64` for model arithmetic. Precision loss above 2^53 is
    /// acceptable for CDF *prediction* (the prediction is corrected anyway).
    ///
    /// Below 2^63 the value converts through `i64`, one instruction on
    /// baseline x86-64 where `u64 as f64` is a branchy sequence; both round
    /// to nearest, so the result is `self.to_u64() as f64` bit for bit.
    #[inline]
    fn to_f64(self) -> f64 {
        let v = self.to_u64();
        if v >> 63 == 0 {
            v as i64 as f64
        } else {
            v as f64
        }
    }

    /// Size of one key in bytes on the physical layout.
    #[inline]
    fn size_bytes() -> usize {
        (Self::BITS / 8) as usize
    }

    /// Midpoint between two keys without overflow, used by search routines.
    #[inline]
    fn midpoint(self, other: Self) -> Self {
        let (a, b) = (self.to_u64(), other.to_u64());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Self::from_u64_saturating(lo + (hi - lo) / 2)
    }

    /// Checked distance `self - other` as `u64`, `None` if `other > self`.
    #[inline]
    fn distance_from(self, other: Self) -> Option<u64> {
        self.to_u64().checked_sub(other.to_u64())
    }

    /// The smallest key strictly greater than `self`, or `None` for the
    /// maximum key. Lets range queries locate their end with a second
    /// lower-bound probe: the upper bound of `q` is the lower bound of
    /// `q.checked_next()`.
    #[inline]
    fn checked_next(self) -> Option<Self> {
        if self == Self::MAX_KEY {
            None
        } else {
            Some(Self::from_u64_saturating(self.to_u64() + 1))
        }
    }
}

impl Key for u32 {
    const BITS: u32 = 32;
    const MIN_KEY: Self = u32::MIN;
    const MAX_KEY: Self = u32::MAX;

    #[inline]
    fn to_u64(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_u64_saturating(v: u64) -> Self {
        if v > u32::MAX as u64 {
            u32::MAX
        } else {
            v as u32
        }
    }
}

impl Key for u64 {
    const BITS: u32 = 64;
    const MIN_KEY: Self = u64::MIN;
    const MAX_KEY: Self = u64::MAX;

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }

    #[inline]
    fn from_u64_saturating(v: u64) -> Self {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip_and_saturation() {
        assert_eq!(u32::from_u64_saturating(17), 17u32);
        assert_eq!(u32::from_u64_saturating(u64::MAX), u32::MAX);
        assert_eq!(42u32.to_u64(), 42u64);
        assert_eq!(u32::BITS, 32);
        assert_eq!(u32::size_bytes(), 4);
    }

    #[test]
    fn u64_roundtrip() {
        assert_eq!(u64::from_u64_saturating(u64::MAX), u64::MAX);
        assert_eq!(u64::size_bytes(), 8);
    }

    #[test]
    fn midpoint_no_overflow() {
        assert_eq!(u64::MAX.midpoint(u64::MAX - 2), u64::MAX - 1);
        assert_eq!(0u32.midpoint(10), 5);
        assert_eq!(10u32.midpoint(0), 5);
        assert_eq!(7u64.midpoint(7), 7);
    }

    #[test]
    fn distance_from() {
        assert_eq!(10u64.distance_from(3), Some(7));
        assert_eq!(3u64.distance_from(10), None);
        assert_eq!(5u32.distance_from(5), Some(0));
    }

    #[test]
    fn checked_next_is_the_successor() {
        assert_eq!(41u64.checked_next(), Some(42));
        assert_eq!(u64::MAX.checked_next(), None);
        assert_eq!(u32::MAX.checked_next(), None);
        assert_eq!((u32::MAX - 1).checked_next(), Some(u32::MAX));
        assert_eq!(0u32.checked_next(), Some(1));
    }

    #[test]
    fn to_f64_rounds_like_the_unsigned_conversion() {
        let p53 = 1u64 << 53;
        let p63 = 1u64 << 63;
        let edges = [0, p53 - 1, p53, p53 + 1, p63 - 1, p63, u64::MAX];
        let powers = (0..64).map(|b| 1u64 << b).flat_map(|p| [p - 1, p, p + 1]);
        for v in edges.into_iter().chain(powers) {
            assert_eq!(v.to_f64().to_bits(), (v as f64).to_bits(), "{v}");
            let w = v as u32;
            assert_eq!(w.to_f64().to_bits(), (w as f64).to_bits(), "{w}");
        }
        for w in [0, 1, u32::MAX - 1, u32::MAX] {
            assert_eq!(w.to_f64().to_bits(), (w as f64).to_bits(), "{w}");
        }
    }

    #[test]
    fn to_f64_small_values_exact() {
        assert_eq!(123_456u64.to_f64(), 123_456.0);
        assert_eq!(u32::MAX.to_f64(), u32::MAX as f64);
    }
}
