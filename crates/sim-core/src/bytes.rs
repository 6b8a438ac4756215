//! Byte quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
const GIB: u64 = 1024 * MIB;
const TIB: u64 = 1024 * GIB;

/// A non-negative quantity of bytes.
///
/// The paper quotes capacities and rates in GB (80 GB / 120 GB disks,
/// 0.5 GB/hr arrivals); we interpret these as binary gigabytes (GiB) —
/// the distinction does not affect any qualitative result.
///
/// # Examples
///
/// ```
/// use sim_core::ByteSize;
///
/// let disk = ByteSize::from_gib(80);
/// let object = ByteSize::from_mib(450);
/// assert!(disk > object);
/// assert_eq!(ByteSize::from_gib(1), ByteSize::from_mib(1024));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size of `bytes` bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size of `kib` binary kilobytes.
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize(kib * KIB)
    }

    /// Creates a size of `mib` binary megabytes.
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * MIB)
    }

    /// Creates a size of `gib` binary gigabytes.
    pub const fn from_gib(gib: u64) -> Self {
        ByteSize(gib * GIB)
    }

    /// Creates a size of `tib` binary terabytes.
    pub const fn from_tib(tib: u64) -> Self {
        ByteSize(tib * TIB)
    }

    /// The size in bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// The size in fractional GiB.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// True if this is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub const fn checked_sub(self, rhs: ByteSize) -> Option<ByteSize> {
        match self.0.checked_sub(rhs.0) {
            Some(b) => Some(ByteSize(b)),
            None => None,
        }
    }

    /// The ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn ratio(self, other: ByteSize) -> f64 {
        assert!(!other.is_zero(), "division by zero-byte size");
        self.0 as f64 / other.0 as f64
    }
}

impl Add for ByteSize {
    type Output = ByteSize;

    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;

    /// # Panics
    ///
    /// Panics on underflow; use [`ByteSize::saturating_sub`] otherwise.
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(
            self.0
                .checked_sub(rhs.0)
                .expect("ByteSize subtraction underflow"),
        )
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        *self = *self - rhs;
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= TIB {
            write!(f, "{:.2} TiB", b as f64 / TIB as f64)
        } else if b >= GIB {
            write!(f, "{:.2} GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_are_consistent() {
        assert_eq!(ByteSize::from_kib(1).as_bytes(), 1024);
        assert_eq!(ByteSize::from_mib(1), ByteSize::from_kib(1024));
        assert_eq!(ByteSize::from_gib(1), ByteSize::from_mib(1024));
        assert_eq!(ByteSize::from_tib(1), ByteSize::from_gib(1024));
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: ByteSize = [ByteSize::from_mib(1), ByteSize::from_mib(3)]
            .into_iter()
            .sum();
        assert_eq!(total, ByteSize::from_mib(4));
        assert_eq!(total - ByteSize::from_mib(1), ByteSize::from_mib(3));
        assert_eq!(
            ByteSize::from_mib(1).saturating_sub(ByteSize::from_mib(2)),
            ByteSize::ZERO
        );
        assert_eq!(
            ByteSize::from_mib(1).checked_sub(ByteSize::from_mib(2)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = ByteSize::from_mib(1) - ByteSize::from_mib(2);
    }

    #[test]
    fn fractional_accessors() {
        assert_eq!(ByteSize::from_gib(2).as_gib_f64(), 2.0);
        assert_eq!(ByteSize::from_mib(512).as_gib_f64(), 0.5);
        assert_eq!(ByteSize::from_gib(80).ratio(ByteSize::from_gib(40)), 2.0);
    }

    #[test]
    fn display_picks_a_sensible_unit() {
        assert_eq!(ByteSize::from_bytes(100).to_string(), "100 B");
        assert_eq!(ByteSize::from_kib(2).to_string(), "2.00 KiB");
        assert_eq!(ByteSize::from_mib(3).to_string(), "3.00 MiB");
        assert_eq!(ByteSize::from_gib(80).to_string(), "80.00 GiB");
        assert_eq!(ByteSize::from_tib(58).to_string(), "58.00 TiB");
    }
}
