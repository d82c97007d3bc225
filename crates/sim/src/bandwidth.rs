//! Bandwidth and byte-volume units.
//!
//! All simulator math is done in bytes and seconds (`f64`); this module wraps
//! the results in small newtypes so call sites cannot mix up units and so the
//! paper's GB/s figures can be displayed directly.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// 2^30 bytes. The paper (and most memory literature) reports "GB/s" as
/// GiB/s; we follow that convention in [`Bandwidth::gib_s`].
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// 2^20 bytes.
pub const MIB: f64 = 1024.0 * 1024.0;

/// A data rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Construct from raw bytes per second.
    #[inline]
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        debug_assert!(
            bps.is_finite() && bps >= 0.0,
            "bandwidth must be finite and non-negative: {bps}"
        );
        Bandwidth(bps.max(0.0))
    }

    /// Construct from GiB/s (the unit the paper plots).
    #[inline]
    pub fn from_gib_s(gib_s: f64) -> Self {
        Self::from_bytes_per_sec(gib_s * GIB)
    }

    /// Raw bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// GiB per second — directly comparable to the paper's y-axes.
    #[inline]
    pub fn gib_s(self) -> f64 {
        self.0 / GIB
    }

    /// Time to move `bytes` at this rate. Returns `f64::INFINITY` for zero
    /// bandwidth so callers can treat an unusable path as "never completes".
    #[inline]
    pub fn time_for_bytes(self, bytes: u64) -> f64 {
        if self.0 <= 0.0 {
            f64::INFINITY
        } else {
            bytes as f64 / self.0
        }
    }

    /// The smaller of two rates (e.g. demand limited by capacity).
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// The larger of two rates.
    #[inline]
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// Scale by a dimensionless efficiency factor.
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.0 * factor)
    }

    /// Apply a fault-injection degradation factor. Unlike [`scale`], the
    /// factor is clamped to `[0, 1]`: a fault can only take bandwidth away,
    /// never create it.
    ///
    /// [`scale`]: Bandwidth::scale
    #[inline]
    pub fn degrade(self, factor: f64) -> Bandwidth {
        self.scale(factor.clamp(0.0, 1.0))
    }
}

/// Effective rate of a stream whose bytes split between two lanes: a
/// fraction `hit` is served at `fast` (the DRAM hot tier) and the rest at
/// `slow` (PMEM). Time adds, so rates combine harmonically:
/// `1 / ((1 - hit) / slow + hit / fast)`.
///
/// Degenerate lanes fall back sensibly: with `hit == 0` the result is
/// `slow`, with `hit == 1` it is `fast`, and a zero-rate lane that still
/// carries bytes yields zero.
pub fn tiered_rate(slow: Bandwidth, fast: Bandwidth, hit: f64) -> Bandwidth {
    let hit = hit.clamp(0.0, 1.0);
    let miss = 1.0 - hit;
    let mut denom = 0.0;
    if miss > 0.0 {
        if slow.bytes_per_sec() <= 0.0 {
            return Bandwidth::ZERO;
        }
        denom += miss / slow.bytes_per_sec();
    }
    if hit > 0.0 {
        if fast.bytes_per_sec() <= 0.0 {
            return Bandwidth::ZERO;
        }
        denom += hit / fast.bytes_per_sec();
    }
    if denom <= 0.0 {
        return slow;
    }
    Bandwidth::from_bytes_per_sec(1.0 / denom)
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.gib_s())
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        self.scale(rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let bw = Bandwidth::from_gib_s(40.0);
        assert!((bw.gib_s() - 40.0).abs() < 1e-12);
        assert!((bw.bytes_per_sec() - 40.0 * GIB).abs() < 1.0);
    }

    #[test]
    fn time_for_bytes_is_inverse_of_rate() {
        let bw = Bandwidth::from_gib_s(10.0);
        let t = bw.time_for_bytes((10.0 * GIB) as u64);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bandwidth_never_completes() {
        assert!(Bandwidth::ZERO.time_for_bytes(1).is_infinite());
    }

    #[test]
    fn arithmetic_saturates_at_zero() {
        let a = Bandwidth::from_gib_s(1.0);
        let b = Bandwidth::from_gib_s(2.0);
        assert_eq!(a - b, Bandwidth::ZERO);
    }

    #[test]
    fn min_max_and_scale() {
        let a = Bandwidth::from_gib_s(1.0);
        let b = Bandwidth::from_gib_s(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!((a.scale(2.0).gib_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_rates() {
        let total: Bandwidth = [1.0, 2.0, 3.0]
            .iter()
            .map(|g| Bandwidth::from_gib_s(*g))
            .sum();
        assert!((total.gib_s() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats_gib() {
        assert_eq!(format!("{}", Bandwidth::from_gib_s(12.5)), "12.50 GB/s");
    }

    #[test]
    fn tiered_rate_mixes_harmonically() {
        let pmem = Bandwidth::from_gib_s(10.0);
        let dram = Bandwidth::from_gib_s(40.0);
        assert_eq!(tiered_rate(pmem, dram, 0.0), pmem);
        assert_eq!(tiered_rate(pmem, dram, 1.0), dram);
        // 50/50 split: 1 / (0.5/10 + 0.5/40) = 16 GiB/s.
        let half = tiered_rate(pmem, dram, 0.5);
        assert!((half.gib_s() - 16.0).abs() < 1e-9, "got {}", half.gib_s());
        // Monotone in the hit rate.
        assert!(tiered_rate(pmem, dram, 0.7) > half);
        // Zero-rate lanes that carry bytes stall the stream.
        assert_eq!(tiered_rate(Bandwidth::ZERO, dram, 0.5), Bandwidth::ZERO);
        assert_eq!(tiered_rate(pmem, Bandwidth::ZERO, 0.5), Bandwidth::ZERO);
        assert_eq!(tiered_rate(pmem, Bandwidth::ZERO, 0.0), pmem);
    }
}
