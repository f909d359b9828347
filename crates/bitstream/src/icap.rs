//! ICAP transfer model: bitstream bytes → reconfiguration time.
//!
//! PRR reconfiguration time is dominated by pushing the partial bitstream
//! through the internal configuration access port. Following Claus et
//! al. \[1\] (cited by the paper), the achievable throughput is the port's
//! ideal rate (width x clock) derated by a *busy factor* modeling shared-
//! resource contention; Duhem et al.'s FaRM \[2\] raises the effective rate
//! with burst/prefetch mastering. The `baselines` crate builds those
//! prior-work comparators on top of this model.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// An ICAP (or external configuration port) transfer model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IcapModel {
    /// Port width in bits (8, 16 or 32 on Virtex-class parts).
    pub width_bits: u32,
    /// Configuration clock in Hz (100 MHz max on Virtex-5/-6).
    pub clock_hz: u64,
    /// Fraction of cycles lost to contention/stalls, in `[0, 1)`.
    /// 0.0 models an ideal DMA-fed ICAP; higher values model processor-
    /// driven transfers (Claus et al. report busy factors up to ~0.9 for
    /// CPU-copied configuration data).
    pub busy_factor: f64,
}

impl IcapModel {
    /// Virtex-5/-6 ICAP at full width and clock, DMA-fed (ideal).
    pub const V5_DMA: IcapModel = IcapModel {
        width_bits: 32,
        clock_hz: 100_000_000,
        busy_factor: 0.0,
    };

    /// Construct, clamping the busy factor into `[0, 0.999]`.
    pub fn new(width_bits: u32, clock_hz: u64, busy_factor: f64) -> Self {
        IcapModel {
            width_bits,
            clock_hz,
            busy_factor: busy_factor.clamp(0.0, 0.999),
        }
    }

    /// Ideal throughput in bytes per second (no contention).
    pub fn ideal_bytes_per_sec(&self) -> f64 {
        self.clock_hz as f64 * f64::from(self.width_bits) / 8.0
    }

    /// Effective throughput after the busy-factor derating.
    ///
    /// The busy factor is re-clamped into `[0, 0.999]` here: the fields
    /// are public, so a literal-constructed model can carry a factor
    /// outside [`IcapModel::new`]'s range (≥ 1.0 or NaN would otherwise
    /// make [`IcapModel::transfer_time`] panic on a non-finite duration).
    pub fn effective_bytes_per_sec(&self) -> f64 {
        let busy = if self.busy_factor.is_finite() {
            self.busy_factor.clamp(0.0, 0.999)
        } else {
            0.0
        };
        self.ideal_bytes_per_sec() * (1.0 - busy)
    }

    /// Time to transfer `bytes` through the port.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        let secs = bytes as f64 / self.effective_bytes_per_sec();
        // A zero-width/zero-clock port yields an infinite time; saturate
        // instead of letting `from_secs_f64` panic.
        Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_v5_throughput_is_400_mb_per_sec() {
        assert_eq!(IcapModel::V5_DMA.ideal_bytes_per_sec(), 400e6);
        assert_eq!(IcapModel::V5_DMA.effective_bytes_per_sec(), 400e6);
    }

    #[test]
    fn busy_factor_derates_linearly() {
        let half = IcapModel::new(32, 100_000_000, 0.5);
        assert_eq!(half.effective_bytes_per_sec(), 200e6);
        let t_ideal = IcapModel::V5_DMA.transfer_time(400_000_000);
        let t_half = half.transfer_time(400_000_000);
        assert!((t_ideal.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((t_half.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    /// Sanity scale: the paper-era bitstreams (tens to hundreds of kB) move
    /// through a DMA-fed ICAP in well under a millisecond.
    #[test]
    fn paper_scale_reconfiguration_times() {
        let t = IcapModel::V5_DMA.transfer_time(157_272); // MIPS/V5 bitstream
        assert!(t < Duration::from_millis(1), "{t:?}");
    }

    #[test]
    fn busy_factor_is_clamped() {
        let m = IcapModel::new(32, 100_000_000, 7.0);
        assert!(m.effective_bytes_per_sec() > 0.0);
        let m2 = IcapModel::new(32, 100_000_000, -3.0);
        assert_eq!(m2.busy_factor, 0.0);
    }

    /// Public fields let callers bypass `new`'s clamping; a saturated
    /// busy factor must not make `transfer_time` panic (regression:
    /// `Duration::from_secs_f64` on a non-finite value).
    #[test]
    fn literal_busy_factor_at_or_above_one_does_not_panic() {
        for busy in [1.0, 2.5, f64::INFINITY, f64::NAN] {
            let m = IcapModel {
                width_bits: 32,
                clock_hz: 100_000_000,
                busy_factor: busy,
            };
            assert!(m.effective_bytes_per_sec() > 0.0, "busy={busy}");
            let t = m.transfer_time(83_040);
            assert!(
                t > Duration::ZERO && t < Duration::from_secs(3600),
                "busy={busy}"
            );
        }
    }

    #[test]
    fn zero_bytes_transfer_in_zero_time() {
        assert_eq!(IcapModel::V5_DMA.transfer_time(0), Duration::ZERO);
        let dead = IcapModel {
            width_bits: 0,
            clock_hz: 0,
            busy_factor: 0.0,
        };
        assert_eq!(dead.transfer_time(0), Duration::ZERO);
        // A dead port saturates rather than panicking for nonzero bytes.
        assert_eq!(dead.transfer_time(1), Duration::MAX);
    }

    #[test]
    fn narrow_port_is_proportionally_slower() {
        let w32 = IcapModel::new(32, 100_000_000, 0.0).transfer_time(1 << 20);
        let w8 = IcapModel::new(8, 100_000_000, 0.0).transfer_time(1 << 20);
        assert!((w8.as_secs_f64() / w32.as_secs_f64() - 4.0).abs() < 1e-9);
    }
}
