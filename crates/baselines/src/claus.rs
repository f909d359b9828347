//! Claus et al.'s ICAP busy-factor model \[1\].
//!
//! Reconfiguration time is modeled from the ICAP's ideal rate derated by a
//! measured *busy factor* — the fraction of cycles the port stalls waiting
//! for configuration data. The paper under reproduction points out the
//! model "is only valid if the ICAP is the limiting factor during
//! reconfiguration".

use bitstream::IcapModel;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Busy-factor presets measured by Claus et al. per data-supply path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SupplyPath {
    /// Processor copies words to the ICAP (heavily stalled).
    CpuCopy,
    /// Bus-master DMA feeds the ICAP.
    BusMasterDma,
    /// Dedicated streaming controller (near-zero stalls).
    Streaming,
}

impl SupplyPath {
    /// Busy factor for the path.
    pub fn busy_factor(self) -> f64 {
        match self {
            SupplyPath::CpuCopy => 0.88,
            SupplyPath::BusMasterDma => 0.25,
            SupplyPath::Streaming => 0.02,
        }
    }
}

/// The busy-factor reconfiguration-time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClausModel {
    /// Underlying port.
    pub port: IcapModel,
    /// Data-supply path determining the busy factor.
    pub path: SupplyPath,
}

impl ClausModel {
    /// Model over a full-width Virtex-5 ICAP.
    pub fn new(path: SupplyPath) -> Self {
        ClausModel {
            port: IcapModel::new(32, 100_000_000, path.busy_factor()),
            path,
        }
    }

    /// Estimated reconfiguration time for `bytes`.
    pub fn estimate(&self, bytes: u64) -> Duration {
        self.port.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_copy_is_an_order_slower_than_streaming() {
        let cpu = ClausModel::new(SupplyPath::CpuCopy);
        let stream = ClausModel::new(SupplyPath::Streaming);
        let t_cpu = cpu.estimate(100_000).as_secs_f64();
        let t_stream = stream.estimate(100_000).as_secs_f64();
        assert!(t_cpu / t_stream > 7.0, "{t_cpu} vs {t_stream}");
    }

    #[test]
    fn estimates_scale_with_busy_factor() {
        let bytes = 83_040;
        let dma = ClausModel::new(SupplyPath::BusMasterDma)
            .estimate(bytes)
            .as_secs_f64();
        let stream = ClausModel::new(SupplyPath::Streaming)
            .estimate(bytes)
            .as_secs_f64();
        let ratio = dma / stream;
        let expected = (1.0 - 0.02) / (1.0 - 0.25);
        // Duration has nanosecond resolution, so allow ~1e-3 slack.
        assert!((ratio - expected).abs() < 1e-3, "{ratio} vs {expected}");
    }
}
