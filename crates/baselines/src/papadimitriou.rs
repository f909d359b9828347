//! Papadimitriou et al.'s storage-media reconfiguration-time model \[7\].
//!
//! The TRETS survey models PRR reconfiguration time as the bitstream read
//! from its storage medium plus the configuration-port transfer, with the
//! storage medium usually dominating. The paper under reproduction notes
//! the model "had a 30 % to 60 % error as compared to the measured
//! reconfiguration times".

use bitstream::IcapModel;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Where the partial bitstream lives before reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageMedium {
    /// CompactFlash card through SystemACE (slow, common on dev boards).
    CompactFlash,
    /// On-chip BRAM staging (fast, capacity-limited).
    Bram,
    /// DDR SDRAM via DMA.
    DdrSdram,
    /// Linear/parallel flash.
    ParallelFlash,
}

impl StorageMedium {
    /// Sustained read throughput in bytes/second (order-of-magnitude
    /// values from the survey's measurements).
    pub fn read_bytes_per_sec(self) -> f64 {
        match self {
            StorageMedium::CompactFlash => 1.5e6,
            StorageMedium::Bram => 800.0e6,
            StorageMedium::DdrSdram => 200.0e6,
            StorageMedium::ParallelFlash => 20.0e6,
        }
    }

    /// All media, for sweeps.
    pub const ALL: [StorageMedium; 4] = [
        StorageMedium::CompactFlash,
        StorageMedium::Bram,
        StorageMedium::DdrSdram,
        StorageMedium::ParallelFlash,
    ];
}

/// The storage-media reconfiguration-time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PapadimitriouModel {
    /// Bitstream storage medium.
    pub medium: StorageMedium,
    /// Configuration port.
    pub port: IcapModel,
    /// Whether the fetch and the port transfer are pipelined (overlap) or
    /// sequential.
    pub overlapped: bool,
}

impl PapadimitriouModel {
    /// Model with a DMA-fed Virtex-5 ICAP.
    pub fn new(medium: StorageMedium, overlapped: bool) -> Self {
        PapadimitriouModel {
            medium,
            port: IcapModel::V5_DMA,
            overlapped,
        }
    }

    /// Estimated reconfiguration time for a partial bitstream of `bytes`.
    pub fn estimate(&self, bytes: u64) -> Duration {
        let fetch = bytes as f64 / self.medium.read_bytes_per_sec();
        let transfer = bytes as f64 / self.port.effective_bytes_per_sec();
        let secs = if self.overlapped {
            fetch.max(transfer)
        } else {
            fetch + transfer
        };
        Duration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_media_dominate() {
        let cf = PapadimitriouModel::new(StorageMedium::CompactFlash, false);
        let bram = PapadimitriouModel::new(StorageMedium::Bram, false);
        let bytes = 157_272; // MIPS/V5 partial bitstream
        assert!(cf.estimate(bytes) > bram.estimate(bytes) * 50);
    }

    #[test]
    fn overlap_never_slower() {
        for m in StorageMedium::ALL {
            let seq = PapadimitriouModel::new(m, false);
            let ovl = PapadimitriouModel::new(m, true);
            assert!(ovl.estimate(100_000) <= seq.estimate(100_000), "{m:?}");
        }
    }

    #[test]
    fn linear_in_bytes() {
        let m = PapadimitriouModel::new(StorageMedium::ParallelFlash, false);
        let t1 = m.estimate(10_000).as_secs_f64();
        let t2 = m.estimate(20_000).as_secs_f64();
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
