//! QueryGrid-style transfer costing.
//!
//! §2 (footnote): "Teradata can estimate the amount of data that need to
//! be sent to the remote system as well as the output size that will be
//! sent back to Teradata. Based on these estimates, other costs such as
//! the network cost and data transfer are estimated." The costing module
//! proper does not learn these (out of scope for the paper); the master
//! engine uses this simple analytical model when combining costs.

use catalog::SystemId;
use serde::{Deserialize, Serialize};

/// QueryGrid hop count between two systems: 0 co-located, 1 when either
/// side is the Teradata master, 2 for remote→Teradata→remote (there are
/// no direct remote-to-remote links). The single source of this rule —
/// placement enumeration and workload re-costing both call it.
pub(crate) fn hops_between(from: &SystemId, to: &SystemId) -> u32 {
    if from == to {
        0
    } else if *from == SystemId::master() || *to == SystemId::master() {
        1
    } else {
        2
    }
}

/// A linear connection-latency + bandwidth transfer model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferCostModel {
    /// Fixed per-transfer latency (connection setup, handshake), seconds.
    pub(crate) setup_secs: f64,
    /// Effective QueryGrid bandwidth, bytes per second.
    pub(crate) bytes_per_sec: f64,
}

impl Default for TransferCostModel {
    fn default() -> Self {
        // A 10 GbE link at ~60 % goodput.
        TransferCostModel {
            setup_secs: 0.5,
            bytes_per_sec: 750.0e6,
        }
    }
}

impl TransferCostModel {
    /// Time to move `bytes` over one hop.
    pub(crate) fn hop_secs(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        self.setup_secs + bytes / self.bytes_per_sec
    }

    /// Time to move `bytes` over `hops` hops (remote→Teradata→remote = 2).
    pub fn transfer_secs(&self, bytes: f64, hops: u32) -> f64 {
        self.hop_secs(bytes) * hops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        let m = TransferCostModel::default();
        assert_eq!(m.hop_secs(0.0), 0.0);
        assert_eq!(m.transfer_secs(0.0, 2), 0.0);
    }

    #[test]
    fn cost_scales_with_bytes_and_hops() {
        let m = TransferCostModel {
            setup_secs: 1.0,
            bytes_per_sec: 100.0,
        };
        assert_eq!(m.hop_secs(200.0), 3.0);
        assert_eq!(m.transfer_secs(200.0, 2), 6.0);
    }

    #[test]
    fn hop_counts_route_through_the_master() {
        let a = SystemId::new("hive-a");
        let b = SystemId::new("spark-b");
        let td = SystemId::master();
        assert_eq!(hops_between(&a, &a), 0);
        assert_eq!(hops_between(&a, &td), 1);
        assert_eq!(hops_between(&td, &b), 1);
        assert_eq!(hops_between(&a, &b), 2);
    }
}
