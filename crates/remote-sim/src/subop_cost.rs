//! Hidden ground-truth micro-costs.
//!
//! Each sub-operator of Fig. 5 has a true per-record cost that is linear in
//! record size (the paper's measurements, e.g. Fig. 7b's
//! `ReadDFS = 0.0041·s + 0.6323` µs/record), except HashBuild which
//! follows two regimes (Fig. 13f). These constants are the *simulated
//! hardware*: the costing crate never sees them — it has to rediscover
//! them through probe queries, exactly as the paper rediscovers Hive's
//! behaviour through primitive queries.
//!
//! Costs are expressed as **single-core work per record** in microseconds;
//! the execution model divides aggregate work by the cluster's parallelism
//! and adds scheduling overheads.

use serde::{Deserialize, Serialize};

/// Slope/intercept of a per-record cost that is linear in record size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearCost {
    /// µs per byte of record size.
    pub per_byte: f64,
    /// Fixed µs per record.
    pub(crate) base: f64,
}

impl LinearCost {
    /// Cost in µs for one record of `bytes` size.
    pub(crate) fn per_record(&self, bytes: f64) -> f64 {
        (self.per_byte * bytes + self.base).max(0.0)
    }

    /// Total µs for `rows` records of `bytes` size.
    pub(crate) fn total(&self, rows: f64, bytes: f64) -> f64 {
        self.per_record(bytes) * rows
    }

    /// Scales both coefficients (used to derive engine personas from the
    /// Hive baseline).
    pub(crate) fn scaled(&self, k: f64) -> LinearCost {
        LinearCost {
            per_byte: self.per_byte * k,
            base: self.base * k,
        }
    }
}

/// The full micro-cost table for one engine persona.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroCosts {
    /// Reading a record from the distributed file system (`rD`).
    pub(crate) read_dfs: LinearCost,
    /// Writing a record to the distributed file system (`wD`).
    pub write_dfs: LinearCost,
    /// Reading a record from a local file system (`rL`).
    pub(crate) read_local: LinearCost,
    /// Writing a record to a local file system (`wL`).
    pub(crate) write_local: LinearCost,
    /// Shuffling a record between machines (`f`).
    pub(crate) shuffle: LinearCost,
    /// Broadcasting a record to one machine (`b` is this times the node
    /// count).
    pub(crate) broadcast_per_node: LinearCost,
    /// Main-memory sort cost per record (`o`).
    pub(crate) sort: LinearCost,
    /// Main-memory scan cost per record (`c`).
    pub(crate) scan: LinearCost,
    /// Hash-table insert per record, table fits in memory (`hI`, low
    /// regime of Fig. 13f).
    pub(crate) hash_insert_mem: LinearCost,
    /// Hash-table insert per record when the table spills (`hI`, high
    /// regime of Fig. 13f).
    pub(crate) hash_insert_spill: LinearCost,
    /// Hash-table probe per record (`hP`).
    pub(crate) hash_probe: LinearCost,
    /// Merging two records (`m`).
    pub(crate) rec_merge: LinearCost,
    /// Per-aggregate-function evaluation cost per record (drives the
    /// Fig. 10 "1 to 5 SUM()" dimension).
    pub(crate) agg_eval: LinearCost,
}

impl MicroCosts {
    /// The Hive/Hadoop baseline, anchored to the per-record measurements
    /// the paper reports in Figs. 7 and 13.
    pub fn hive_baseline() -> Self {
        MicroCosts {
            read_dfs: LinearCost {
                per_byte: 0.0041,
                base: 0.6323,
            },
            write_dfs: LinearCost {
                per_byte: 0.0314,
                base: 0.7403,
            },
            read_local: LinearCost {
                per_byte: 0.0016,
                base: 0.2500,
            },
            write_local: LinearCost {
                per_byte: 0.0100,
                base: 0.4000,
            },
            shuffle: LinearCost {
                per_byte: 0.0126,
                base: 5.2551,
            },
            broadcast_per_node: LinearCost {
                per_byte: 0.0105,
                base: 4.2000,
            },
            sort: LinearCost {
                per_byte: 0.0040,
                base: 1.2000,
            },
            scan: LinearCost {
                per_byte: 0.0008,
                base: 0.1500,
            },
            hash_insert_mem: LinearCost {
                per_byte: 0.0248,
                base: 18.241,
            },
            hash_insert_spill: LinearCost {
                per_byte: 0.1821,
                base: -51.614,
            },
            hash_probe: LinearCost {
                per_byte: 0.0100,
                base: 2.0000,
            },
            rec_merge: LinearCost {
                per_byte: 0.0344,
                base: 36.701,
            },
            agg_eval: LinearCost {
                per_byte: 0.0002,
                base: 0.8000,
            },
        }
    }

    /// Hash-insert cost per record given the record size and whether the
    /// table fits in the per-task memory budget. The spill line crosses
    /// below the in-memory line for small records (the paper's fitted
    /// intercept is negative), so the spill cost is floored at the
    /// in-memory cost.
    pub(crate) fn hash_insert(&self, bytes: f64, fits_in_memory: bool) -> f64 {
        let mem = self.hash_insert_mem.per_record(bytes);
        if fits_in_memory {
            mem
        } else {
            self.hash_insert_spill.per_record(bytes).max(mem)
        }
    }

    /// Broadcast cost per record to `nodes` machines.
    pub(crate) fn broadcast(&self, bytes: f64, nodes: u32) -> f64 {
        self.broadcast_per_node.per_record(bytes) * nodes as f64
    }

    /// Uniformly scales every cost (used to derive faster personas).
    pub(crate) fn scaled(&self, k: f64) -> MicroCosts {
        MicroCosts {
            read_dfs: self.read_dfs.scaled(k),
            write_dfs: self.write_dfs.scaled(k),
            read_local: self.read_local.scaled(k),
            write_local: self.write_local.scaled(k),
            shuffle: self.shuffle.scaled(k),
            broadcast_per_node: self.broadcast_per_node.scaled(k),
            sort: self.sort.scaled(k),
            scan: self.scan.scaled(k),
            hash_insert_mem: self.hash_insert_mem.scaled(k),
            hash_insert_spill: self.hash_insert_spill.scaled(k),
            hash_probe: self.hash_probe.scaled(k),
            rec_merge: self.rec_merge.scaled(k),
            agg_eval: self.agg_eval.scaled(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_cost_matches_paper_read_dfs_line() {
        let c = MicroCosts::hive_baseline().read_dfs;
        // Fig. 7b: y = 0.0041x + 0.6323; at 1000 bytes ≈ 4.73 µs.
        assert!((c.per_record(1000.0) - 4.7323).abs() < 1e-9);
        assert!((c.total(2.0, 1000.0) - 9.4646).abs() < 1e-9);
    }

    #[test]
    fn spill_regime_floored_at_memory_cost() {
        let m = MicroCosts::hive_baseline();
        // At small record sizes the spill line (negative intercept) would be
        // below the in-memory line; the floor keeps spill >= in-memory.
        let small = m.hash_insert(100.0, false);
        assert!(small >= m.hash_insert(100.0, true));
        // At 1000 bytes the spill regime is distinctly more expensive
        // (Fig. 13f: 0.1821·1000 − 51.6 ≈ 130 vs 0.0248·1000 + 18.2 ≈ 43).
        let spill = m.hash_insert(1000.0, false);
        let mem = m.hash_insert(1000.0, true);
        assert!(spill > 2.0 * mem, "spill {spill} vs mem {mem}");
    }

    #[test]
    fn broadcast_scales_with_nodes() {
        let m = MicroCosts::hive_baseline();
        assert!(
            (m.broadcast(100.0, 3) - 3.0 * m.broadcast_per_node.per_record(100.0)).abs() < 1e-12
        );
    }

    #[test]
    fn negative_costs_clamped() {
        let c = LinearCost {
            per_byte: 0.1,
            base: -100.0,
        };
        assert_eq!(c.per_record(10.0), 0.0);
    }

    #[test]
    fn scaled_scales_everything() {
        let m = MicroCosts::hive_baseline().scaled(0.5);
        let base = MicroCosts::hive_baseline();
        assert!(
            (m.read_dfs.per_record(500.0) - 0.5 * base.read_dfs.per_record(500.0)).abs() < 1e-12
        );
        assert!(
            (m.rec_merge.per_record(40.0) - 0.5 * base.rec_merge.per_record(40.0)).abs() < 1e-12
        );
    }
}
