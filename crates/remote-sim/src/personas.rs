//! Engine personas: parameter bundles that turn the generic execution
//! model into a Hive-like, Spark-like, or RDBMS-like remote system.

use crate::{exec::Overheads, remote_opt::OptimizerRules, subop_cost::MicroCosts};
use catalog::SystemKind;

/// A complete persona: engine family, hidden micro-costs, scheduling
/// overheads, optimizer rules, and noise level.
#[derive(Debug, Clone)]
pub struct Persona {
    /// Engine family.
    pub kind: SystemKind,
    /// Hidden per-record costs.
    pub(crate) micro: MicroCosts,
    /// Scheduling overheads.
    pub(crate) overheads: Overheads,
    /// Internal optimizer thresholds.
    pub(crate) rules: OptimizerRules,
    /// Relative execution-time noise (std-dev).
    pub(crate) noise_sigma: f64,
}

/// The Hive/Hadoop persona matching the paper's evaluation cluster:
/// heavyweight per-stage startup (YARN job launch), disk-based shuffle.
pub fn hive_persona() -> Persona {
    Persona {
        kind: SystemKind::Hive,
        micro: MicroCosts::hive_baseline(),
        overheads: Overheads {
            stage_startup_us: 2.0e6, // ~2 s per MR stage
            task_startup_us: 5.0e3,  // ~5 ms per task wave
            overlap_residual: 0.55,
        },
        rules: OptimizerRules::hive(),
        noise_sigma: 0.04,
    }
}

/// A Spark-SQL persona: the same cluster runs everything roughly 40 %
/// faster per record (in-memory exchange), with far cheaper scheduling.
pub fn spark_persona() -> Persona {
    let mut micro = MicroCosts::hive_baseline().scaled(0.6);
    // Spark's shuffle avoids the disk round-trip entirely.
    micro.shuffle = micro.shuffle.scaled(0.5);
    Persona {
        kind: SystemKind::Spark,
        micro,
        overheads: Overheads {
            stage_startup_us: 3.0e5, // ~0.3 s per stage
            task_startup_us: 2.0e3,  // ~2 ms per wave
            overlap_residual: 0.50,
        },
        rules: OptimizerRules::spark(),
        noise_sigma: 0.04,
    }
}

/// A Presto-like persona: an MPP SQL engine with fully pipelined,
/// memory-resident execution — no per-stage materialisation at all, so
/// scheduling overheads are minimal and shuffles are pure network
/// transfers. Presto's join menu matches Spark's hash-based family here.
pub fn presto_persona() -> Persona {
    let mut micro = MicroCosts::hive_baseline().scaled(0.45);
    micro.shuffle = micro.shuffle.scaled(0.45);
    Persona {
        kind: SystemKind::Spark, // same algorithm family and rule set
        micro,
        overheads: Overheads {
            stage_startup_us: 5.0e4, // ~50 ms per stage
            task_startup_us: 1.0e3,
            overlap_residual: 0.40,
        },
        rules: OptimizerRules::spark(),
        noise_sigma: 0.04,
    }
}

/// A single-node RDBMS persona: no DFS, no job scheduling to speak of,
/// fast local I/O.
pub fn rdbms_persona() -> Persona {
    let mut micro = MicroCosts::hive_baseline().scaled(0.5);
    micro.read_local = micro.read_local.scaled(0.6);
    micro.write_local = micro.write_local.scaled(0.6);
    Persona {
        kind: SystemKind::Rdbms,
        micro,
        overheads: Overheads {
            stage_startup_us: 5.0e3, // ~5 ms
            task_startup_us: 1.0e3,
            overlap_residual: 0.40,
        },
        rules: OptimizerRules::rdbms(),
        noise_sigma: 0.03,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn personas_have_distinct_cost_profiles() {
        let h = hive_persona();
        let s = spark_persona();
        let r = rdbms_persona();
        assert!(s.micro.read_dfs.per_record(500.0) < h.micro.read_dfs.per_record(500.0));
        assert!(s.overheads.stage_startup_us < h.overheads.stage_startup_us);
        assert!(r.overheads.stage_startup_us < s.overheads.stage_startup_us);
        assert_eq!(h.kind, SystemKind::Hive);
        assert_eq!(s.kind, SystemKind::Spark);
        assert_eq!(r.kind, SystemKind::Rdbms);
    }

    #[test]
    fn presto_is_the_fastest_distributed_persona() {
        let s = spark_persona();
        let p = presto_persona();
        assert!(p.micro.read_dfs.per_record(500.0) < s.micro.read_dfs.per_record(500.0));
        assert!(p.overheads.stage_startup_us < s.overheads.stage_startup_us);
    }

    #[test]
    fn spark_shuffle_discount_is_compounded() {
        let h = hive_persona();
        let s = spark_persona();
        let ratio = s.micro.shuffle.per_record(500.0) / h.micro.shuffle.per_record(500.0);
        assert!((ratio - 0.3).abs() < 1e-9, "ratio {ratio}");
    }
}
