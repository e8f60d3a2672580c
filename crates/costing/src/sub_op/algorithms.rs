//! The expert-authored cost formulas per physical algorithm.
//!
//! §4: "it is important for a technical expert to know the list of
//! physical algorithms that are supported by the remote system for a
//! given query operator … Each of these algorithms need to be expressed
//! in terms of the defined sub operators." Figure 6 spells out the
//! broadcast-join composition; the others follow the same method.
//!
//! These formulas deliberately model the *naive serial composition* of
//! sub-op work — they do not know about I/O↔CPU overlap inside a task,
//! which is why the sub-op approach "slightly tends to overestimate the
//! cost" (§7, Fig. 13g).

use crate::sub_op::formula::{hash_build, subop, CostFormula, DimRef, Qty, Term};
use crate::sub_op::subop::SubOp;
use catalog::remote::JoinAlgorithm;
use catalog::SystemKind;

use DimRef::*;

fn d(r: DimRef) -> Qty {
    Qty::dim(r)
}

/// `small_rows × blocks(big)` — the hash table is rebuilt by every map
/// task (Fig. 6: the per-task loop multiplied by NumTaskWaves).
fn small_times_big_blocks() -> Qty {
    d(SmallRows).mul(Qty::blocks(BigRows, BigRowBytes))
}

fn small_table_bytes() -> Qty {
    d(SmallRows).mul(d(SmallRowBytes))
}

/// Map tasks of a two-input job: blocks(R) + blocks(S).
fn both_side_tasks() -> Qty {
    Qty::blocks(BigRows, BigRowBytes).add(Qty::blocks(SmallRows, SmallRowBytes))
}

/// The shared shuffle/sort-merge body (Hive Shuffle Join, Spark SortMerge
/// Join): map read + local sort spill, shuffle, reduce merge, write.
fn shuffle_sort_merge_terms() -> Vec<Term> {
    vec![
        subop(SubOp::ReadDfs, d(BigRows), d(BigRowBytes)),
        subop(SubOp::ReadDfs, d(SmallRows), d(SmallRowBytes)),
        subop(SubOp::WriteLocal, d(BigRows), d(BigProjBytes)),
        subop(SubOp::WriteLocal, d(SmallRows), d(SmallProjBytes)),
        subop(SubOp::Scan, d(BigRows), d(BigRowBytes)),
        subop(SubOp::Scan, d(SmallRows), d(SmallRowBytes)),
        subop(SubOp::Sort, d(BigRows), d(BigProjBytes)),
        subop(SubOp::Sort, d(SmallRows), d(SmallProjBytes)),
        subop(SubOp::Shuffle, d(BigRows), d(BigProjBytes)),
        subop(SubOp::Shuffle, d(SmallRows), d(SmallProjBytes)),
        subop(SubOp::Scan, d(BigRows), d(BigProjBytes)),
        subop(SubOp::Scan, d(SmallRows), d(SmallProjBytes)),
        subop(SubOp::RecMerge, d(OutRows), d(OutRowBytes)),
        subop(SubOp::WriteDfs, d(OutRows), d(OutRowBytes)),
    ]
}

/// The Fig. 6 broadcast-join formula:
/// `rD·|S| + b·|S| + NumTaskWaves·(rL·|S| + hI·|S| + rL·|Block(R)| +
/// hP·|Block(R)| + wD·|TaskOutput|)`.
fn broadcast_join(name: &str, reload: SubOp) -> CostFormula {
    CostFormula {
        name: name.to_string(),
        stages: 1,
        serial: vec![
            subop(SubOp::ReadDfs, d(SmallRows), d(SmallRowBytes)),
            subop(SubOp::Broadcast, d(SmallRows), d(SmallRowBytes)),
        ],
        parallel: vec![
            subop(reload, small_times_big_blocks(), d(SmallRowBytes)),
            hash_build(
                small_times_big_blocks(),
                d(SmallRowBytes),
                small_table_bytes(),
            ),
            subop(SubOp::ReadLocal, d(BigRows), d(BigRowBytes)),
            subop(SubOp::HashProbe, d(BigRows), d(BigRowBytes)),
            subop(SubOp::WriteDfs, d(OutRows), d(OutRowBytes)),
        ],
        tasks: Some(Qty::blocks(BigRows, BigRowBytes)),
    }
}

/// The formula for one join algorithm (expert knowledge per engine).
pub fn join_formula(algo: JoinAlgorithm) -> CostFormula {
    match algo {
        JoinAlgorithm::HiveShuffleJoin => CostFormula {
            name: "Shuffle Join".into(),
            stages: 2,
            serial: vec![],
            parallel: shuffle_sort_merge_terms(),
            tasks: Some(both_side_tasks()),
        },
        JoinAlgorithm::HiveSkewJoin => CostFormula {
            name: "Skew Join".into(),
            stages: 2,
            serial: vec![
                subop(SubOp::RecMerge, d(HeavyKeyRows), d(OutRowBytes)),
                subop(SubOp::Sort, d(HeavyKeyRows), d(BigProjBytes)),
            ],
            parallel: shuffle_sort_merge_terms(),
            tasks: Some(both_side_tasks()),
        },
        JoinAlgorithm::HiveBroadcastJoin => broadcast_join("Broadcast Join", SubOp::ReadLocal),
        JoinAlgorithm::HiveBucketMapJoin => CostFormula {
            name: "Bucket Map Join".into(),
            stages: 1,
            serial: vec![],
            parallel: vec![
                subop(SubOp::ReadLocal, d(SmallRows), d(SmallRowBytes)),
                hash_build(
                    d(SmallRows),
                    d(SmallRowBytes),
                    small_table_bytes().div(Qty::blocks(BigRows, BigRowBytes)),
                ),
                subop(SubOp::ReadLocal, d(BigRows), d(BigRowBytes)),
                subop(SubOp::HashProbe, d(BigRows), d(BigRowBytes)),
                subop(SubOp::WriteDfs, d(OutRows), d(OutRowBytes)),
            ],
            tasks: Some(Qty::blocks(BigRows, BigRowBytes)),
        },
        JoinAlgorithm::HiveSortMergeBucketJoin => CostFormula {
            name: "Sort Merge Bucket Join".into(),
            stages: 1,
            serial: vec![],
            parallel: vec![
                subop(SubOp::ReadLocal, d(BigRows), d(BigRowBytes)),
                subop(SubOp::ReadLocal, d(SmallRows), d(SmallRowBytes)),
                subop(SubOp::Scan, d(BigRows), d(BigProjBytes)),
                subop(SubOp::Scan, d(SmallRows), d(SmallProjBytes)),
                subop(SubOp::RecMerge, d(OutRows), d(OutRowBytes)),
                subop(SubOp::WriteDfs, d(OutRows), d(OutRowBytes)),
            ],
            tasks: Some(Qty::blocks(BigRows, BigRowBytes)),
        },
        JoinAlgorithm::SparkBroadcastHashJoin => broadcast_join("Broadcast Hash Join", SubOp::Scan),
        JoinAlgorithm::SparkShuffleHashJoin => CostFormula {
            name: "Shuffle Hash Join".into(),
            stages: 2,
            serial: vec![],
            parallel: vec![
                subop(SubOp::ReadDfs, d(BigRows), d(BigRowBytes)),
                subop(SubOp::ReadDfs, d(SmallRows), d(SmallRowBytes)),
                subop(SubOp::Scan, d(BigRows), d(BigRowBytes)),
                subop(SubOp::Scan, d(SmallRows), d(SmallRowBytes)),
                subop(SubOp::Shuffle, d(BigRows), d(BigProjBytes)),
                subop(SubOp::Shuffle, d(SmallRows), d(SmallProjBytes)),
                hash_build(
                    d(SmallRows),
                    d(SmallProjBytes),
                    d(SmallRows).mul(d(SmallProjBytes)).div(d(Cores)),
                ),
                subop(SubOp::HashProbe, d(BigRows), d(BigProjBytes)),
                subop(SubOp::RecMerge, d(OutRows), d(OutRowBytes)),
                subop(SubOp::WriteDfs, d(OutRows), d(OutRowBytes)),
            ],
            tasks: Some(both_side_tasks()),
        },
        JoinAlgorithm::SparkSortMergeJoin => CostFormula {
            name: "SortMerge Join".into(),
            stages: 2,
            serial: vec![],
            parallel: shuffle_sort_merge_terms(),
            tasks: Some(both_side_tasks()),
        },
        JoinAlgorithm::SparkBroadcastNestedLoopJoin => CostFormula {
            name: "Broadcast NestedLoop Join".into(),
            stages: 1,
            serial: vec![
                subop(SubOp::ReadDfs, d(SmallRows), d(SmallRowBytes)),
                subop(SubOp::Broadcast, d(SmallRows), d(SmallRowBytes)),
            ],
            parallel: vec![
                subop(SubOp::ReadLocal, d(BigRows), d(BigRowBytes)),
                subop(SubOp::Scan, d(BigRows).mul(d(SmallRows)), d(SmallProjBytes)),
                subop(SubOp::WriteDfs, d(OutRows), d(OutRowBytes)),
            ],
            tasks: Some(Qty::blocks(BigRows, BigRowBytes)),
        },
        JoinAlgorithm::SparkCartesianProductJoin => CostFormula {
            name: "Cartesian Product Join".into(),
            stages: 1,
            serial: vec![],
            parallel: vec![
                subop(SubOp::Shuffle, d(BigRows), d(BigProjBytes)),
                subop(SubOp::Shuffle, d(SmallRows), d(SmallProjBytes)),
                subop(SubOp::Scan, d(BigRows).mul(d(SmallRows)), d(SmallProjBytes)),
                subop(SubOp::WriteDfs, d(OutRows), d(OutRowBytes)),
            ],
            tasks: Some(both_side_tasks()),
        },
        JoinAlgorithm::RdbmsHashJoin => CostFormula {
            name: "Hash Join".into(),
            stages: 1,
            serial: vec![],
            parallel: vec![
                subop(SubOp::ReadLocal, d(BigRows), d(BigRowBytes)),
                subop(SubOp::ReadLocal, d(SmallRows), d(SmallRowBytes)),
                hash_build(d(SmallRows), d(SmallRowBytes), small_table_bytes()),
                subop(SubOp::HashProbe, d(BigRows), d(BigRowBytes)),
                subop(SubOp::RecMerge, d(OutRows), d(OutRowBytes)),
                subop(SubOp::WriteLocal, d(OutRows), d(OutRowBytes)),
            ],
            tasks: None,
        },
        JoinAlgorithm::RdbmsSortMergeJoin => CostFormula {
            name: "Sort-Merge Join".into(),
            stages: 1,
            serial: vec![],
            parallel: vec![
                subop(SubOp::ReadLocal, d(BigRows), d(BigRowBytes)),
                subop(SubOp::ReadLocal, d(SmallRows), d(SmallRowBytes)),
                subop(SubOp::Sort, d(BigRows), d(BigProjBytes)),
                subop(SubOp::Sort, d(SmallRows), d(SmallProjBytes)),
                subop(SubOp::RecMerge, d(OutRows), d(OutRowBytes)),
                subop(SubOp::WriteLocal, d(OutRows), d(OutRowBytes)),
            ],
            tasks: None,
        },
        JoinAlgorithm::RdbmsNestedLoopJoin => CostFormula {
            name: "Nested-Loop Join".into(),
            stages: 1,
            serial: vec![],
            parallel: vec![
                subop(SubOp::ReadLocal, d(BigRows), d(BigRowBytes)),
                subop(SubOp::ReadLocal, d(SmallRows), d(SmallRowBytes)),
                subop(SubOp::Scan, d(BigRows).mul(d(SmallRows)), d(SmallProjBytes)),
                subop(SubOp::WriteLocal, d(OutRows), d(OutRowBytes)),
            ],
            tasks: None,
        },
    }
}

/// The join algorithms an engine family offers (§4's two lists plus the
/// RDBMS menu).
pub(crate) fn algorithms_for(kind: SystemKind) -> Vec<JoinAlgorithm> {
    match kind {
        SystemKind::Hive => vec![
            JoinAlgorithm::HiveShuffleJoin,
            JoinAlgorithm::HiveBroadcastJoin,
            JoinAlgorithm::HiveBucketMapJoin,
            JoinAlgorithm::HiveSortMergeBucketJoin,
            JoinAlgorithm::HiveSkewJoin,
        ],
        SystemKind::Spark => vec![
            JoinAlgorithm::SparkBroadcastHashJoin,
            JoinAlgorithm::SparkShuffleHashJoin,
            JoinAlgorithm::SparkSortMergeJoin,
            JoinAlgorithm::SparkBroadcastNestedLoopJoin,
            JoinAlgorithm::SparkCartesianProductJoin,
        ],
        SystemKind::Rdbms | SystemKind::Teradata => vec![
            JoinAlgorithm::RdbmsHashJoin,
            JoinAlgorithm::RdbmsSortMergeJoin,
            JoinAlgorithm::RdbmsNestedLoopJoin,
        ],
    }
}

/// Helper: partial aggregation output rows `min(in, groups × map_tasks)`.
fn partial_rows() -> Qty {
    d(InRows).min(d(Groups).mul(Qty::blocks(InRows, InRowBytes)))
}

/// Aggregation formula — hash variant (map-side partial aggregation,
/// shuffle, reduce merge).
pub(crate) fn agg_hash_formula(distributed: bool) -> CostFormula {
    if !distributed {
        return CostFormula {
            name: "Hash Aggregate (single-node)".into(),
            stages: 1,
            serial: vec![],
            parallel: vec![
                subop(SubOp::ReadLocal, d(InRows), d(InRowBytes)),
                subop(SubOp::HashProbe, d(InRows), d(InRowBytes)),
                subop(SubOp::Scan, d(InRows).mul(d(NAggs)), d(InRowBytes)),
                hash_build(d(Groups), d(OutRowBytes), d(Groups).mul(d(OutRowBytes))),
                subop(SubOp::WriteLocal, d(Groups), d(OutRowBytes)),
            ],
            tasks: None,
        };
    }
    CostFormula {
        name: "Hash Aggregate".into(),
        stages: 2,
        serial: vec![],
        parallel: vec![
            subop(SubOp::ReadDfs, d(InRows), d(InRowBytes)),
            subop(SubOp::Scan, d(InRows), d(InRowBytes)),
            subop(SubOp::HashProbe, d(InRows), d(InRowBytes)),
            subop(SubOp::Scan, d(InRows).mul(d(NAggs)), d(InRowBytes)),
            hash_build(
                partial_rows(),
                d(OutRowBytes),
                d(Groups).mul(d(OutRowBytes)),
            ),
            subop(SubOp::Shuffle, partial_rows(), d(OutRowBytes)),
            subop(
                SubOp::RecMerge,
                partial_rows().sub(d(Groups)).max(Qty::num(0.0)),
                d(OutRowBytes),
            ),
            subop(SubOp::Scan, partial_rows(), d(OutRowBytes)),
            subop(SubOp::WriteDfs, d(Groups), d(OutRowBytes)),
        ],
        tasks: None,
    }
}

/// Aggregation formula — sort variant (chosen when the hash table would
/// spill badly).
pub(crate) fn agg_sort_formula(distributed: bool) -> CostFormula {
    if !distributed {
        return CostFormula {
            name: "Sort Aggregate (single-node)".into(),
            stages: 1,
            serial: vec![],
            parallel: vec![
                subop(SubOp::ReadLocal, d(InRows), d(InRowBytes)),
                subop(SubOp::Sort, d(InRows), d(InRowBytes)),
                subop(SubOp::Scan, d(InRows).mul(d(NAggs)), d(InRowBytes)),
                subop(SubOp::WriteLocal, d(Groups), d(OutRowBytes)),
            ],
            tasks: None,
        };
    }
    CostFormula {
        name: "Sort Aggregate".into(),
        stages: 2,
        serial: vec![],
        parallel: vec![
            subop(SubOp::ReadDfs, d(InRows), d(InRowBytes)),
            subop(SubOp::Scan, d(InRows), d(InRowBytes)),
            subop(SubOp::Sort, d(InRows), d(InRowBytes)),
            subop(SubOp::Scan, d(InRows).mul(d(NAggs)), d(InRowBytes)),
            subop(SubOp::Shuffle, partial_rows(), d(OutRowBytes)),
            subop(
                SubOp::RecMerge,
                partial_rows().sub(d(Groups)).max(Qty::num(0.0)),
                d(OutRowBytes),
            ),
            subop(SubOp::Scan, partial_rows(), d(OutRowBytes)),
            subop(SubOp::WriteDfs, d(Groups), d(OutRowBytes)),
        ],
        tasks: None,
    }
}

/// `ORDER BY` formula: re-read the intermediate result, sort it, write
/// it back.
pub(crate) fn sort_formula(distributed: bool) -> CostFormula {
    let write = if distributed {
        SubOp::WriteDfs
    } else {
        SubOp::WriteLocal
    };
    CostFormula {
        name: "Order By".into(),
        stages: 1,
        serial: vec![],
        parallel: vec![
            subop(SubOp::ReadLocal, d(InRows), d(InRowBytes)),
            subop(SubOp::Sort, d(InRows), d(InRowBytes)),
            subop(write, d(InRows), d(InRowBytes)),
        ],
        tasks: Some(Qty::blocks(InRows, InRowBytes)),
    }
}

/// Scan/filter/project formula.
pub(crate) fn scan_formula(distributed: bool) -> CostFormula {
    let (read, write) = if distributed {
        (SubOp::ReadDfs, SubOp::WriteDfs)
    } else {
        (SubOp::ReadLocal, SubOp::WriteLocal)
    };
    CostFormula {
        name: "Scan".into(),
        stages: 1,
        serial: vec![],
        parallel: vec![
            subop(read, d(InRows), d(InRowBytes)),
            subop(SubOp::Scan, d(InRows), d(InRowBytes)),
            subop(write, d(OutRows), d(OutRowBytes)),
        ],
        tasks: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_has_a_formula() {
        for kind in [SystemKind::Hive, SystemKind::Spark, SystemKind::Rdbms] {
            for algo in algorithms_for(kind) {
                let f = join_formula(algo);
                assert!(!f.parallel.is_empty() || !f.serial.is_empty(), "{algo}");
                assert!(f.stages >= 1, "{algo}");
            }
        }
    }

    #[test]
    fn hive_menu_matches_paper_list() {
        let names: Vec<String> = algorithms_for(SystemKind::Hive)
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "Shuffle Join",
                "Broadcast Join",
                "Bucket Map Join",
                "Sort Merge Bucket Join",
                "Skew Join"
            ]
        );
    }

    #[test]
    fn fig6_broadcast_formula_shape() {
        let f = join_formula(JoinAlgorithm::HiveBroadcastJoin);
        // Performed once: rD·|S| + b·|S|.
        assert_eq!(f.serial.len(), 2);
        // Per task: rL(S), hI(S), rL(Block R), hP(Block R), wD(TaskOutput).
        assert_eq!(f.parallel.len(), 5);
        assert_eq!(f.stages, 1);
    }

    #[test]
    fn formulas_roundtrip_through_json() {
        for algo in algorithms_for(SystemKind::Spark) {
            let f = join_formula(algo);
            let json = serde_json::to_string(&f).unwrap();
            let back: CostFormula = serde_json::from_str(&json).unwrap();
            assert_eq!(f, back);
        }
    }

    #[test]
    fn agg_formulas_exist_in_both_variants() {
        assert_eq!(agg_hash_formula(true).stages, 2);
        assert_eq!(agg_hash_formula(false).stages, 1);
        assert_eq!(agg_sort_formula(true).stages, 2);
        assert!(scan_formula(true).parallel.len() == 3);
    }
}
