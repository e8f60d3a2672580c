//! Applicability rules (§4).
//!
//! "These observations, or what we refer to them as 'Applicability
//! Rules', are defined by the technical experts while defining the cost
//! formula for each possible algorithm. IntelliSphere uses them at query
//! time to eliminate inapplicable choices based on the cardinalities and
//! statistics at hand."

use catalog::remote::{JoinAlgorithm, JoinContext, JoinInfo};
use catalog::SystemKind;
use serde::{Deserialize, Serialize};

/// The statistics a rule can consult at query time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleInputs {
    /// Rows carried by the heaviest join-key value.
    pub heavy_key_rows: f64,
    /// Rows of the big (probe) side.
    pub big_rows: f64,
    /// The join has at least one equi-key conjunct.
    pub has_equi_keys: bool,
    /// The big (probe) side is known to be bucketed on the join key.
    pub big_bucketed: bool,
    /// The small (build) side is known to be bucketed on the join key —
    /// note the paper's point: data shipped from Teradata loses its
    /// partitioning, so this is `false` for transferred relations "even
    /// if S is partitioned on the join key, but there is no way to tell
    /// the remote system such property after the data transfer".
    pub small_bucketed: bool,
    /// Total stored bytes of the small side.
    pub small_total_bytes: f64,
    /// Total stored bytes of the big side.
    pub big_total_bytes: f64,
}

impl RuleInputs {
    /// Builds rule inputs straight from a query analysis' join profile.
    pub fn from_join(info: &JoinInfo, ctx: &JoinContext) -> Self {
        RuleInputs {
            has_equi_keys: ctx.has_equi_keys,
            big_bucketed: ctx.big_bucketed,
            small_bucketed: ctx.small_bucketed,
            small_total_bytes: info.small.total_bytes(),
            big_total_bytes: info.big.total_bytes(),
            heavy_key_rows: info.heavy_key_rows,
            big_rows: info.big.rows,
        }
    }
}

/// A predicate over [`RuleInputs`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    /// The join is an equi-join.
    EquiJoin,
    /// The join has no equi keys (Cartesian-like).
    NotEquiJoin,
    /// The small side is not bucketed on the join key.
    SmallNotBucketed,
    /// Either side is not bucketed on the join key.
    AnySideNotBucketed,
    /// The small side exceeds a byte threshold ("if both join relations
    /// are quite large, then the choices of Broadcast Join … can be
    /// eliminated").
    SmallSideLargerThan {
        /// Threshold in bytes.
        bytes: f64,
    },
    /// The small side is at most a byte threshold (e.g. it fits the
    /// remote's hash-join memory, so a cost-based RDBMS will hash-join).
    SmallSideAtMost {
        /// Threshold in bytes.
        bytes: f64,
    },
    /// The heaviest join-key value carries more than `fraction` of the
    /// probe side's rows (Hive's skew-join trigger).
    HeavyKeyFractionAbove {
        /// Skew threshold as a fraction of probe rows.
        fraction: f64,
    },
    /// The heaviest join-key value carries at most `fraction` of the probe
    /// side's rows.
    HeavyKeyFractionAtMost {
        /// Skew threshold as a fraction of probe rows.
        fraction: f64,
    },
    /// Always fires.
    Always,
}

impl Condition {
    /// Evaluates the condition.
    pub(crate) fn holds(&self, inputs: &RuleInputs) -> bool {
        match self {
            Condition::EquiJoin => inputs.has_equi_keys,
            Condition::NotEquiJoin => !inputs.has_equi_keys,
            Condition::SmallNotBucketed => !inputs.small_bucketed,
            Condition::AnySideNotBucketed => !inputs.small_bucketed || !inputs.big_bucketed,
            Condition::SmallSideLargerThan { bytes } => inputs.small_total_bytes > *bytes,
            Condition::SmallSideAtMost { bytes } => inputs.small_total_bytes <= *bytes,
            Condition::HeavyKeyFractionAbove { fraction } => {
                inputs.big_rows > 0.0 && inputs.heavy_key_rows / inputs.big_rows > *fraction
            }
            Condition::HeavyKeyFractionAtMost { fraction } => {
                inputs.big_rows <= 0.0 || inputs.heavy_key_rows / inputs.big_rows <= *fraction
            }
            Condition::Always => true,
        }
    }
}

/// One applicability rule: when `when` holds, `eliminates` are ruled out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicabilityRule {
    /// Human-readable rationale (stored in the costing profile).
    pub description: String,
    /// The condition under which the rule fires.
    pub when: Condition,
    /// The algorithms eliminated when it fires.
    pub eliminates: Vec<JoinAlgorithm>,
}

/// The expert rule set for an engine family, mirroring the §4 examples.
/// `rdbms_hash_memory_bytes` is the RDBMS remote's hash-join memory
/// ceiling (its optimizer hash-joins whenever the build side fits).
pub(crate) fn default_rules(
    kind: SystemKind,
    broadcast_threshold_bytes: f64,
    rdbms_hash_memory_bytes: f64,
) -> Vec<ApplicabilityRule> {
    match kind {
        SystemKind::Hive => vec![
            ApplicabilityRule {
                description: "Relations not bucketed by the join key rule out the \
                              bucketed algorithms"
                    .into(),
                when: Condition::AnySideNotBucketed,
                eliminates: vec![
                    JoinAlgorithm::HiveBucketMapJoin,
                    JoinAlgorithm::HiveSortMergeBucketJoin,
                ],
            },
            ApplicabilityRule {
                description: "Both relations large: broadcast is off the table".into(),
                when: Condition::SmallSideLargerThan { bytes: broadcast_threshold_bytes },
                eliminates: vec![JoinAlgorithm::HiveBroadcastJoin],
            },
            ApplicabilityRule {
                description: "A skewed join key routes through Hive's skew join".into(),
                when: Condition::HeavyKeyFractionAbove { fraction: 0.20 },
                eliminates: vec![JoinAlgorithm::HiveShuffleJoin],
            },
            ApplicabilityRule {
                description: "Without key skew the skew-join machinery is not used".into(),
                when: Condition::HeavyKeyFractionAtMost { fraction: 0.20 },
                eliminates: vec![JoinAlgorithm::HiveSkewJoin],
            },
        ],
        SystemKind::Spark => vec![
            ApplicabilityRule {
                description: "Equi-joins never run as nested-loop or Cartesian".into(),
                when: Condition::EquiJoin,
                eliminates: vec![
                    JoinAlgorithm::SparkBroadcastNestedLoopJoin,
                    JoinAlgorithm::SparkCartesianProductJoin,
                ],
            },
            ApplicabilityRule {
                description: "Non-equi joins cannot use the key-based algorithms".into(),
                when: Condition::NotEquiJoin,
                eliminates: vec![
                    JoinAlgorithm::SparkBroadcastHashJoin,
                    JoinAlgorithm::SparkShuffleHashJoin,
                    JoinAlgorithm::SparkSortMergeJoin,
                ],
            },
            ApplicabilityRule {
                description: "Both relations large: broadcast variants are out".into(),
                when: Condition::SmallSideLargerThan { bytes: broadcast_threshold_bytes },
                eliminates: vec![
                    JoinAlgorithm::SparkBroadcastHashJoin,
                    JoinAlgorithm::SparkBroadcastNestedLoopJoin,
                ],
            },
        ],
        SystemKind::Rdbms | SystemKind::Teradata => vec![
            ApplicabilityRule {
                description: "Non-equi joins fall back to nested loops".into(),
                when: Condition::NotEquiJoin,
                eliminates: vec![
                    JoinAlgorithm::RdbmsHashJoin,
                    JoinAlgorithm::RdbmsSortMergeJoin,
                ],
            },
            ApplicabilityRule {
                description: "Equi-joins never run as nested loops at scale".into(),
                when: Condition::EquiJoin,
                eliminates: vec![JoinAlgorithm::RdbmsNestedLoopJoin],
            },
            ApplicabilityRule {
                description: "A build side fitting the hash memory means the                               cost-based optimizer hash-joins"
                    .into(),
                when: Condition::SmallSideAtMost { bytes: rdbms_hash_memory_bytes },
                eliminates: vec![JoinAlgorithm::RdbmsSortMergeJoin],
            },
            ApplicabilityRule {
                description: "A build side exceeding the hash memory forces the                               sort-merge path"
                    .into(),
                when: Condition::SmallSideLargerThan { bytes: rdbms_hash_memory_bytes },
                eliminates: vec![JoinAlgorithm::RdbmsHashJoin],
            },
        ],
    }
}

/// Applies the rules: starts from the engine's full menu and removes what
/// fires. Guarantees at least one survivor (if everything is eliminated,
/// the full menu is returned — better to cost conservatively than to have
/// no estimate).
pub(crate) fn applicable_algorithms(
    menu: &[JoinAlgorithm],
    rules: &[ApplicabilityRule],
    inputs: &RuleInputs,
) -> Vec<JoinAlgorithm> {
    let mut surviving: Vec<JoinAlgorithm> = menu.to_vec();
    for rule in rules {
        if rule.when.holds(inputs) {
            surviving.retain(|a| !rule.eliminates.contains(a));
        }
    }
    if surviving.is_empty() {
        menu.to_vec()
    } else {
        surviving
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sub_op::algorithms::algorithms_for;

    fn inputs() -> RuleInputs {
        RuleInputs {
            has_equi_keys: true,
            big_bucketed: false,
            small_bucketed: false,
            small_total_bytes: 1e9,
            big_total_bytes: 1e10,
            heavy_key_rows: 1.0,
            big_rows: 1e7,
        }
    }

    #[test]
    fn hive_large_unbucketed_equi_join_leaves_shuffle_only() {
        let menu = algorithms_for(SystemKind::Hive);
        let rules = default_rules(SystemKind::Hive, 32e6, 1e9);
        let left = applicable_algorithms(&menu, &rules, &inputs());
        assert_eq!(left, vec![JoinAlgorithm::HiveShuffleJoin]);
    }

    #[test]
    fn skewed_keys_swap_shuffle_for_skew_join() {
        let menu = algorithms_for(SystemKind::Hive);
        let rules = default_rules(SystemKind::Hive, 32e6, 1e9);
        let mut i = inputs();
        i.heavy_key_rows = 0.5 * i.big_rows;
        let left = applicable_algorithms(&menu, &rules, &i);
        assert_eq!(left, vec![JoinAlgorithm::HiveSkewJoin]);
    }

    #[test]
    fn hive_small_build_side_keeps_broadcast() {
        let menu = algorithms_for(SystemKind::Hive);
        let rules = default_rules(SystemKind::Hive, 32e6, 1e9);
        let mut i = inputs();
        i.small_total_bytes = 1e6;
        let left = applicable_algorithms(&menu, &rules, &i);
        assert!(left.contains(&JoinAlgorithm::HiveBroadcastJoin));
    }

    #[test]
    fn spark_equi_join_drops_cartesian_family() {
        let menu = algorithms_for(SystemKind::Spark);
        let rules = default_rules(SystemKind::Spark, 10e6, 1e9);
        let left = applicable_algorithms(&menu, &rules, &inputs());
        assert!(!left.contains(&JoinAlgorithm::SparkCartesianProductJoin));
        assert!(!left.contains(&JoinAlgorithm::SparkBroadcastNestedLoopJoin));
        assert!(left.contains(&JoinAlgorithm::SparkSortMergeJoin));
    }

    #[test]
    fn spark_non_equi_join_keeps_only_cartesian_family() {
        let menu = algorithms_for(SystemKind::Spark);
        let rules = default_rules(SystemKind::Spark, 10e6, 1e9);
        let mut i = inputs();
        i.has_equi_keys = false;
        i.small_total_bytes = 1e6;
        let left = applicable_algorithms(&menu, &rules, &i);
        assert_eq!(
            left,
            vec![
                JoinAlgorithm::SparkBroadcastNestedLoopJoin,
                JoinAlgorithm::SparkCartesianProductJoin
            ]
        );
    }

    #[test]
    fn bucketed_sides_keep_smb() {
        let menu = algorithms_for(SystemKind::Hive);
        let rules = default_rules(SystemKind::Hive, 32e6, 1e9);
        let mut i = inputs();
        i.big_bucketed = true;
        i.small_bucketed = true;
        let left = applicable_algorithms(&menu, &rules, &i);
        assert!(left.contains(&JoinAlgorithm::HiveSortMergeBucketJoin));
    }

    #[test]
    fn total_elimination_falls_back_to_full_menu() {
        let menu = vec![JoinAlgorithm::HiveBroadcastJoin];
        let rules = vec![ApplicabilityRule {
            description: "kill everything".into(),
            when: Condition::Always,
            eliminates: vec![JoinAlgorithm::HiveBroadcastJoin],
        }];
        let left = applicable_algorithms(&menu, &rules, &inputs());
        assert_eq!(left, menu);
    }

    #[test]
    fn rules_serialize() {
        let rules = default_rules(SystemKind::Hive, 32e6, 1e9);
        let json = serde_json::to_string(&rules).unwrap();
        let back: Vec<ApplicabilityRule> = serde_json::from_str(&json).unwrap();
        assert_eq!(rules, back);
    }
}
