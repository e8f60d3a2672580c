//! The Fig. 5 probe-query suite.
//!
//! §7: "For the sub-operator costing approach, the training of each sub-op
//! needs only few number of queries, e.g., in the range of few 10s of
//! queries." The default suite runs each probe kind over
//! 1/2/4/8 million records (the x-axis of Figs. 7a and 13b) at five
//! record sizes (the x-axis of the fitted models in Figs. 7b and 13c–f).

use catalog::remote::{ProbeKind, ProbeSpec};

/// Row counts used per record size (Fig. 7a: 1, 2, 4, 8 million).
pub(crate) const PROBE_ROW_COUNTS: [u64; 4] = [1_000_000, 2_000_000, 4_000_000, 8_000_000];

/// Record sizes swept by the probe suite.
pub(crate) const PROBE_RECORD_SIZES: [u64; 5] = [40, 100, 250, 500, 1000];

/// The probe suite for one sub-op kind: every (rows × record size) combo.
/// For `ReadDfsHashBuild` the suite is doubled — one run per memory
/// regime, as the paper does ("We experimented with both cases and
/// constructed a model for each case").
pub fn probe_suite_for(kind: ProbeKind) -> Vec<ProbeSpec> {
    let mut out = Vec::new();
    for &size in &PROBE_RECORD_SIZES {
        for &rows in &PROBE_ROW_COUNTS {
            out.push(ProbeSpec::new(kind, rows, size));
            if kind == ProbeKind::ReadDfsHashBuild {
                out.push(ProbeSpec::new(kind, rows, size).spilling());
            }
        }
    }
    out
}

/// The complete suite across all probe kinds.
pub fn probe_suite() -> Vec<ProbeSpec> {
    ProbeKind::ALL
        .iter()
        .flat_map(|&k| probe_suite_for(k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_kind_suite_is_a_few_tens_of_queries() {
        // The paper's Fig. 13a x-axis runs 6..32 queries per sub-op.
        let n = probe_suite_for(ProbeKind::ReadDfs).len();
        assert_eq!(n, 20);
        assert!((6..=40).contains(&n));
    }

    #[test]
    fn hash_build_covers_both_regimes() {
        let suite = probe_suite_for(ProbeKind::ReadDfsHashBuild);
        assert_eq!(suite.len(), 40);
        let spilling = suite.iter().filter(|p| p.force_spill).count();
        assert_eq!(spilling, 20);
    }

    #[test]
    fn full_suite_covers_every_kind() {
        let suite = probe_suite();
        for kind in ProbeKind::ALL {
            assert!(suite.iter().any(|p| p.kind == kind), "missing {kind}");
        }
    }
}
