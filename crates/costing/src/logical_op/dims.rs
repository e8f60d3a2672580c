//! Per-dimension training metadata.
//!
//! §3: "the system maintains metadata information for each input dimension
//! in the training set of a given operator. This metadata includes the
//! covered range using min and max boundaries and a stepSize. … if the
//! value of a given dimension is outside the [min, max] range by more than
//! β · stepSize, where β > 1 is a configuration parameter, then that
//! dimension is considered way off the trained range."
//!
//! The offline tuning phase expands a range "only if a continuity in the
//! training points is maintained"; discontiguous observations are kept as
//! *detached* points so they still inform the models without pretending
//! the gap is covered.

use serde::{Deserialize, Serialize};

/// Metadata for one training dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimensionMeta {
    /// Dimension name (for reports and serialization).
    pub name: String,
    /// Smallest trained value.
    pub min: f64,
    /// Largest trained value.
    pub max: f64,
    /// The step size near the range boundary. The Fig. 10 grids are
    /// log-spaced, so the gap between the two largest distinct trained
    /// values is used — the step that matters when judging values beyond
    /// `max`.
    pub step_size: f64,
    /// Observed out-of-range values that could not be merged into the
    /// contiguous range (continuity broken).
    pub(crate) detached: Vec<f64>,
}

impl DimensionMeta {
    /// Builds metadata from the trained values of one dimension.
    ///
    /// # Panics
    /// Panics on empty input.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "values is asserted non-empty, so sorted holds at least one value"
    )]
    pub(crate) fn from_values(name: &str, values: &[f64]) -> Self {
        assert!(!values.is_empty(), "DimensionMeta: no training values");
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        let min = sorted[0];
        let max = *sorted.last().expect("non-empty");
        let step_size = if sorted.len() >= 2 {
            (sorted[sorted.len() - 1] - sorted[sorted.len() - 2]).max(f64::EPSILON)
        } else {
            // A single trained value: any deviation is out of range; use
            // a nominal step of 10% of the value.
            (min.abs() * 0.1).max(1.0)
        };
        DimensionMeta {
            name: name.to_string(),
            min,
            max,
            step_size,
            detached: Vec::new(),
        }
    }

    /// True when `v` lies inside (or within `beta·step` of) the trained
    /// range — i.e. the NN can be trusted directly.
    pub(crate) fn in_range(&self, v: f64, beta: f64) -> bool {
        let slack = beta * self.step_size;
        v >= self.min - slack && v <= self.max + slack
    }

    /// The paper's "way off" test: outside `[min, max]` by more than
    /// `β · stepSize`.
    pub(crate) fn is_way_off(&self, v: f64, beta: f64) -> bool {
        !self.in_range(v, beta)
    }

    /// Attempts to absorb new observed values above `max` / below `min`.
    ///
    /// Values are merged into the contiguous range as long as each
    /// consecutive gap is at most `β · stepSize` (continuity); the first
    /// value that breaks continuity — and everything beyond it — lands in
    /// [`DimensionMeta::detached`]. Returns `true` when the `[min,max]`
    /// range changed.
    pub(crate) fn absorb(&mut self, observed: &[f64], beta: f64) -> bool {
        let slack = beta * self.step_size;
        let mut changed = false;

        let mut above: Vec<f64> = observed.iter().copied().filter(|&v| v > self.max).collect();
        above.sort_by(f64::total_cmp);
        above.dedup();
        let mut broken = false;
        for v in above {
            if !broken && v - self.max <= slack {
                self.max = v;
                changed = true;
            } else {
                broken = true;
                if !self.detached.contains(&v) {
                    self.detached.push(v);
                }
            }
        }

        let mut below: Vec<f64> = observed.iter().copied().filter(|&v| v < self.min).collect();
        below.sort_by(|a, b| f64::total_cmp(b, a)); // descending towards min
        below.dedup();
        let mut broken = false;
        for v in below {
            if !broken && self.min - v <= slack {
                self.min = v;
                changed = true;
            } else {
                broken = true;
                if !self.detached.contains(&v) {
                    self.detached.push(v);
                }
            }
        }
        self.detached.sort_by(f64::total_cmp);
        changed
    }
}

/// Metadata for a whole training set (one entry per input dimension).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingMeta {
    /// Per-dimension metadata, in feature order.
    pub dims: Vec<DimensionMeta>,
}

impl TrainingMeta {
    /// Builds metadata from a set of training rows.
    ///
    /// # Panics
    /// Panics when `rows` is empty or `names` does not match the arity.
    #[expect(
        clippy::indexing_slicing,
        reason = "rows is asserted non-empty and every row is a feature row of the names' arity"
    )]
    pub(crate) fn from_rows(names: &[&str], rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "TrainingMeta: no rows");
        assert_eq!(
            names.len(),
            rows[0].len(),
            "TrainingMeta: name/arity mismatch"
        );
        let dims = names
            .iter()
            .enumerate()
            .map(|(j, name)| {
                let col: Vec<f64> = rows.iter().map(|r| r[j]).collect();
                DimensionMeta::from_values(name, &col)
            })
            .collect();
        TrainingMeta { dims }
    }

    /// Indices of the dimensions of `x` that are way off the trained
    /// range — the *pivot* dimensions of the online remedy.
    pub(crate) fn pivots(&self, x: &[f64], beta: f64) -> Vec<usize> {
        assert_eq!(
            x.len(),
            self.dims.len(),
            "TrainingMeta::pivots: arity mismatch"
        );
        self.dims
            .iter()
            .zip(x)
            .enumerate()
            .filter(|&(_, (d, &xj))| d.is_way_off(xj, beta))
            .map(|(j, _)| j)
            .collect()
    }

    /// True when every dimension of `x` is within (slack of) the trained
    /// range — the top diamond of the Fig. 3 flowchart.
    ///
    /// Runs once per estimate on the zero-alloc path, so it short-
    /// circuits over the dimensions directly instead of materialising
    /// the `TrainingMeta::pivots` vector just to test emptiness.
    pub fn all_in_range(&self, x: &[f64], beta: f64) -> bool {
        assert_eq!(
            x.len(),
            self.dims.len(),
            "TrainingMeta::all_in_range: arity mismatch"
        );
        !self
            .dims
            .iter()
            .zip(x)
            .any(|(d, &xj)| d.is_way_off(xj, beta))
    }

    /// Absorbs out-of-range observations into each dimension (offline
    /// tuning). Returns the indices of dimensions whose range changed.
    #[expect(
        clippy::indexing_slicing,
        reason = "every row is a feature row of the model's arity, one value per dimension"
    )]
    pub(crate) fn absorb_rows(&mut self, rows: &[Vec<f64>], beta: f64) -> Vec<usize> {
        let mut changed = Vec::new();
        for (j, dim) in self.dims.iter_mut().enumerate() {
            let col: Vec<f64> = rows.iter().map(|r| r[j]).collect();
            if dim.absorb(&col, beta) {
                changed.push(j);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_grid() -> Vec<f64> {
        // A Fig. 10-like log-spaced grid: 10k..8M.
        vec![
            10e3, 20e3, 40e3, 60e3, 80e3, 100e3, 200e3, 400e3, 600e3, 800e3, 1e6, 2e6, 4e6, 6e6,
            8e6,
        ]
    }

    #[test]
    fn from_values_extracts_range_and_boundary_step() {
        let d = DimensionMeta::from_values("num_rows", &rows_grid());
        assert_eq!(d.min, 10e3);
        assert_eq!(d.max, 8e6);
        // Gap between the two largest values: 8M - 6M.
        assert_eq!(d.step_size, 2e6);
    }

    #[test]
    fn way_off_matches_paper_rule() {
        let d = DimensionMeta::from_values("num_rows", &rows_grid());
        let beta = 2.0;
        // 20M is 12M beyond max, > 2·2M -> way off (the Fig. 14 scenario).
        assert!(d.is_way_off(20e6, beta));
        // 9M is 1M beyond max, <= 4M slack -> close enough for the NN.
        assert!(!d.is_way_off(9e6, beta));
        assert!(!d.is_way_off(5e6, beta));
        // Below min by a lot.
        assert!(d.is_way_off(-10e6, beta));
    }

    #[test]
    fn absorb_extends_while_contiguous() {
        let mut d = DimensionMeta::from_values("x", &[100.0, 200.0, 300.0]);
        // step = 100; beta 2 -> slack 200.
        let changed = d.absorb(&[450.0, 600.0], 2.0);
        assert!(changed);
        assert_eq!(d.max, 600.0);
        assert!(d.detached.is_empty());
    }

    #[test]
    fn absorb_detaches_after_a_gap() {
        // The paper's example: trained to 1,000 with step 100; observing
        // 8,000 and 10,000 must NOT extend the range (continuity broken).
        let values: Vec<f64> = (1..=10).map(|i| i as f64 * 100.0).collect();
        let mut d = DimensionMeta::from_values("row_size", &values);
        let changed = d.absorb(&[8_000.0, 10_000.0], 2.0);
        assert!(!changed);
        assert_eq!(d.max, 1_000.0);
        assert_eq!(d.detached, vec![8_000.0, 10_000.0]);
    }

    #[test]
    fn absorb_extends_below_min_too() {
        let mut d = DimensionMeta::from_values("x", &[100.0, 200.0, 300.0]);
        // Boundary step comes from the top gap (100).
        assert!(d.absorb(&[-50.0], 2.0));
        assert_eq!(d.min, -50.0);
    }

    #[test]
    fn single_value_dimension_gets_nominal_step() {
        let d = DimensionMeta::from_values("x", &[500.0]);
        assert!(d.step_size > 0.0);
        assert!(d.is_way_off(5_000.0, 2.0));
    }

    #[test]
    fn training_meta_pivots() {
        let rows = vec![vec![100.0, 1e4], vec![500.0, 1e5], vec![1_000.0, 1e6]];
        let meta = TrainingMeta::from_rows(&["size", "rows"], &rows);
        // size within range, rows way off -> pivot index 1.
        assert_eq!(meta.pivots(&[500.0, 2e7], 2.0), vec![1]);
        assert!(meta.all_in_range(&[500.0, 5e5], 2.0));
        // Both off.
        assert_eq!(meta.pivots(&[1e6, 2e7], 2.0), vec![0, 1]);
    }

    #[test]
    fn absorb_rows_reports_changed_dims() {
        let rows = vec![vec![100.0, 10.0], vec![200.0, 20.0], vec![300.0, 30.0]];
        let mut meta = TrainingMeta::from_rows(&["a", "b"], &rows);
        let changed = meta.absorb_rows(&[vec![450.0, 25.0]], 2.0);
        assert_eq!(changed, vec![0]); // b's 25 is within range already
        assert_eq!(meta.dims[0].max, 450.0);
    }

    #[test]
    fn serde_roundtrip() {
        let meta = TrainingMeta::from_rows(&["a"], &[vec![1.0], vec![2.0]]);
        let json = serde_json::to_string(&meta).unwrap();
        let back: TrainingMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(meta, back);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every trained value is in range; min/max bracket the data.
            #[test]
            fn prop_trained_values_in_range(
                values in proptest::collection::vec(0.0f64..1e8, 2..50),
                beta in 1.0f64..5.0,
            ) {
                let d = DimensionMeta::from_values("x", &values);
                for &v in &values {
                    prop_assert!(d.in_range(v, beta), "{v} outside [{}, {}]", d.min, d.max);
                }
                prop_assert!(d.min <= d.max);
                prop_assert!(d.step_size > 0.0);
            }

            /// Absorbing a second time changes nothing (idempotence).
            #[test]
            fn prop_absorb_is_idempotent(
                values in proptest::collection::vec(0.0f64..1e6, 3..20),
                extra in proptest::collection::vec(0.0f64..2e6, 1..10),
            ) {
                let mut d = DimensionMeta::from_values("x", &values);
                d.absorb(&extra, 2.0);
                let snapshot = d.clone();
                let changed = d.absorb(&extra, 2.0);
                prop_assert!(!changed, "second absorb must be a no-op");
                prop_assert_eq!(d, snapshot);
            }

            /// Pivot detection and in-range agreement: a dimension is a
            /// pivot iff it is not in range.
            #[test]
            fn prop_pivots_complement_in_range(
                values in proptest::collection::vec(0.0f64..1e6, 3..20),
                probe in 0.0f64..2e6,
                beta in 1.1f64..4.0,
            ) {
                let meta = TrainingMeta::from_rows(&["x"], &values.iter().map(|&v| vec![v]).collect::<Vec<_>>());
                let pivots = meta.pivots(&[probe], beta);
                prop_assert_eq!(pivots.is_empty(), meta.dims[0].in_range(probe, beta));
            }

            /// After absorbing a value, it is never way-off any more (it
            /// either extended the range or sits in `detached`, and
            /// detached values still count as observed).
            #[test]
            fn prop_absorbed_values_are_accounted_for(
                values in proptest::collection::vec(100.0f64..1e5, 3..20),
                extra in 0.0f64..1e7,
            ) {
                let mut d = DimensionMeta::from_values("x", &values);
                d.absorb(&[extra], 2.0);
                let in_range = d.in_range(extra, 2.0);
                let detached = d.detached.contains(&extra);
                prop_assert!(in_range || detached, "absorbed value lost: {extra}");
            }
        }
    }
}
