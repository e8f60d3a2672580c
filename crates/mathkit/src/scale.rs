//! Feature scaling.
//!
//! The logical-operator training dimensions span several orders of
//! magnitude (tens of bytes to tens of millions of rows), so the neural
//! network inputs/outputs must be normalised. [`MinMaxScaler`] maps each
//! column to `[0, 1]` based on its training range and — crucially for the
//! out-of-range experiments (Fig. 14) — extrapolates linearly beyond it
//! rather than clamping, so the model genuinely sees out-of-range inputs.

use serde::{Deserialize, Serialize};

/// Per-column min–max scaler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    /// Per-column minimum observed at fit time.
    pub mins: Vec<f64>,
    /// Per-column maximum observed at fit time.
    pub maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Learns per-column ranges from the given rows.
    ///
    /// # Panics
    /// Panics when `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "MinMaxScaler::fit: empty input");
        let d = rows.first().map_or(0, Vec::len);
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for r in rows {
            assert_eq!(r.len(), d, "MinMaxScaler::fit: ragged input");
            for ((min, max), &v) in mins.iter_mut().zip(maxs.iter_mut()).zip(r) {
                *min = min.min(v);
                *max = max.max(v);
            }
        }
        MinMaxScaler { mins, maxs }
    }

    /// Scales one row to the unit hyper-cube (values outside the fitted
    /// range map outside `[0, 1]`, deliberately).
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(row.len());
        self.transform_into(row, &mut out);
        out
    }

    /// [`MinMaxScaler::transform`] writing into a caller-provided buffer
    /// (cleared first) — the zero-alloc form for hot paths that reuse a
    /// scratch row. Bit-identical to the allocating variant.
    pub(crate) fn transform_into(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            row.len(),
            self.mins.len(),
            "MinMaxScaler::transform: arity mismatch"
        );
        out.clear();
        out.extend(
            row.iter()
                .zip(self.mins.iter().zip(&self.maxs))
                .map(|(&v, (&min, &max))| {
                    let span = max - min;
                    if span == 0.0 {
                        0.0
                    } else {
                        (v - min) / span
                    }
                }),
        );
    }

    /// Scales many rows.
    pub fn transform_batch(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }

    /// Inverts the scaling for one row.
    pub fn inverse(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(
            row.len(),
            self.mins.len(),
            "MinMaxScaler::inverse: arity mismatch"
        );
        row.iter()
            .zip(self.mins.iter().zip(&self.maxs))
            .map(|(&v, (&min, &max))| min + v * (max - min))
            .collect()
    }
}

/// Scalar (single-value) min–max scaler, used for the network target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarScaler {
    /// Minimum observed at fit time.
    pub min: f64,
    /// Maximum observed at fit time.
    pub max: f64,
}

impl ScalarScaler {
    /// Learns the range of a target vector.
    ///
    /// # Panics
    /// Panics on empty input.
    pub fn fit(ys: &[f64]) -> Self {
        assert!(!ys.is_empty(), "ScalarScaler::fit: empty input");
        let min = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ScalarScaler { min, max }
    }

    /// Scales a value to `[0, 1]` over the fitted range.
    pub fn transform(&self, y: f64) -> f64 {
        let span = self.max - self.min;
        if span == 0.0 {
            0.0
        } else {
            (y - self.min) / span
        }
    }

    /// Inverts the scaling.
    pub fn inverse(&self, y: f64) -> f64 {
        self.min + y * (self.max - self.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn transform_maps_to_unit_interval() {
        let rows = vec![vec![0.0, 10.0], vec![10.0, 20.0], vec![5.0, 15.0]];
        let s = MinMaxScaler::fit(&rows);
        assert_eq!(s.transform(&[0.0, 10.0]), vec![0.0, 0.0]);
        assert_eq!(s.transform(&[10.0, 20.0]), vec![1.0, 1.0]);
        assert_eq!(s.transform(&[5.0, 15.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn out_of_range_values_map_outside_unit_interval() {
        let s = MinMaxScaler::fit(&[vec![0.0], vec![10.0]]);
        assert_eq!(s.transform(&[20.0]), vec![2.0]);
        assert_eq!(s.transform(&[-10.0]), vec![-1.0]);
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let s = MinMaxScaler::fit(&[vec![7.0], vec![7.0]]);
        assert_eq!(s.transform(&[7.0]), vec![0.0]);
        assert_eq!(s.transform(&[100.0]), vec![0.0]);
    }

    #[test]
    fn transform_into_matches_transform_and_reuses_buffer() {
        let s = MinMaxScaler::fit(&[vec![0.0, 10.0], vec![10.0, 20.0]]);
        let mut buf = vec![99.0; 8];
        s.transform_into(&[5.0, 12.0], &mut buf);
        assert_eq!(buf, s.transform(&[5.0, 12.0]));
        s.transform_into(&[-3.0, 25.0], &mut buf);
        assert_eq!(buf, s.transform(&[-3.0, 25.0]));
    }

    #[test]
    fn inverse_roundtrips() {
        let rows = vec![vec![2.0, -5.0], vec![8.0, 5.0]];
        let s = MinMaxScaler::fit(&rows);
        let t = s.transform(&[4.0, 0.0]);
        let back = s.inverse(&t);
        assert!((back[0] - 4.0).abs() < 1e-12);
        assert!((back[1] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_scaler_roundtrip() {
        let s = ScalarScaler::fit(&[10.0, 20.0]);
        assert_eq!(s.transform(15.0), 0.5);
        assert_eq!(s.inverse(0.5), 15.0);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn fit_panics_on_empty() {
        MinMaxScaler::fit(&[]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            rows in proptest::collection::vec(
                proptest::collection::vec(-1000.0f64..1000.0, 3), 2..20),
            probe in proptest::collection::vec(-2000.0f64..2000.0, 3),
        ) {
            let s = MinMaxScaler::fit(&rows);
            let back = s.inverse(&s.transform(&probe));
            for (j, (&b, &p)) in back.iter().zip(&probe).enumerate() {
                // Constant columns cannot round-trip; others must.
                if s.maxs[j] > s.mins[j] {
                    prop_assert!((b - p).abs() < 1e-6 * (1.0 + p.abs()));
                }
            }
        }
    }
}
