//! In-memory training dataset with deterministic shuffling and the paper's
//! 70/30 train/test split (§3: "for each topology, we use a cross
//! validation test involving 70% of data as training and 30% as a test").

use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A supervised regression dataset: feature rows and scalar targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature rows; all rows share the same arity.
    pub inputs: Vec<Vec<f64>>,
    /// One target per row.
    pub targets: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset, validating shape.
    ///
    /// # Panics
    /// Panics when lengths differ or rows are ragged.
    pub fn new(inputs: Vec<Vec<f64>>, targets: Vec<f64>) -> Self {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "Dataset: inputs/targets length mismatch"
        );
        if let Some(d) = inputs.first().map(Vec::len) {
            assert!(
                inputs.iter().all(|r| r.len() == d),
                "Dataset: ragged input rows"
            );
        }
        Dataset { inputs, targets }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// True when the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Feature arity (0 for an empty dataset).
    pub fn arity(&self) -> usize {
        self.inputs.first().map_or(0, Vec::len)
    }

    /// Appends one example.
    ///
    /// # Panics
    /// Panics when the row arity differs from existing rows.
    pub fn push(&mut self, row: Vec<f64>, target: f64) {
        if !self.inputs.is_empty() {
            assert_eq!(row.len(), self.arity(), "Dataset::push: arity mismatch");
        }
        self.inputs.push(row);
        self.targets.push(target);
    }

    /// Merges another dataset into this one.
    ///
    /// # Panics
    /// Panics when arities differ (and both are non-empty).
    pub fn extend(&mut self, other: &Dataset) {
        if !self.is_empty() && !other.is_empty() {
            assert_eq!(
                self.arity(),
                other.arity(),
                "Dataset::extend: arity mismatch"
            );
        }
        self.inputs.extend(other.inputs.iter().cloned());
        self.targets.extend(other.targets.iter().cloned());
    }

    /// Deterministically splits into `(train, test)` with `train_fraction`
    /// of the examples (rounded down, at least one on each side when
    /// possible) going to the training side, after a seeded shuffle.
    #[expect(
        clippy::indexing_slicing,
        reason = "idx is a permutation of 0..len and cut is at most len"
    )]
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train_fraction must be within [0, 1]"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let mut cut = (self.len() as f64 * train_fraction) as usize;
        if self.len() >= 2 {
            cut = cut.clamp(1, self.len() - 1);
        }
        let take = |ids: &[usize]| {
            Dataset::new(
                ids.iter().map(|&i| self.inputs[i].clone()).collect(),
                ids.iter().map(|&i| self.targets[i]).collect(),
            )
        };
        (take(&idx[..cut]), take(&idx[cut..]))
    }

    /// Yields shuffled mini-batch index slices for one epoch.
    pub(crate) fn batch_indices(&self, batch_size: usize, rng: &mut impl Rng) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx.chunks(batch_size).map(<[usize]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample(n: usize) -> Dataset {
        Dataset::new(
            (0..n).map(|i| vec![i as f64, (i * 2) as f64]).collect(),
            (0..n).map(|i| i as f64).collect(),
        )
    }

    #[test]
    fn split_respects_fraction() {
        let d = sample(100);
        let (tr, te) = d.split(0.7, 1);
        assert_eq!(tr.len(), 70);
        assert_eq!(te.len(), 30);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = sample(50);
        let (a, _) = d.split(0.7, 42);
        let (b, _) = d.split(0.7, 42);
        assert_eq!(a, b);
        let (c, _) = d.split(0.7, 43);
        assert_ne!(a, c, "different seed should shuffle differently");
    }

    #[test]
    fn split_partitions_all_examples() {
        let d = sample(31);
        let (tr, te) = d.split(0.7, 9);
        assert_eq!(tr.len() + te.len(), 31);
        let mut all: Vec<f64> = tr.targets.iter().chain(&te.targets).copied().collect();
        all.sort_by(f64::total_cmp);
        let expect: Vec<f64> = (0..31).map(|i| i as f64).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn split_keeps_at_least_one_each_side() {
        let d = sample(2);
        let (tr, te) = d.split(0.99, 1);
        assert_eq!(tr.len(), 1);
        assert_eq!(te.len(), 1);
    }

    #[test]
    fn batch_indices_cover_everything_once() {
        let d = sample(10);
        let mut rng = StdRng::seed_from_u64(7);
        let batches = d.batch_indices(3, &mut rng);
        assert_eq!(batches.len(), 4); // 3+3+3+1
        let mut seen: Vec<usize> = batches.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn new_rejects_mismatched_lengths() {
        Dataset::new(vec![vec![1.0]], vec![]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn new_rejects_ragged_rows() {
        Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 0.0]);
    }

    #[test]
    fn extend_merges() {
        let mut a = sample(3);
        let b = sample(2);
        a.extend(&b);
        assert_eq!(a.len(), 5);
    }
}
