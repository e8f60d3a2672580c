//! A struct-of-arrays inference form of a trained [`Network`].
//!
//! [`Network`] stores its parameters as a `Vec<DenseLayer>`, each layer
//! owning its own weight/bias `Vec`s — convenient for training (layers
//! are mutated independently), but the inference hot path pays for it
//! with pointer chasing across several small heap blocks. A
//! [`PackedNetwork`] flattens the whole stack into two contiguous
//! arenas (every weight, every bias, in layer order) plus a small
//! per-layer descriptor table, and fuses the layer-forward loop into
//! one kernel that walks the arenas with `split_at`/`chunks_exact` —
//! branch-free inner loops over cache-resident data that the compiler
//! can keep in registers and auto-vectorise the loads for.
//!
//! # The bit-identity contract
//!
//! Every prediction produced here is **bit-identical** to the legacy
//! path ([`Network::predict`] / [`Network::predict_batch`]). The fused
//! kernel replays exactly the `crate::layer::DenseLayer::forward_into`
//! recurrence — a sequential, index-order `w·x` sum starting from 0.0,
//! plus the bias, then the activation — so no floating-point operation
//! is reordered, reassociated, or vectorised in a way that could change
//! a single ULP. The speedup comes from removing allocation, bounds
//! checks, and pointer indirection, never from changing the arithmetic.
//! Differential tests (proptest over random topologies plus golden
//! fixtures) enforce the contract.

use crate::activation::Activation;
use crate::network::Network;

/// Shape and activation of one packed layer; its parameters live in the
/// owning [`PackedNetwork`]'s arenas, consumed in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerDesc {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
}

/// Rows processed together by the blocked batch kernel. Each lane is an
/// independent row, so blocking never reorders any row's arithmetic —
/// it only lets the compiler vectorise *across* rows.
const LANES: usize = 8;

/// Reusable per-thread scratch for the fused forward kernel: two
/// ping-pong activation buffers sized to the widest layer for the
/// row-at-a-time path, and two lane-major block buffers for the blocked
/// batch path. Steady-state inference through a warm scratch performs
/// **zero** heap allocations.
#[derive(Debug, Default)]
pub struct PackedScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
    blk_cur: Vec<f64>,
    blk_next: Vec<f64>,
}

impl PackedScratch {
    /// An empty scratch; buffers grow on first use and are retained.
    pub const fn new() -> Self {
        PackedScratch {
            cur: Vec::new(),
            next: Vec::new(),
            blk_cur: Vec::new(),
            blk_next: Vec::new(),
        }
    }
}

/// A read-only, struct-of-arrays copy of a [`Network`], derived
/// deterministically by [`PackedNetwork::from_network`]: flat
/// contiguous weight/bias arenas and a fused batch-forward kernel.
/// Training and mutation stay on [`Network`]; inference reads go
/// through the packed form.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedNetwork {
    /// All layer weights, row-major per layer, layers concatenated.
    weights: Vec<f64>,
    /// All layer biases, layers concatenated.
    biases: Vec<f64>,
    layers: Vec<LayerDesc>,
    input_dim: usize,
    widest: usize,
}

impl PackedNetwork {
    /// Packs a trained network. The copy is deterministic: packing the
    /// same network twice yields identical arenas.
    pub fn from_network(net: &Network) -> Self {
        let layers: Vec<LayerDesc> = net
            .layers()
            .iter()
            .map(|l| LayerDesc {
                in_dim: l.in_dim,
                out_dim: l.out_dim,
                activation: l.activation,
            })
            .collect();
        let mut weights = Vec::with_capacity(net.layers().iter().map(|l| l.weights.len()).sum());
        let mut biases = Vec::with_capacity(net.layers().iter().map(|l| l.biases.len()).sum());
        for l in net.layers() {
            weights.extend_from_slice(&l.weights);
            biases.extend_from_slice(&l.biases);
        }
        let input_dim = net.input_dim();
        let widest = layers
            .iter()
            .map(|l| l.out_dim)
            .max()
            .unwrap_or(0)
            .max(input_dim);
        PackedNetwork {
            weights,
            biases,
            layers,
            input_dim,
            widest,
        }
    }

    /// The fused forward kernel for one row. `cur`/`next` are the
    /// caller's ping-pong buffers; the arenas are consumed layer by
    /// layer via `split_at`, the per-output dot product via
    /// `chunks_exact` + `zip` — no computed indexing anywhere.
    fn forward_row(&self, row: &[f64], cur: &mut Vec<f64>, next: &mut Vec<f64>) -> f64 {
        cur.clear();
        cur.extend_from_slice(row);
        let mut w_rest: &[f64] = &self.weights;
        let mut b_rest: &[f64] = &self.biases;
        for l in &self.layers {
            let (w, w_tail) = w_rest.split_at(l.in_dim * l.out_dim);
            let (b, b_tail) = b_rest.split_at(l.out_dim);
            w_rest = w_tail;
            b_rest = b_tail;
            next.clear();
            next.extend(w.chunks_exact(l.in_dim).zip(b).map(|(wrow, &bias)| {
                // Identical recurrence to `DenseLayer::forward_into`:
                // sequential index-order sum from 0.0, then + bias,
                // then the activation — the bit-identity contract.
                let z: f64 = wrow
                    .iter()
                    .zip(cur.iter())
                    .map(|(&w, &x)| w * x)
                    .sum::<f64>()
                    + bias;
                l.activation.apply(z)
            }));
            std::mem::swap(cur, next);
        }
        cur.first().copied().unwrap_or(f64::NAN)
    }

    /// Predicts the scalar output for one input row through the fused
    /// kernel. Bit-identical to [`Network::predict`]; allocation-free
    /// once `scratch` is warm.
    ///
    /// # Panics
    /// Panics when `row.len()` differs from the network's input arity.
    pub fn predict_one(&self, row: &[f64], scratch: &mut PackedScratch) -> f64 {
        assert_eq!(
            row.len(),
            self.input_dim,
            "PackedNetwork::predict_one: arity mismatch"
        );
        scratch.cur.reserve(self.widest);
        scratch.next.reserve(self.widest);
        self.forward_row(row, &mut scratch.cur, &mut scratch.next)
    }

    /// The fused forward kernel for one lane-major block of [`LANES`]
    /// rows. `cur`/`next` hold one [`LANES`]-wide column per neuron;
    /// every lane replays the [`PackedNetwork::forward_row`] recurrence
    /// independently (sequential index-order sum from 0.0, then + bias,
    /// then the activation), so blocking changes which rows share a
    /// pass, never any row's arithmetic. The fixed-size per-output
    /// accumulator lets the compiler vectorise the lane loop.
    fn forward_block(
        &self,
        block: &[f64],
        width: usize,
        out: &mut Vec<f64>,
        scratch: &mut PackedScratch,
    ) {
        let cur = &mut scratch.blk_cur;
        let next = &mut scratch.blk_next;
        let cols = self.widest.max(width) * LANES;
        cur.clear();
        cur.resize(cols, 0.0);
        next.clear();
        next.resize(cols, 0.0);
        // Stage the block transposed: one contiguous LANES-wide column
        // per input dimension.
        for (i, dst) in cur.chunks_exact_mut(LANES).take(width).enumerate() {
            for (d, src_row) in dst.iter_mut().zip(block.chunks_exact(width)) {
                if let Some(&v) = src_row.get(i) {
                    *d = v;
                }
            }
        }
        let mut w_rest: &[f64] = &self.weights;
        let mut b_rest: &[f64] = &self.biases;
        for l in &self.layers {
            let (w, w_tail) = w_rest.split_at(l.in_dim * l.out_dim);
            let (b, b_tail) = b_rest.split_at(l.out_dim);
            w_rest = w_tail;
            b_rest = b_tail;
            for ((wrow, &bias), dst) in w
                .chunks_exact(l.in_dim)
                .zip(b)
                .zip(next.chunks_exact_mut(LANES))
            {
                let mut acc = [0.0f64; LANES];
                for (&wji, col) in wrow.iter().zip(cur.chunks_exact(LANES)) {
                    for (a, &x) in acc.iter_mut().zip(col) {
                        *a += wji * x;
                    }
                }
                for (d, a) in dst.iter_mut().zip(acc) {
                    *d = l.activation.apply(a + bias);
                }
            }
            std::mem::swap(cur, next);
        }
        if let Some(first) = cur.chunks_exact(LANES).next() {
            out.extend_from_slice(first);
        }
    }

    /// Predicts for a row-major flat batch (`rows.len() / width` rows of
    /// `width` features), writing the outputs into `out` (cleared
    /// first). Full blocks of `LANES` rows take the lane-parallel
    /// blocked kernel; the remainder goes row at a time. Bit-identical,
    /// row for row, to [`Network::predict_batch`]; allocation-free once
    /// `out` and `scratch` are warm.
    ///
    /// # Panics
    /// Panics when `width` differs from the network's input arity or
    /// `rows.len()` is not a multiple of `width`.
    pub fn predict_batch_into(
        &self,
        rows: &[f64],
        width: usize,
        out: &mut Vec<f64>,
        scratch: &mut PackedScratch,
    ) {
        assert_eq!(
            width, self.input_dim,
            "PackedNetwork::predict_batch_into: arity mismatch"
        );
        assert_eq!(
            rows.len() % width,
            0,
            "PackedNetwork::predict_batch_into: flat batch is not a multiple of width"
        );
        scratch.cur.reserve(self.widest);
        scratch.next.reserve(self.widest);
        out.clear();
        out.reserve(rows.len() / width);
        let mut blocks = rows.chunks_exact(width * LANES);
        for block in &mut blocks {
            self.forward_block(block, width, out, scratch);
        }
        for row in blocks.remainder().chunks_exact(width) {
            out.push(self.forward_row(row, &mut scratch.cur, &mut scratch.next));
        }
    }
}

impl From<&Network> for PackedNetwork {
    fn from(net: &Network) -> Self {
        PackedNetwork::from_network(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for(n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| (i * dim + d) as f64 * 0.017 - 1.3)
                    .collect()
            })
            .collect()
    }

    fn flatten(rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().flatten().copied().collect()
    }

    #[test]
    fn packing_is_deterministic() {
        let net = Network::new(5, &[9, 4], 42);
        assert_eq!(
            PackedNetwork::from_network(&net),
            PackedNetwork::from_network(&net)
        );
    }

    #[test]
    fn packed_batch_is_bit_identical_to_legacy_batch() {
        for (dim, hidden, seed) in [
            (2usize, vec![4usize], 1u64),
            (4, vec![10, 5], 7),
            (7, vec![14, 7], 21),
            (3, vec![6, 5, 4], 99),
        ] {
            let net = Network::new(dim, &hidden, seed);
            let packed = PackedNetwork::from_network(&net);
            let rows = rows_for(33, dim);
            let legacy = net.predict_batch(&rows);
            let mut out = Vec::new();
            let mut scratch = PackedScratch::new();
            packed.predict_batch_into(&flatten(&rows), dim, &mut out, &mut scratch);
            assert_eq!(legacy.len(), out.len());
            for (i, (l, p)) in legacy.iter().zip(&out).enumerate() {
                assert_eq!(
                    l.to_bits(),
                    p.to_bits(),
                    "row {i} diverged: legacy {l} packed {p}"
                );
            }
        }
    }

    #[test]
    fn predict_one_matches_predict() {
        let net = Network::new(4, &[8, 4], 3);
        let packed = PackedNetwork::from_network(&net);
        let mut scratch = PackedScratch::new();
        for row in rows_for(10, 4) {
            assert_eq!(
                net.predict(&row).to_bits(),
                packed.predict_one(&row, &mut scratch).to_bits()
            );
        }
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let net = Network::new(3, &[5], 0);
        let packed = PackedNetwork::from_network(&net);
        let mut out = vec![1.0, 2.0];
        let mut scratch = PackedScratch::new();
        packed.predict_batch_into(&[], 3, &mut out, &mut scratch);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn batch_checks_width() {
        let net = Network::new(3, &[4], 0);
        let packed = PackedNetwork::from_network(&net);
        packed.predict_batch_into(&[1.0, 2.0], 2, &mut Vec::new(), &mut PackedScratch::new());
    }

    #[test]
    #[should_panic(expected = "multiple of width")]
    fn batch_checks_flat_length() {
        let net = Network::new(3, &[4], 0);
        let packed = PackedNetwork::from_network(&net);
        packed.predict_batch_into(&[1.0, 2.0], 3, &mut Vec::new(), &mut PackedScratch::new());
    }
}
