//! A minimal dense row-major matrix with exactly the operations the
//! regression and neural-network crates need: multiply, transpose, and a
//! partial-pivoting Gaussian solver.

use crate::{MathError, Result};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    #[cfg(test)]
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::from_vec",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices.
    ///
    /// Returns an error for ragged input.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::from_rows",
            });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Borrow one row as a slice.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers index rows bounded by self.rows; data.len() == rows*cols by construction"
    )]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row as a slice.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers index rows bounded by self.rows; data.len() == rows*cols by construction"
    )]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose of this matrix.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub(crate) fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub(crate) fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::matvec",
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Solves the square linear system `self * x = b` by Gaussian
    /// elimination with partial pivoting.
    ///
    /// Returns [`MathError::Singular`] when a pivot is (numerically) zero.
    #[expect(
        clippy::indexing_slicing,
        reason = "row, col and k range over 0..n and index the n*n working copy and the n-vector"
    )]
    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::solve (square)",
            });
        }
        if b.len() != self.rows {
            return Err(MathError::DimensionMismatch {
                context: "Matrix::solve (rhs)",
            });
        }
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot: pick the row with the largest |value| in `col`.
            let pivot_row = (col..n)
                .max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
                // col..n is non-empty because col < n.
                .unwrap_or(col);
            let pivot = a[pivot_row * n + col];
            if pivot.abs() < 1e-12 {
                return Err(MathError::Singular);
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                x.swap(col, pivot_row);
            }
            // Eliminate below.
            for r in (col + 1)..n {
                let factor = a[r * n + col] / a[col * n + col];
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[r * n + k] -= factor * a[col * n + k];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for k in (col + 1)..n {
                sum -= a[col * n + k] * x[k];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }

    /// Adds `lambda` to every diagonal entry (ridge stabilisation).
    pub(crate) fn add_ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[expect(
        clippy::indexing_slicing,
        reason = "the Index contract: an out-of-shape (r, c) panics, as a slice index does"
    )]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[expect(
        clippy::indexing_slicing,
        reason = "the IndexMut contract: an out-of-shape (r, c) panics, as a slice index does"
    )]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!((m.rows, m.cols), (2, 3));
        assert!(m.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_wrong_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn transpose_roundtrips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows, 3);
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, -1.0]]).unwrap();
        let x = a.solve(&[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // First pivot is zero; only row swaps make this solvable.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(MathError::Singular));
    }

    #[test]
    fn identity_solve_is_identity() {
        let mut i = Matrix::zeros(4, 4);
        i.add_ridge(1.0);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.solve(&b).unwrap(), b);
    }

    #[test]
    fn add_ridge_touches_only_diagonal() {
        let mut m = Matrix::zeros(2, 2);
        m.add_ridge(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    proptest! {
        /// A * x recovered by solve(A, A*x) for well-conditioned diagonal-dominant A.
        #[test]
        fn prop_solve_recovers_solution(
            vals in proptest::collection::vec(-10.0f64..10.0, 9),
            x in proptest::collection::vec(-5.0f64..5.0, 3),
        ) {
            let mut a = Matrix::from_vec(3, 3, vals).unwrap();
            // Make diagonally dominant so the system is well conditioned.
            for i in 0..3 {
                let row_sum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
                a[(i, i)] += row_sum + 1.0;
            }
            let b = a.matvec(&x).unwrap();
            let got = a.solve(&b).unwrap();
            for (g, e) in got.iter().zip(&x) {
                prop_assert!((g - e).abs() < 1e-8, "got {g}, expected {e}");
            }
        }

        /// (A^T)^T == A
        #[test]
        fn prop_double_transpose(rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()) {
            let mut v = Vec::with_capacity(rows * cols);
            let mut s = seed;
            for _ in 0..rows * cols {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                v.push((s >> 11) as f64 / (1u64 << 53) as f64);
            }
            let m = Matrix::from_vec(rows, cols, v).unwrap();
            prop_assert_eq!(m.transpose().transpose(), m);
        }
    }
}
