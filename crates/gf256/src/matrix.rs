//! Dense matrices over GF(2^8) with Gauss-Jordan inversion.
//!
//! Sizes here are small — Reed-Solomon over GF(2^8) caps blocks at `n <= 255`
//! — so a dense row-major `Vec<u8>` with cubic-time inversion is the right
//! tool (this mirrors Rizzo's classic `fec.c`).

use core::fmt;

use crate::tables::MUL;
use crate::Gf256;

/// Errors from matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix is singular and cannot be inverted. Carries the column at
    /// which no pivot could be found.
    Singular {
        /// Column index where elimination failed.
        column: usize,
    },
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Singular { column } => {
                write!(f, "singular matrix: no pivot in column {column}")
            }
            MatrixError::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A dense row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, Gf256::ONE);
        }
        m
    }

    /// Creates a matrix from a row-major byte vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<u8>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "row-major data length");
        Matrix { rows, cols, data }
    }

    /// The Vandermonde matrix `V[i][j] = (alpha^i)^j` with `rows` distinct
    /// evaluation points. Any `cols` rows of it are linearly independent,
    /// which is what makes Reed-Solomon MDS.
    ///
    /// # Panics
    /// Panics if `rows > 255`: the points `alpha^i` repeat after 255, so a
    /// larger Vandermonde matrix over GF(2^8) cannot have distinct rows.
    pub fn vandermonde(rows: usize, cols: usize) -> Matrix {
        assert!(
            rows <= crate::MUL_ORDER,
            "GF(2^8) Vandermonde limited to 255 distinct rows, got {rows}"
        );
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let x = Gf256::alpha_pow(i);
            let mut acc = Gf256::ONE;
            for j in 0..cols {
                m.set(i, j, acc);
                acc *= x;
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Gf256 {
        debug_assert!(r < self.rows && c < self.cols);
        Gf256(self.data[r * self.cols + c])
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Gf256) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v.0;
    }

    /// Borrow a row as raw bytes (coefficients).
    #[inline]
    pub fn row(&self, r: usize) -> &[u8] {
        self.row_span(r..r + 1)
    }

    /// Borrow a run of rows back to back: the row-major coefficient
    /// matrix [`kernels::addmul_rows`](crate::kernels::addmul_rows) takes.
    #[inline]
    pub fn row_span(&self, rows: core::ops::Range<usize>) -> &[u8] {
        &self.data[rows.start * self.cols..rows.end * self.cols]
    }

    /// Extracts the sub-matrix made of the given rows (in the given order).
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: rows.len(),
            cols: self.cols,
            data,
        }
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.get(i, l);
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let v = out.get(i, j) + a * rhs.get(l, j);
                    out.set(i, j, v);
                }
            }
        }
        Ok(out)
    }

    /// Inverts a square matrix with Gauss-Jordan elimination.
    ///
    /// Pivoting over a finite field only needs a *non-zero* pivot (there is
    /// no numeric conditioning), so plain partial pivoting by first non-zero
    /// entry is exact.
    pub fn inverted(&self) -> Result<Matrix, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (self.cols, self.rows),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find a non-zero pivot at or below the diagonal.
            let pivot = (col..n)
                .find(|&r| !a.get(r, col).is_zero())
                .ok_or(MatrixError::Singular { column: col })?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise the pivot row.
            let p = a.get(col, col).inv();
            a.scale_row(col, p);
            inv.scale_row(col, p);
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a.get(r, col);
                if f.is_zero() {
                    continue;
                }
                a.addmul_row(r, col, f);
                inv.addmul_row(r, col, f);
            }
        }
        Ok(inv)
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    fn scale_row(&mut self, r: usize, f: Gf256) {
        let mul = &MUL[f.0 as usize];
        for b in &mut self.data[r * self.cols..(r + 1) * self.cols] {
            *b = mul[*b as usize];
        }
    }

    /// `row[dst] += f * row[src]`.
    fn addmul_row(&mut self, dst: usize, src: usize, f: Gf256) {
        debug_assert_ne!(dst, src);
        let cols = self.cols;
        let (s, d) = if src < dst {
            let (head, tail) = self.data.split_at_mut(dst * cols);
            (&head[src * cols..(src + 1) * cols], &mut tail[..cols])
        } else {
            let (head, tail) = self.data.split_at_mut(src * cols);
            (&tail[..cols], &mut head[dst * cols..(dst + 1) * cols])
        };
        crate::kernels::addmul_slice(d, s, f.0);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(16) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(32) {
                write!(f, "{:02x} ", self.get(r, c).0)?;
            }
            writeln!(f, "{}", if self.cols > 32 { "…" } else { "" })?;
        }
        if self.rows > 16 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..n * n).map(|_| rng.gen()).collect();
        Matrix::from_rows(n, n, data)
    }

    #[test]
    fn identity_is_self_inverse() {
        let i = Matrix::identity(8);
        assert_eq!(i.inverted().unwrap(), i);
    }

    #[test]
    fn zero_matrix_is_singular() {
        let z = Matrix::zero(4, 4);
        assert_eq!(z.inverted(), Err(MatrixError::Singular { column: 0 }));
    }

    #[test]
    fn non_square_inversion_rejected() {
        let m = Matrix::zero(3, 4);
        assert!(matches!(
            m.inverted(),
            Err(MatrixError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn mul_shape_mismatch_rejected() {
        let a = Matrix::zero(3, 4);
        let b = Matrix::zero(5, 3);
        assert!(matches!(a.mul(&b), Err(MatrixError::ShapeMismatch { .. })));
    }

    #[test]
    fn vandermonde_rows_are_geometric() {
        let v = Matrix::vandermonde(5, 3);
        for i in 0..5 {
            let x = Gf256::alpha_pow(i);
            assert_eq!(v.get(i, 0), Gf256::ONE);
            assert_eq!(v.get(i, 1), x);
            assert_eq!(v.get(i, 2), x * x);
        }
    }

    #[test]
    #[should_panic(expected = "255 distinct rows")]
    fn vandermonde_row_limit_enforced() {
        let _ = Matrix::vandermonde(256, 4);
    }

    /// Any square sub-matrix of a Vandermonde matrix (distinct points) is
    /// invertible — the algebraic heart of Reed-Solomon's MDS property.
    #[test]
    fn vandermonde_submatrices_invertible() {
        let v = Matrix::vandermonde(20, 7);
        // a few deterministic row subsets
        for rows in [
            vec![0, 1, 2, 3, 4, 5, 6],
            vec![13, 2, 19, 7, 5, 11, 3],
            vec![19, 18, 17, 16, 15, 14, 13],
        ] {
            let sub = v.select_rows(&rows);
            let inv = sub.inverted().expect("Vandermonde minor singular");
            assert_eq!(sub.mul(&inv).unwrap(), Matrix::identity(7));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random matrices that invert successfully satisfy A * A^-1 = I, and
        /// inversion round-trips.
        #[test]
        fn inversion_roundtrip(n in 1usize..24, seed in any::<u64>()) {
            let a = random_matrix(n, seed);
            if let Ok(inv) = a.inverted() {
                prop_assert_eq!(a.mul(&inv).unwrap(), Matrix::identity(n));
                prop_assert_eq!(inv.mul(&a).unwrap(), Matrix::identity(n));
                prop_assert_eq!(inv.inverted().unwrap(), a);
            }
        }

        /// Solving A x = b via the inverse reproduces x.
        #[test]
        fn solve_via_inverse(n in 1usize..16, seed in any::<u64>()) {
            let a = random_matrix(n, seed);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xDEAD);
            let x = Matrix::from_rows(n, 1, (0..n).map(|_| rng.gen()).collect());
            if let Ok(inv) = a.inverted() {
                let b = a.mul(&x).unwrap();
                let x2 = inv.mul(&b).unwrap();
                prop_assert_eq!(x, x2);
            }
        }

        #[test]
        fn identity_is_multiplicative_neutral(n in 1usize..12, seed in any::<u64>()) {
            let a = random_matrix(n, seed);
            let i = Matrix::identity(n);
            prop_assert_eq!(a.mul(&i).unwrap(), a.clone());
            prop_assert_eq!(i.mul(&a).unwrap(), a);
        }
    }

    #[test]
    fn scale_row_matches_field_multiplication() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5CA1E);
        let data: Vec<u8> = (0..3 * 255).map(|_| rng.gen()).collect();
        for c in 0..=255u8 {
            let mut m = Matrix::from_rows(3, 255, data.clone());
            m.scale_row(1, Gf256(c));
            let expect: Vec<u8> = data[255..510]
                .iter()
                .map(|&d| (Gf256(c) * Gf256(d)).0)
                .collect();
            assert_eq!(m.row(1), &expect[..], "c {c}");
            assert_eq!(m.row(0), &data[..255], "row 0 untouched, c {c}");
            assert_eq!(m.row(2), &data[510..], "row 2 untouched, c {c}");
        }
    }

    #[test]
    fn select_rows_picks_in_order() {
        let m = Matrix::from_rows(3, 2, vec![1, 2, 3, 4, 5, 6]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5, 6]);
        assert_eq!(s.row(1), &[1, 2]);
    }
}
