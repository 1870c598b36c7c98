//! Row-major dense matrix.

use crate::NumericError;

/// A row-major dense matrix of `f64`.
///
/// ```
/// use vpd_numeric::DenseMatrix;
///
/// # fn main() -> Result<(), vpd_numeric::NumericError> {
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(a.get(1, 0)?, 3.0);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] when the rows have
    /// unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumericError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(NumericError::DimensionMismatch {
                    expected: format!("row of length {ncols}"),
                    found: format!("row {i} of length {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[must_use]
    pub const fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Bounds-checked entry read.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::IndexOutOfBounds`] for an invalid index.
    pub fn get(&self, row: usize, col: usize) -> Result<f64, NumericError> {
        self.check(row, col)?;
        Ok(self.data[row * self.cols + col])
    }

    /// Bounds-checked entry write.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::IndexOutOfBounds`] for an invalid index.
    pub fn set(&mut self, row: usize, col: usize, value: f64) -> Result<(), NumericError> {
        self.check(row, col)?;
        self.data[row * self.cols + col] = value;
        Ok(())
    }

    /// Adds `value` to the entry (MNA "stamping" primitive).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::IndexOutOfBounds`] for an invalid index.
    pub fn add_at(&mut self, row: usize, col: usize, value: f64) -> Result<(), NumericError> {
        self.check(row, col)?;
        self.data[row * self.cols + col] += value;
        Ok(())
    }

    /// Unchecked entry read for hot loops (still panics in debug builds
    /// through slice indexing rather than UB).
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// The transpose `Aᵀ`.
    #[must_use]
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self.at(j, i))
    }

    /// Maximum absolute asymmetry `max |A_ij − A_ji|` (0 for symmetric).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square(), "asymmetry requires a square matrix");
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self.at(i, j) - self.at(j, i)).abs());
            }
        }
        worst
    }

    /// Row-slice view.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    fn check(&self, row: usize, col: usize) -> Result<(), NumericError> {
        if row >= self.rows || col >= self.cols {
            return Err(NumericError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let i3 = DenseMatrix::identity(3);
        assert_eq!(i3.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, NumericError::DimensionMismatch { .. }));
    }

    #[test]
    fn get_set_round_trip_and_bounds() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(0, 1, 5.0).unwrap();
        assert_eq!(m.get(0, 1).unwrap(), 5.0);
        assert!(matches!(
            m.get(2, 0),
            Err(NumericError::IndexOutOfBounds { .. })
        ));
        assert!(m.set(0, 9, 1.0).is_err());
    }

    #[test]
    fn add_at_accumulates_like_mna_stamping() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.add_at(0, 0, 2.0).unwrap();
        m.add_at(0, 0, 3.0).unwrap();
        assert_eq!(m.at(0, 0), 5.0);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn asymmetry_detects_nonsymmetric() {
        let sym = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert_eq!(sym.asymmetry(), 0.0);
        let asym = DenseMatrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]).unwrap();
        assert_eq!(asym.asymmetry(), 1.0);
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_length_mismatch_panics() {
        let _ = DenseMatrix::identity(2).matvec(&[1.0]);
    }
}
