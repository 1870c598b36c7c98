//! Complex scalars and dense complex linear algebra for AC (phasor)
//! analysis.

use crate::NumericError;

/// A complex number (double precision), written from scratch because
//  the workspace carries no external numerics dependency.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// 0 + 0j.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// 1 + 0j.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// 0 + 1j.
    pub const J: Self = Self { re: 0.0, im: 1.0 };

    /// Creates `re + j·im`.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    #[must_use]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// From polar form `r·e^{jθ}`.
    #[must_use]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// Magnitude `|z|`.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians.
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Division by exact zero yields infinities, matching `f64`
    /// semantics.
    #[must_use]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }

    /// `true` when both parts are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl std::ops::Add for Complex {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Neg for Complex {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Div for Complex {
    type Output = Self;
    // Complex division multiplies by the reciprocal (conjugate trick).
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.re * rhs, self.im * rhs)
    }
}

impl std::ops::AddAssign for Complex {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::ops::SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+j{:.6}", self.re, self.im)
        } else {
            write!(f, "{:.6}-j{:.6}", self.re, -self.im)
        }
    }
}

/// A row-major dense complex matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct ComplexMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl ComplexMatrix {
    /// Creates a `rows × cols` zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
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

    /// Entry read (panics out of bounds, like slice indexing).
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> Complex {
        self.data[row * self.cols + col]
    }

    /// Entry write.
    pub fn set(&mut self, row: usize, col: usize, value: Complex) {
        self.data[row * self.cols + col] = value;
    }

    /// Adds `value` to an entry (MNA stamping).
    pub fn add_at(&mut self, row: usize, col: usize, value: Complex) {
        self.data[row * self.cols + col] += value;
    }

    /// Overwrites every entry with `value` (typically [`Complex::ZERO`]
    /// before restamping), keeping the allocation.
    pub fn fill(&mut self, value: Complex) {
        self.data.fill(value);
    }

    /// Makes `self` an entry-for-entry copy of `src`, reusing the
    /// existing allocation when the sizes match (and growing it at most
    /// once otherwise).
    pub fn copy_from(&mut self, src: &Self) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.cols, "complex matvec dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut acc = Complex::ZERO;
                for j in 0..self.cols {
                    acc += self.at(i, j) * x[j];
                }
                acc
            })
            .collect()
    }
}

/// LU factorization with partial pivoting over ℂ.
#[derive(Clone, Debug)]
pub struct ComplexLu {
    lu: ComplexMatrix,
    perm: Vec<usize>,
}

impl ComplexLu {
    /// Factors a square complex matrix.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] for a non-square input.
    /// * [`NumericError::Singular`] when a pivot magnitude underflows.
    pub fn new(a: &ComplexMatrix) -> Result<Self, NumericError> {
        let mut f = Self {
            lu: ComplexMatrix::zeros(0, 0),
            perm: Vec::new(),
        };
        f.factor_into(a)?;
        Ok(f)
    }

    /// Refactors `a` in place, reusing this factorization's matrix and
    /// permutation buffers: after the first call (or a [`ComplexLu::new`]
    /// of the same dimension) repeated factorizations allocate nothing.
    ///
    /// Pivoting compares squared magnitudes (`|z|²`), which selects the
    /// same pivot as comparing `|z|` — the square is monotone — without
    /// a square root per candidate; the singularity threshold is the
    /// squared form of `|pivot| ≤ 1e-13·max|aᵢⱼ|`.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] for a non-square input.
    /// * [`NumericError::Singular`] when a pivot magnitude underflows;
    ///   the buffered factorization is unspecified afterwards and must
    ///   be refactored before solving.
    pub fn factor_into(&mut self, a: &ComplexMatrix) -> Result<(), NumericError> {
        if a.rows() != a.cols() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let lu = &mut self.lu;
        lu.copy_from(a);
        self.perm.clear();
        self.perm.extend(0..n);
        let scale_sqr = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .fold(0.0_f64, |m, (i, j)| m.max(lu.at(i, j).norm_sqr()))
            .max(1.0);
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_sqr = lu.at(k, k).norm_sqr();
            for i in (k + 1)..n {
                let sqr = lu.at(i, k).norm_sqr();
                if sqr > pivot_sqr {
                    pivot_sqr = sqr;
                    pivot_row = i;
                }
            }
            if pivot_sqr <= 1e-26 * scale_sqr {
                return Err(NumericError::Singular { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu.at(k, j);
                    lu.set(k, j, lu.at(pivot_row, j));
                    lu.set(pivot_row, j, tmp);
                }
                self.perm.swap(k, pivot_row);
            }
            let pivot = lu.at(k, k);
            for i in (k + 1)..n {
                let factor = lu.at(i, k) / pivot;
                lu.set(i, k, factor);
                for j in (k + 1)..n {
                    let updated = lu.at(i, j) - factor * lu.at(k, j);
                    lu.set(i, j, updated);
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>, NumericError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-owned buffer, so a sweep that
    /// keeps `x` alive allocates nothing per solve. `x` is resized to
    /// the system dimension and fully overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for a wrong-length
    /// right-hand side.
    pub fn solve_into(&self, b: &[Complex], x: &mut Vec<Complex>) -> Result<(), NumericError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("rhs of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu.at(i, j) * x[j];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu.at(i, j) * x[j];
            }
            x[i] = sum / self.lu.at(i, i);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.conj(), Complex::new(3.0, 4.0));
        let w = z * z.recip();
        assert!((w.re - 1.0).abs() < 1e-12 && w.im.abs() < 1e-12);
        assert_eq!(Complex::J * Complex::J, Complex::from_real(-1.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1.000000-j2.000000");
    }

    #[test]
    fn solves_complex_system() {
        // (1+j)x = 2 → x = 1−j.
        let mut a = ComplexMatrix::zeros(1, 1);
        a.set(0, 0, Complex::new(1.0, 1.0));
        let lu = ComplexLu::new(&a).unwrap();
        let x = lu.solve(&[Complex::from_real(2.0)]).unwrap();
        assert!((x[0].re - 1.0).abs() < 1e-12 && (x[0].im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rc_divider_phasor() {
        // V across C in a series RC at ω where R = 1/(ωC): |H| = 1/√2,
        // phase −45°.
        let r = 1000.0;
        let c = 1e-6;
        let omega = 1.0 / (r * c);
        let zc = Complex::new(0.0, -1.0 / (omega * c));
        let h = zc / (Complex::from_real(r) + zc);
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((h.arg() + std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = ComplexMatrix::zeros(2, 2);
        assert!(matches!(
            ComplexLu::new(&a),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_and_bad_rhs_rejected() {
        let a = ComplexMatrix::zeros(2, 3);
        assert!(ComplexLu::new(&a).is_err());
        let mut sq = ComplexMatrix::zeros(1, 1);
        sq.set(0, 0, Complex::ONE);
        let lu = ComplexLu::new(&sq).unwrap();
        assert!(lu.solve(&[Complex::ONE, Complex::ONE]).is_err());
    }

    #[test]
    fn factor_into_reuses_buffers_and_matches_fresh_factorization() {
        let mut a = ComplexMatrix::zeros(2, 2);
        a.set(0, 0, Complex::new(2.0, 1.0));
        a.set(0, 1, Complex::new(-1.0, 0.5));
        a.set(1, 0, Complex::new(0.25, -0.75));
        a.set(1, 1, Complex::new(3.0, -2.0));
        let mut b = a.clone();
        b.set(0, 0, Complex::new(5.0, -1.0));

        let mut reused = ComplexLu::new(&a).unwrap();
        let rhs = [Complex::new(1.0, 2.0), Complex::new(-3.0, 0.5)];
        let mut x = Vec::new();
        // Refactor `b` into the same buffers, then come back to `a`:
        // both must agree bitwise with fresh factorizations.
        reused.factor_into(&b).unwrap();
        reused.solve_into(&rhs, &mut x).unwrap();
        assert_eq!(x, ComplexLu::new(&b).unwrap().solve(&rhs).unwrap());
        reused.factor_into(&a).unwrap();
        reused.solve_into(&rhs, &mut x).unwrap();
        assert_eq!(x, ComplexLu::new(&a).unwrap().solve(&rhs).unwrap());
    }

    #[test]
    fn solve_into_matches_solve_and_checks_rhs_length() {
        let mut a = ComplexMatrix::zeros(1, 1);
        a.set(0, 0, Complex::new(0.0, 2.0));
        let lu = ComplexLu::new(&a).unwrap();
        let mut x = vec![Complex::ONE; 7]; // stale contents must not leak
        lu.solve_into(&[Complex::from_real(4.0)], &mut x).unwrap();
        assert_eq!(x, lu.solve(&[Complex::from_real(4.0)]).unwrap());
        assert!(lu.solve_into(&[], &mut x).is_err());
    }

    #[test]
    fn factor_into_rejects_non_square_and_detects_singular() {
        let mut lu = ComplexLu::new(&{
            let mut a = ComplexMatrix::zeros(1, 1);
            a.set(0, 0, Complex::ONE);
            a
        })
        .unwrap();
        assert!(lu.factor_into(&ComplexMatrix::zeros(2, 3)).is_err());
        assert!(matches!(
            lu.factor_into(&ComplexMatrix::zeros(2, 2)),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn matrix_fill_and_copy_from_reuse_storage() {
        let mut a = ComplexMatrix::zeros(2, 2);
        a.set(1, 0, Complex::J);
        let mut b = ComplexMatrix::zeros(2, 2);
        b.copy_from(&a);
        assert_eq!(a, b);
        b.fill(Complex::ZERO);
        assert_eq!(b, ComplexMatrix::zeros(2, 2));
        // Shape changes follow the source.
        let wide = ComplexMatrix::zeros(1, 3);
        b.copy_from(&wide);
        assert_eq!(b.rows(), 1);
        assert_eq!(b.cols(), 3);
    }

    proptest! {
        /// On real-only systems the complex LU must agree with the
        /// real-valued [`crate::LuFactor`] oracle: same partial-pivoting
        /// algorithm, so the solutions coincide to rounding error.
        #[test]
        fn prop_real_only_systems_match_real_lu_oracle(
            entries in proptest::array::uniform9(-1.0_f64..1.0),
            rhs in proptest::array::uniform3(-5.0_f64..5.0),
        ) {
            let n = 3;
            let mut c = ComplexMatrix::zeros(n, n);
            let mut rows = [[0.0_f64; 3]; 3];
            for i in 0..n {
                for j in 0..n {
                    let v = entries[i * n + j]
                        + if i == j { 3.0 } else { 0.0 };
                    c.set(i, j, Complex::from_real(v));
                    rows[i][j] = v;
                }
            }
            let real = crate::LuFactor::new(
                &crate::DenseMatrix::from_rows(&[&rows[0], &rows[1], &rows[2]]).unwrap(),
            ).unwrap();
            let want = real.solve(&rhs).unwrap();

            let mut lu = ComplexLu::new(&c).unwrap();
            let got = lu.solve(&rhs.map(Complex::from_real)).unwrap();
            // `factor_into` over the same matrix must agree bitwise with
            // the fresh factorization it just produced.
            let mut again = Vec::new();
            lu.factor_into(&c).unwrap();
            lu.solve_into(&rhs.map(Complex::from_real), &mut again).unwrap();
            prop_assert_eq!(&again, &got);

            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g.re - w).abs() < 1e-9, "{} vs {}", g.re, w);
                prop_assert!(g.im.abs() < 1e-12);
            }
        }

        /// Random diagonally-dominant complex systems solve to a small
        /// residual through the in-place path as well.
        #[test]
        fn prop_factor_into_residual(
            res in proptest::array::uniform9(-1.0_f64..1.0),
            ims in proptest::array::uniform9(-1.0_f64..1.0),
            rhs_re in proptest::array::uniform3(-5.0_f64..5.0),
        ) {
            let n = 3;
            let mut a = ComplexMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a.set(i, j, Complex::new(res[i * n + j], ims[i * n + j]));
                }
            }
            for i in 0..n {
                let off: f64 = (0..n).filter(|&j| j != i)
                    .map(|j| a.at(i, j).abs()).sum();
                a.set(i, i, Complex::new(off + 1.0, 0.5));
            }
            let b: Vec<Complex> = rhs_re.iter().map(|&r| Complex::new(r, -r)).collect();
            let mut lu = ComplexLu::new(&ComplexMatrix::zeros(0, 0)).unwrap();
            lu.factor_into(&a).unwrap();
            let mut x = Vec::new();
            lu.solve_into(&b, &mut x).unwrap();
            let ax = a.matvec(&x);
            for (axi, bi) in ax.iter().zip(&b) {
                prop_assert!((*axi - *bi).abs() < 1e-9);
            }
        }

        /// Random diagonally-dominant complex systems solve to a small
        /// residual.
        #[test]
        fn prop_complex_solve_residual(
            res in proptest::array::uniform9(-1.0_f64..1.0),
            ims in proptest::array::uniform9(-1.0_f64..1.0),
            rhs_re in proptest::array::uniform3(-5.0_f64..5.0),
        ) {
            let n = 3;
            let mut a = ComplexMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a.set(i, j, Complex::new(res[i * n + j], ims[i * n + j]));
                }
            }
            for i in 0..n {
                let off: f64 = (0..n).filter(|&j| j != i)
                    .map(|j| a.at(i, j).abs()).sum();
                a.set(i, i, Complex::new(off + 1.0, 0.5));
            }
            let b: Vec<Complex> = rhs_re.iter().map(|&r| Complex::new(r, -r)).collect();
            let lu = ComplexLu::new(&a).unwrap();
            let x = lu.solve(&b).unwrap();
            let ax = a.matvec(&x);
            for (axi, bi) in ax.iter().zip(&b) {
                prop_assert!((*axi - *bi).abs() < 1e-9);
            }
        }
    }
}
