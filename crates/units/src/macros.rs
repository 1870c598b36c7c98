//! The `quantity!` macro generating the common surface of every unit newtype.

/// Defines a physical-quantity newtype over `f64` with the shared trait
/// surface: `Clone`, `Copy`, `PartialEq`, `PartialOrd`, `Debug`, `Default`,
/// ordering helpers, same-dimension arithmetic (`Add`, `Sub`, `Neg`),
/// scalar scaling (`Mul<f64>`, `Div<f64>`, `f64 * Self`), the dimensionless
/// ratio `Self / Self -> f64`, `Sum`, and engineering-notation `Display`.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, symbol: $symbol:expr
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates the quantity from a value in SI base units.
            ///
            /// ```
            #[doc = concat!("let q = vpd_units::", stringify!($name), "::new(2.5);")]
            /// assert_eq!(q.value(), 2.5);
            /// ```
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the underlying value in SI base units.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The unit symbol used by the `Display` implementation.
            #[must_use]
            pub const fn symbol() -> &'static str {
                $symbol
            }

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Elementwise minimum.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Elementwise maximum.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` (same contract as [`f64::clamp`]).
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the value is finite (not NaN or ±∞).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// `true` when the value is exactly zero.
            #[must_use]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// `true` when `self` and `other` differ by at most `tol`
            /// in SI base units.
            #[must_use]
            pub fn approx_eq(self, other: Self, tol: f64) -> bool {
                (self.0 - other.0).abs() <= tol
            }
        }

        impl std::ops::Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl std::ops::Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl std::ops::Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl std::ops::SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl std::ops::Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl std::ops::Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl std::ops::Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Ratio of two same-dimension quantities is dimensionless.
        impl std::ops::Div<$name> for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl<'a> std::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $crate::fmt_eng::write_engineering(f, self.0, $symbol)
            }
        }

        impl From<$name> for f64 {
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}
