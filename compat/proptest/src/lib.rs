//! Offline stand-in for `proptest`.
//!
//! The container cannot reach a crates registry, so this crate provides
//! the slice of proptest this workspace uses: the `proptest!` macro with
//! an optional `#![proptest_config(..)]` header, `prop_assert!` /
//! `prop_assert_eq!`, range strategies for floats and integers,
//! `collection::vec`, and `array::uniformN`. Cases are sampled (no
//! shrinking) from a deterministic per-test RNG seeded by the test name,
//! so failures reproduce run to run. Swapping the real crate back in
//! requires no source changes.

#![forbid(unsafe_code)]

/// Runner configuration (stand-in for `proptest::test_runner`).
pub mod test_runner {
    /// How many cases each property runs.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of sampled cases.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` sampled inputs per property.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }
}

/// Value-generation strategies (stand-in for `proptest::strategy`).
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::{Range, RangeInclusive};

    /// The RNG handed to strategies.
    pub type TestRng = StdRng;

    /// A deterministic RNG derived from the test's name, so each
    /// property sees the same case stream every run.
    #[must_use]
    pub fn new_test_rng(name: &str) -> TestRng {
        // FNV-1a over the test name keeps distinct tests decorrelated.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }

    /// Something that can produce values for a property.
    pub trait Strategy {
        /// The type of value produced.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Collection strategies (stand-in for `proptest::collection`).
pub mod collection {
    use super::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A half-open length range for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec length range");
            Self {
                lo: *r.start(),
                hi: r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Fixed-size array strategies (stand-in for `proptest::array`).
pub mod array {
    use super::strategy::{Strategy, TestRng};

    /// Strategy producing `[T; N]` from an element strategy.
    #[derive(Clone, Debug)]
    pub struct UniformArrayStrategy<S, const N: usize> {
        element: S,
    }

    impl<S: Strategy, const N: usize> Strategy for UniformArrayStrategy<S, N> {
        type Value = [S::Value; N];
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            std::array::from_fn(|_| self.element.sample(rng))
        }
    }

    macro_rules! uniform_fns {
        ($($name:ident => $n:literal),* $(,)?) => {$(
            /// An `[T; N]` strategy sampling every slot from `element`.
            pub fn $name<S: Strategy>(element: S) -> UniformArrayStrategy<S, $n> {
                UniformArrayStrategy { element }
            }
        )*};
    }
    uniform_fns!(
        uniform1 => 1, uniform2 => 2, uniform3 => 3, uniform4 => 4,
        uniform5 => 5, uniform6 => 6, uniform7 => 7, uniform8 => 8,
        uniform9 => 9, uniform10 => 10, uniform12 => 12, uniform16 => 16,
        uniform24 => 24, uniform32 => 32,
    );
}

/// The common imports (stand-in for `proptest::prelude`).
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Runs each property in the block `config.cases` times with freshly
/// sampled inputs. No shrinking: the failing case's inputs surface in
/// the panic message instead.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::strategy::new_test_rng(stringify!($name));
            for _ in 0..__config.cases {
                $(
                    let $arg =
                        $crate::strategy::Strategy::sample(&($strat), &mut __rng);
                )+
                $body
            }
        }
    )*};
}

/// `assert!` that names the property framework in its intent.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Sampled floats respect their range.
        #[test]
        fn floats_in_range(x in 1.5_f64..2.5) {
            prop_assert!((1.5..2.5).contains(&x));
        }

        /// Vec lengths and elements respect their strategies.
        #[test]
        fn vecs_in_range(v in crate::collection::vec(0.0_f64..1.0, 2..8)) {
            prop_assert!(v.len() >= 2 && v.len() < 8);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        /// Arrays fill every slot from the element strategy.
        #[test]
        fn arrays_fill(a in crate::array::uniform4(-1.0_f64..1.0), n in 0_usize..3) {
            prop_assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
            prop_assert!(n < 3);
        }
    }
}
