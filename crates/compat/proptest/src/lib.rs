//! Offline stand-in for the slice of `proptest` this workspace uses.
//!
//! Supports the `proptest!` macro with `pattern in strategy` arguments,
//! `any::<T>()`, integer range strategies, tuple strategies,
//! `collection::vec`, `ProptestConfig::with_cases`, and the
//! `prop_assert*` macros.
//!
//! Differences from upstream: a fixed deterministic seed per property
//! (reproducible across runs and machines), no shrinking, and no failure
//! persistence — `.proptest-regressions` files are ignored.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates the generator for one property case.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: u128) -> u128 {
        debug_assert!(span > 0);
        let wide = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        wide % span
    }
}

/// A value generator (upstream: `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Types with a canonical full-domain strategy (upstream: `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws one value from the full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(PhantomData<T>);

/// Full-domain strategy for `T` (upstream: `proptest::prelude::any`).
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bound for [`vec`](fn@vec): an exact size or a range of sizes.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    /// Strategy generating `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with the given element strategy and length bound.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi_inclusive - self.size.lo) as u128 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Per-property configuration (upstream: `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Defines property tests: each `name(arg in strategy, ...)` item becomes a
/// `#[test]` running the body over deterministically generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr)
        $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for case in 0..config.cases {
                    // Deterministic per-case seed; decorrelate consecutive
                    // cases with a large odd stride.
                    let mut rng = $crate::TestRng::new(
                        0xB5C0_9E02_u64.wrapping_add(u64::from(case).wrapping_mul(0x2545_F491_4F6C_DD1D)),
                    );
                    $(let $arg = $crate::Strategy::generate(&$strategy, &mut rng);)+
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)*);
    };
}

/// `assert!` inside `proptest!` bodies (no shrinking, so a plain panic).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_any_stay_in_domain(
            x in 10u64..20,
            y in -3i16..=3,
            flag in any::<bool>(),
            v in collection::vec((0u64..100, any::<bool>()), 1..8),
        ) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-3..=3).contains(&y));
            let _ = flag;
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&(n, _)| n < 100));
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(n in 0usize..4) {
            prop_assert!(n < 4);
        }
    }

    #[test]
    fn exact_vec_size_is_respected() {
        let strat = collection::vec(-4i16..=4, 64usize);
        let mut rng = TestRng::new(9);
        let v = strat.generate(&mut rng);
        assert_eq!(v.len(), 64);
        assert!(v.iter().all(|&c| (-4..=4).contains(&c)));
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = (0u64..1000, any::<bool>());
        let a: Vec<_> = {
            let mut rng = TestRng::new(1);
            (0..16).map(|_| strat.generate(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = TestRng::new(1);
            (0..16).map(|_| strat.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
