//! Minimal offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of the proptest API its test suites use:
//! [`Strategy`](strategy::Strategy) with `prop_map` / `prop_flat_map` / `prop_recursive` /
//! `boxed`, [`strategy::Just`], weighted unions via [`prop_oneof!`],
//! `prop::collection::vec`, and the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] macros.
//!
//! Semantics: each property runs `ProptestConfig::cases` times on inputs
//! drawn from a deterministic per-test seed (derived from the test's
//! module path and name), and the first failing case panics with its
//! case number. There is **no shrinking** — a deliberate simplification;
//! failures are still reproducible because generation is deterministic.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Runner configuration, failure type, and the deterministic RNG
    //! driving generation.

    /// Per-property configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Failure raised by `prop_assert!` and friends.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    /// Deterministic SplitMix64 generator used for value generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator from an explicit seed.
        pub fn new(seed: u64) -> TestRng {
            TestRng {
                state: seed
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(0x9E37_79B9_7F4A_7C15),
            }
        }

        /// A generator seeded from a test's fully qualified name, so
        /// every test gets a distinct but reproducible stream.
        pub fn from_name(name: &str) -> TestRng {
            // FNV-1a.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng::new(h)
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`0` when `n == 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use std::sync::Arc;

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        /// Generates a value, builds a dependent strategy from it, and
        /// samples that.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }

        /// Recursive strategies: `self` is the leaf case and `recurse`
        /// builds one level on top of an inner strategy. `_desired_size`
        /// and `_expected_branch` are accepted for API compatibility;
        /// recursion depth is bounded by `depth`.
        fn prop_recursive<S, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S,
        {
            let leaf: BoxedStrategy<Self::Value> = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let deeper = recurse(strat).boxed();
                strat = Union::new(vec![(1, leaf.clone()), (2, deeper)]).boxed();
            }
            strat
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// Result of [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    /// Weighted choice between strategies; the expansion of
    /// [`crate::prop_oneof!`].
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T> Union<T> {
        /// Builds a union; weights must not all be zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Union<T> {
            let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof requires a positive total weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return s.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weights sum to total")
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let lo = self.start as i128;
                    let span = (self.end as i128 - lo) as u128;
                    let v = u128::from(rng.next_u64()) % span;
                    (lo + v as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (s, e) = (*self.start(), *self.end());
                    assert!(s <= e, "empty inclusive range strategy");
                    let lo = s as i128;
                    let span = (e as i128 - lo) as u128 + 1;
                    let v = u128::from(rng.next_u64()) % span;
                    (lo + v as i128) as $t
                }
            }
        )*};
    }
    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive size range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// A strategy generating `Vec`s of `element` with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Result of [`vec`](fn@vec).
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace alias so `prop::collection::vec(..)` works.
    pub use crate as prop;
}

/// Defines property tests. Accepts an optional
/// `#![proptest_config(..)]` header followed by `#[test]` functions
/// whose arguments are drawn from strategies (`arg in strategy`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $cfg:expr;) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e.0
                    );
                }
            }
        }
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{}: {:?} != {:?}", format!($($fmt)+), l, r);
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{}: {:?} == {:?}", format!($($fmt)+), l, r);
    }};
}

/// Weighted (`w => strategy`) or unweighted choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::new(1);
        let s = prop::collection::vec(0u64..10, 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn union_respects_zero_weight_paths() {
        let mut rng = crate::test_runner::TestRng::new(2);
        let s = prop_oneof![1 => Just(1u8), 3 => Just(2u8)];
        let mut saw = [0u32; 3];
        for _ in 0..400 {
            saw[s.generate(&mut rng) as usize - 1] += 1;
        }
        assert!(saw[0] > 0 && saw[1] > saw[0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_roundtrip(x in 0i64..50, v in prop::collection::vec(0u32..4, 0..6)) {
            prop_assert!((0..50).contains(&x));
            prop_assert_eq!(v.len(), v.iter().map(|_| 1usize).sum::<usize>());
        }
    }
}
