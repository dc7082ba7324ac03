//! Offline stand-in for the [proptest](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The build environment has no network access to crates.io, so this crate
//! re-implements the subset of the proptest API the workspace uses:
//!
//! * the [`Strategy`] trait with `prop_map`, `prop_flat_map`, `prop_filter`
//!   and `prop_filter_map` combinators,
//! * [`any`] for primitive types, range strategies, tuple strategies,
//!   [`Just`], `prop::collection::vec`, `prop::option::of` and
//!   `prop::sample::select`,
//! * the `proptest!`, `prop_compose!`, `prop_oneof!`, `prop_assert!`,
//!   `prop_assert_eq!`, `prop_assert_ne!` and `prop_assume!` macros,
//! * [`ProptestConfig`] with `with_cases`.
//!
//! Differences from real proptest: generation is driven by a deterministic
//! splitmix64 RNG seeded from the test name (override with the
//! `PROPTEST_SEED` environment variable), and failing cases are *not*
//! shrunk — the failing input is reported as-is.

use std::fmt;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from an explicit seed.
    pub fn seeded(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64-bit output (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift reduction; bias is negligible for test generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Test-case plumbing
// ---------------------------------------------------------------------------

/// Why a single generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the whole test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; another case is drawn.
    Reject(String),
}

impl TestCaseError {
    /// Builds the failing variant.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// Builds the rejecting variant.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// Result of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Maximum rejected cases (`prop_assume!`) tolerated before giving up.
    pub max_global_rejects: u32,
}

impl ProptestConfig {
    /// Config running `cases` successful cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

fn fnv1a(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Executes `f` until `config.cases` cases pass. Called by `proptest!`.
///
/// # Panics
///
/// Panics when a case fails or too many cases are rejected.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> TestCaseResult,
{
    let seed = match std::env::var("PROPTEST_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or_else(|_| fnv1a(&s)),
        Err(_) => fnv1a(name),
    };
    let mut passed = 0u32;
    let mut rejected = 0u32;
    while passed < config.cases {
        let case = u64::from(passed) + (u64::from(rejected) << 32);
        let mut rng =
            TestRng::seeded(seed ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1));
        match f(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(why)) => {
                rejected += 1;
                assert!(
                    rejected <= config.max_global_rejects,
                    "proptest '{name}': too many rejected cases ({rejected}), last: {why}"
                );
            }
            Err(TestCaseError::Fail(msg)) => panic!(
                "proptest '{name}' failed after {passed} passing case(s) \
                 (base seed {seed:#x}): {msg}"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A recipe producing random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values for which `f` holds; retries otherwise.
    fn prop_filter<F>(self, reason: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            f,
        }
    }

    /// Combined filter and map: retries while `f` returns `None`.
    fn prop_filter_map<O, F>(self, reason: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<O>,
    {
        FilterMap {
            inner: self,
            reason,
            f,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
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
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

const FILTER_RETRIES: u32 = 4096;

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..FILTER_RETRIES {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({:?}) rejected {FILTER_RETRIES} draws",
            self.reason
        );
    }
}

/// See [`Strategy::prop_filter_map`].
#[derive(Debug, Clone)]
pub struct FilterMap<S, F> {
    inner: S,
    reason: &'static str,
    f: F,
}

impl<S, O, F> Strategy for FilterMap<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> Option<O>,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        for _ in 0..FILTER_RETRIES {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map({:?}) rejected {FILTER_RETRIES} draws",
            self.reason
        );
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------------

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy; see [`any`].
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for any value of `T`; see [`any`].
#[derive(Debug, Clone, Default)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` generates uniformly over all bit patterns of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
range_strategy_int!(u8, u16, u32, u64, usize);

macro_rules! range_strategy_signed {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64 + rng.below(span) as i64) as $t
            }
        }
    )*};
}
range_strategy_signed!(i8, i16, i32, i64, isize);

macro_rules! range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let t = rng.unit_f64() as $t;
                self.start + t * (self.end - self.start)
            }
        }
    )*};
}
range_strategy_float!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// Strategy built directly from a generation closure; used by
/// `prop_compose!`.
pub struct FnStrategy<F>(pub F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Weighted choice between type-erased alternatives; built by
/// `prop_oneof!`.
pub struct OneOf<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> OneOf<T> {
    /// Builds from `(weight, strategy)` arms; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
        let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        OneOf { arms, total }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < u64::from(*w) {
                return s.generate(rng);
            }
            pick -= u64::from(*w);
        }
        unreachable!("weight bookkeeping is exhaustive")
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: an exact `usize` or a
    /// half-open `Range<usize>`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Some-biased, matching proptest's default 3:1 ratio.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `Option` wrapping values of `inner`, biased toward `Some`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// See [`select`].
    pub struct Select<T: Clone> {
        choices: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.choices[rng.below(self.choices.len() as u64) as usize].clone()
        }
    }

    /// Uniform choice from a non-empty list.
    pub fn select<T: Clone>(choices: Vec<T>) -> Select<T> {
        assert!(!choices.is_empty(), "select from an empty list");
        Select { choices }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running [`run_cases`] over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(&config, stringify!($name), |rng| {
                $(let $pat = $crate::Strategy::generate(&($strat), rng);)+
                $body
                Ok(())
            });
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

/// Composes named sub-strategies into a derived strategy function.
#[macro_export]
macro_rules! prop_compose {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($outer:tt)*)
            ($($pat:pat_param in $strat:expr),+ $(,)?)
            -> $ret:ty $body:block
    ) => {
        $(#[$meta])*
        $vis fn $name($($outer)*) -> impl $crate::Strategy<Value = $ret> {
            $crate::FnStrategy(move |rng: &mut $crate::TestRng| {
                $(let $pat = $crate::Strategy::generate(&($strat), rng);)+
                $body
            })
        }
    };
}

/// Weighted (`w => strategy`) or uniform choice between strategies with a
/// common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $((($weight) as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// Like `assert!` but fails only the current case, with input reporting.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Like `assert_eq!` for property tests.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($lhs), stringify!($rhs), lhs, rhs
            )));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), lhs, rhs
            )));
        }
    }};
}

/// Like `assert_ne!` for property tests.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if *lhs == *rhs {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($lhs),
                stringify!($rhs),
                lhs
            )));
        }
    }};
}

/// Rejects the current case (drawing a fresh one) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err($crate::TestCaseError::reject(concat!(
                "assume failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// Glob-import surface mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, prop_oneof,
        proptest, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
        TestCaseResult,
    };

    /// Mirrors `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::seeded(7);
        for _ in 0..1000 {
            let v = (3u32..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-4.0f32..4.0).generate(&mut rng);
            assert!((-4.0..4.0).contains(&f));
        }
    }

    #[test]
    fn vec_sizes_respect_spec() {
        let mut rng = crate::TestRng::seeded(9);
        for _ in 0..100 {
            let exact = prop::collection::vec(0u32..10, 7).generate(&mut rng);
            assert_eq!(exact.len(), 7);
            let ranged = prop::collection::vec(0u32..10, 1..5).generate(&mut rng);
            assert!((1..5).contains(&ranged.len()));
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let strat = (0u32..1000, prop::option::of(0u64..99)).prop_map(|(a, b)| (a * 2, b));
        let a: Vec<_> = {
            let mut rng = crate::TestRng::seeded(42);
            (0..50).map(|_| strat.generate(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = crate::TestRng::seeded(42);
            (0..50).map(|_| strat.generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The macro front-end compiles with patterns, assumes and asserts.
        #[test]
        fn macro_front_end((a, b) in (0u32..50, 0u32..50), pick in prop_oneof![2 => Just(0u8), 1 => 1u8..4]) {
            prop_assume!(a != b);
            prop_assert!(a + b < 100, "sum {} too large", a + b);
            prop_assert_eq!(a + b, b + a);
            prop_assert!(pick < 4);
        }
    }
}
