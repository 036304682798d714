//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so the property-test suites link against this in-tree shim instead.
//! It implements the subset of the proptest API the repository uses:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_oneof!`],
//! * the [`strategy::Strategy`] trait with `prop_map`, `prop_flat_map`
//!   and `boxed`, plus [`strategy::BoxedStrategy`],
//! * integer-range, tuple, boolean and simple `"[class]{m,n}"` string
//!   strategies, [`collection::vec`], and [`sample::Index`],
//! * [`test_runner::ProptestConfig`] with `with_cases`.
//!
//! Differences from real proptest, deliberately accepted: inputs are
//! drawn from a fixed-seed deterministic RNG (identical values every
//! run), failures panic immediately (no shrinking), and failing case
//! indices are reported on stderr instead of a regression file. The
//! `*.proptest-regressions` persistence mechanism is not read.

pub mod test_runner {
    /// Per-`proptest!` block configuration. Only `cases` is honored.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Real proptest's default; the suites here are cheap enough.
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic split-mix style RNG; fixed seed so every run and
    /// every machine sees the same inputs.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            TestRng {
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            // splitmix64
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }

    /// Prints the failing case index when a property panics, so a failure
    /// can be replayed (the RNG is deterministic: case `i` always sees
    /// the same inputs).
    pub struct CaseReporter<'a> {
        pub test_name: &'a str,
        pub case: u32,
    }

    impl Drop for CaseReporter<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "proptest-shim: property `{}` failed at case index {} \
                     (deterministic seed; rerun reproduces it)",
                    self.test_name, self.case
                );
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of type `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree / shrinking: a
    /// strategy is just a deterministic function of the RNG stream.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.generate(rng)))
        }
    }

    /// A type-erased strategy (`Strategy<Value = V>` behind a box).
    pub struct BoxedStrategy<V>(Box<dyn Fn(&mut TestRng) -> V>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Result of [`Strategy::prop_map`].
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

    /// Result of [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice over same-valued strategies (see [`prop_oneof!`](crate::prop_oneof)).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let pick = rng.below(self.arms.len() as u64) as usize;
            self.arms[pick].generate(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<V>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn generate(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(
                        self.start < self.end,
                        "empty range strategy {}..{}", self.start, self.end
                    );
                    let span = (self.end as u64) - (self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty inclusive range strategy");
                    let span = (end as u64) - (start as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    start + rng.below(span + 1) as $t
                }
            }
        )+};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($($s:ident.$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

    /// String strategies from a small regex subset: `[class]{m,n}` where
    /// the class may contain literal chars and `a-z` style ranges. Any
    /// other pattern is produced verbatim.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            match parse_class_repeat(self) {
                Some((alphabet, lo, hi)) => {
                    let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                    (0..len)
                        .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                        .collect()
                }
                None => (*self).to_string(),
            }
        }
    }

    fn parse_class_repeat(pat: &str) -> Option<(Vec<char>, usize, usize)> {
        let rest = pat.strip_prefix('[')?;
        let close = rest.find(']')?;
        let class: Vec<char> = rest[..close].chars().collect();
        let rep = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
        let (lo, hi) = match rep.split_once(',') {
            Some((a, b)) => (a.parse().ok()?, b.parse().ok()?),
            None => {
                let n = rep.parse().ok()?;
                (n, n)
            }
        };
        let mut alphabet = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (a, b) = (class[i] as u32, class[i + 2] as u32);
                for c in a..=b {
                    alphabet.push(char::from_u32(c)?);
                }
                i += 3;
            } else {
                alphabet.push(class[i]);
                i += 1;
            }
        }
        if alphabet.is_empty() || lo > hi {
            return None;
        }
        Some((alphabet, lo, hi))
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy, reachable via [`crate::prelude::any`].
    pub trait Arbitrary: Sized {
        type Strategy: Strategy<Value = Self>;
        fn arbitrary() -> Self::Strategy;
    }

    pub struct AnyOf<T>(std::marker::PhantomData<T>);

    impl<T> Default for AnyOf<T> {
        fn default() -> Self {
            AnyOf(std::marker::PhantomData)
        }
    }

    impl Strategy for AnyOf<u64> {
        type Value = u64;
        fn generate(&self, rng: &mut TestRng) -> u64 {
            rng.next_u64()
        }
    }

    impl Arbitrary for u64 {
        type Strategy = AnyOf<u64>;
        fn arbitrary() -> Self::Strategy {
            AnyOf::default()
        }
    }

    impl Strategy for AnyOf<u32> {
        type Value = u32;
        fn generate(&self, rng: &mut TestRng) -> u32 {
            rng.next_u64() as u32
        }
    }

    impl Arbitrary for u32 {
        type Strategy = AnyOf<u32>;
        fn arbitrary() -> Self::Strategy {
            AnyOf::default()
        }
    }

    impl Strategy for AnyOf<u8> {
        type Value = u8;
        fn generate(&self, rng: &mut TestRng) -> u8 {
            rng.next_u64() as u8
        }
    }

    impl Arbitrary for u8 {
        type Strategy = AnyOf<u8>;
        fn arbitrary() -> Self::Strategy {
            AnyOf::default()
        }
    }

    impl Strategy for AnyOf<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyOf<bool>;
        fn arbitrary() -> Self::Strategy {
            AnyOf::default()
        }
    }

    impl Strategy for AnyOf<crate::sample::Index> {
        type Value = crate::sample::Index;
        fn generate(&self, rng: &mut TestRng) -> crate::sample::Index {
            crate::sample::Index::new(rng.next_u64())
        }
    }

    impl Arbitrary for crate::sample::Index {
        type Strategy = AnyOf<crate::sample::Index>;
        fn arbitrary() -> Self::Strategy {
            AnyOf::default()
        }
    }
}

pub mod sample {
    /// An abstract index: resolved against a concrete collection length
    /// with [`Index::index`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        pub fn new(raw: u64) -> Self {
            Index(raw)
        }

        /// Map onto `[0, len)`. Panics if `len == 0` (as real proptest).
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::ops::Range;

    /// Length bound for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    /// `proptest::collection::vec(element_strategy, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The canonical strategy for `T` (`any::<u64>()`, `any::<bool>()`,
    /// `any::<prop::sample::Index>()`, ...).
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }

    /// Real proptest re-exports the crate root as `prop` from the
    /// prelude (`prop::sample::Index`, `prop::collection::vec`, ...).
    pub use crate as prop;
}

/// Assert inside a property; failure panics (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// The property-test entry macro. Mirrors real proptest's surface
/// (illustration only — `--include-ignored` must not compile this against
/// the shim, whose macro is only importable from a dependent crate):
///
/// ```text
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn prop_name(x in 0u32..10, v in proptest::collection::vec(any::<u64>(), 1..5)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            // One strategy instance for the whole run (matches real
            // proptest, and lets `arb_xxx()` helpers do setup once).
            $(let $arg = &$strat;)+
            for __case in 0..__cfg.cases {
                let __reporter = $crate::test_runner::CaseReporter {
                    test_name: stringify!($name),
                    case: __case,
                };
                let mut __rng = $crate::test_runner::TestRng::from_seed(
                    0xC0FF_EE00_0000_0000 ^ u64::from(__case),
                );
                $(let $arg = $crate::strategy::Strategy::generate($arg, &mut __rng);)+
                { $body }
                drop(__reporter);
            }
        }
        $crate::__proptest_items!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..1000 {
            let v = (5u32..17).generate(&mut rng);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn string_class_strategy_matches_shape() {
        let mut rng = TestRng::from_seed(3);
        for _ in 0..200 {
            let s = "[a-zA-Z0-9_]{1,32}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 32);
            assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
    }

    #[test]
    fn vec_and_tuple_compose() {
        let mut rng = TestRng::from_seed(11);
        let strat = crate::collection::vec((0u64..10, 1u64..5), 1..8);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!(!v.is_empty() && v.len() < 8);
            for (a, b) in v {
                assert!(a < 10 && (1..5).contains(&b));
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = TestRng::from_seed(42);
        let mut b = TestRng::from_seed(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_multiple_args(
            x in 0u32..100,
            flag in any::<bool>(),
            idx in any::<prop::sample::Index>(),
            name in "[ab]{2,4}",
        ) {
            prop_assert!(x < 100);
            let _ = flag;
            prop_assert!(idx.index(10) < 10);
            prop_assert!((2..=4).contains(&name.len()));
        }

        #[test]
        fn oneof_and_maps_compose(
            v in prop_oneof![
                (0u64..10).prop_map(|x| x * 2),
                (100u64..110).prop_map(|x| x + 1),
            ],
        ) {
            prop_assert!(v % 2 == 0 && v < 20 || (101..111).contains(&v));
        }
    }
}
