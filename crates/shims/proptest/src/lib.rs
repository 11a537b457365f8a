//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case panics with the generated inputs
//!   unshrunk; every workspace property is cheap enough to debug directly.
//! * **Deterministic.** Each test derives its RNG seed from its module
//!   path and name, so failures reproduce exactly across runs; set
//!   `PROPTEST_SEED` to explore a different stream.
//! * Strategies generate values directly (no value trees).
//!
//! Covered API: the [`proptest!`] macro (with `#![proptest_config]`),
//! range and [`Just`] strategies, [`strategy::Strategy::prop_map`],
//! `prop_oneof!`, `any::<T>()`, `collection::vec` / `collection::hash_set`,
//! and `prop_assert!` / `prop_assert_eq!`.

#![forbid(unsafe_code)]

/// Strategy trait and combinators.
pub mod strategy {
    use rand::rngs::SmallRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// Generated value type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut SmallRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut SmallRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut SmallRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut SmallRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice among several strategies (the `prop_oneof!` backend).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            use rand::Rng as _;
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    use rand::Rng as _;
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    use rand::Rng as _;
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeFrom<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut SmallRng) -> $t {
                    use rand::Rng as _;
                    rng.gen_range(self.start..=<$t>::MAX)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut SmallRng) -> f64 {
            use rand::Rng as _;
            rng.gen_range(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
        (A: 0, B: 1, C: 2, D: 3, E: 4)
    }

    /// String-literal patterns act as generation regexes, as in the real
    /// proptest. This shim supports the subset the workspace uses: a
    /// sequence of atoms, each a character class (`[ -~]`, with ranges and
    /// `\`-escapes) or a literal character, optionally repeated by
    /// `{n}` / `{lo,hi}`.
    impl Strategy for str {
        type Value = String;
        fn generate(&self, rng: &mut SmallRng) -> String {
            use rand::Rng as _;
            let chars: Vec<char> = self.chars().collect();
            let mut out = String::new();
            let mut i = 0usize;
            while i < chars.len() {
                // One atom: a class or a single (possibly escaped) char.
                let mut set = Vec::new();
                if chars[i] == '[' {
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        let c = if chars[i] == '\\' && i + 1 < chars.len() {
                            i += 1;
                            chars[i]
                        } else {
                            chars[i]
                        };
                        // `a-b` range (a `-` just before `]` is literal).
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            let hi = chars[i + 2];
                            for v in (c as u32)..=(hi as u32) {
                                if let Some(ch) = char::from_u32(v) {
                                    set.push(ch);
                                }
                            }
                            i += 3;
                        } else {
                            set.push(c);
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated class in pattern {self:?}");
                    i += 1; // consume ']'
                } else {
                    let c = if chars[i] == '\\' && i + 1 < chars.len() {
                        i += 1;
                        chars[i]
                    } else {
                        chars[i]
                    };
                    set.push(c);
                    i += 1;
                }
                // Optional repetition.
                let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .expect("unterminated repetition")
                        + i;
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((a, b)) => (
                            a.parse::<usize>().expect("repetition bound"),
                            b.parse::<usize>().expect("repetition bound"),
                        ),
                        None => {
                            let n = body.parse::<usize>().expect("repetition count");
                            (n, n)
                        }
                    }
                } else {
                    (1, 1)
                };
                assert!(!set.is_empty(), "empty class in pattern {self:?}");
                let count = rng.gen_range(lo..=hi);
                for _ in 0..count {
                    out.push(set[rng.gen_range(0..set.len())]);
                }
            }
            out
        }
    }

    /// `any::<T>()` marker strategy.
    pub struct Any<T> {
        _marker: core::marker::PhantomData<T>,
    }

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws from the full domain of the type.
        fn arbitrary(rng: &mut SmallRng) -> Self;
    }

    macro_rules! impl_arbitrary_uniform {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut SmallRng) -> $t {
                    use rand::Rng as _;
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary_uniform!(u8, u16, u32, u64, usize, bool);

    impl Arbitrary for i32 {
        fn arbitrary(rng: &mut SmallRng) -> i32 {
            use rand::Rng as _;
            rng.gen::<u32>() as i32
        }
    }

    impl Arbitrary for i64 {
        fn arbitrary(rng: &mut SmallRng) -> i64 {
            use rand::Rng as _;
            rng.gen::<u64>() as i64
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut SmallRng) -> f64 {
            use rand::Rng as _;
            // Finite floats only; the workspace never relies on NaN/inf
            // generation.
            rng.gen::<f64>() * 2e9 - 1e9
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut SmallRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: core::marker::PhantomData,
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng as _;
    use std::collections::HashSet;
    use std::hash::Hash;

    /// An element-count specification: a fixed size or a size range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        /// Inclusive upper bound.
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

    impl SizeRange {
        fn pick(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(self.lo..=self.hi)
        }
    }

    /// Generates `Vec`s of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generates `HashSet`s of values from `element`.
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::hash_set`.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> HashSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = HashSet::with_capacity(target);
            // The element domain may be smaller than the target; cap the
            // attempts so generation always terminates.
            let mut attempts = 0usize;
            while out.len() < target && attempts < 50 + target * 20 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Test-runner configuration.
pub mod test_runner {
    /// Subset of proptest's config: the number of cases per property.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Cases to run per property.
        pub cases: u32,
    }

    /// 64 cases, or `PROPTEST_CASES` when set (as with the real crate, an
    /// explicit [`ProptestConfig::with_cases`] is not overridden).
    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }
}

/// Everything a property test module needs.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

// `proptest::prop_oneof!` etc. also resolve at the crate root, as with the
// real crate.
pub use strategy::{any, Just, Strategy};
pub use test_runner::ProptestConfig;

/// Derives the deterministic RNG for one property (seeded from the test
/// path; `PROPTEST_SEED` perturbs every stream for exploration).
pub fn rng_for(test_path: &str) -> rand::rngs::SmallRng {
    use rand::SeedableRng as _;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    if let Ok(extra) = std::env::var("PROPTEST_SEED") {
        if let Ok(n) = extra.parse::<u64>() {
            h ^= n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    rand::rngs::SmallRng::seed_from_u64(h)
}

/// Property assertion; identical to `assert!` here (no shrinking phase to
/// abort, so panicking directly is correct).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniform choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($strategy) as $crate::strategy::BoxedStrategy<_>),+
        ])
    };
}

/// The property-test macro: each `fn name(pat in strategy, ...) { body }`
/// becomes a test running `cases` times with freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg_pat:pat in $arg_strategy:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $config;
                let mut __rng =
                    $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    let ($($arg_pat,)+) = (
                        $($crate::strategy::Strategy::generate(&($arg_strategy), &mut __rng),)+
                    );
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = crate::rng_for("shim::ranges");
        for _ in 0..1000 {
            let v = (1usize..10).generate(&mut rng);
            assert!((1..10).contains(&v));
            let f = (0.5f64..0.75).generate(&mut rng);
            assert!((0.5..0.75).contains(&f));
            let t = (1u32.., 0u8..=3).generate(&mut rng);
            assert!(t.0 >= 1 && t.1 <= 3);
        }
    }

    #[test]
    fn collections_respect_size() {
        let mut rng = crate::rng_for("shim::collections");
        for _ in 0..200 {
            let v = collection::vec(0u8..5, 2..6).generate(&mut rng);
            assert!((2..6).contains(&v.len()));
            let s = collection::hash_set(0usize..64, 2..8).generate(&mut rng);
            assert!((2..8).contains(&s.len()));
        }
    }

    #[test]
    fn map_and_oneof_compose() {
        let mut rng = crate::rng_for("shim::compose");
        let doubled = (1u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            assert_eq!(doubled.generate(&mut rng) % 2, 0);
            let pick: u8 = prop_oneof![Just(1u8), Just(2u8)].generate(&mut rng);
            assert!(pick == 1 || pick == 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(a in 1usize..10, mut b in 0u8..4, seed in any::<u64>()) {
            b += 1;
            prop_assert!(a < 10);
            prop_assert!(b <= 4);
            let _ = seed;
            prop_assert_eq!(a + 1, a + 1);
        }
    }
}
