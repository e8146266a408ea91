//! Offline shim for `proptest`: a deterministic random-input testing
//! harness exposing the subset of the proptest API this workspace uses —
//! `Strategy` with `prop_map`/`prop_filter`/`prop_recursive`, regex
//! string strategies, integer-range strategies, tuples, `collection::vec`,
//! `sample::select`, `option::of`, `char::range`, `bool::weighted`,
//! `any::<T>()`, and the `proptest!`/`prop_oneof!`/`prop_assert*!` macros.
//!
//! Differences from real proptest: no shrinking (failures report the
//! case number and generated inputs panic-style), and the per-test RNG is
//! seeded from the test name so runs are reproducible without a
//! persistence file. There is none: no `.proptest-regressions` file is
//! read or written, so a failure a property finds is kept as a named,
//! deterministic `#[test]` beside it.

pub mod test_runner {
    /// Deterministic RNG used to generate all test inputs (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG from a numeric seed.
        pub(crate) fn seed_from(seed: u64) -> Self {
            TestRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// Creates an RNG deterministically derived from a test name.
        pub fn from_name(name: &str) -> Self {
            let mut state = 0xCAFE_F00D_D15E_A5E5u64;
            for b in name.bytes() {
                state = state.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64);
            }
            TestRng::seed_from(state)
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform float in `[0, 1)`.
        pub(crate) fn f64_unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Per-test configuration; only the case count is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Configuration running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::sync::Arc;

    /// A recipe for generating values of `Value`.
    ///
    /// Unlike real proptest there is no shrinking tree; `generate`
    /// produces a value directly from the RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> impl Strategy<Value = O>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            FromFn(move |rng: &mut TestRng| f(self.generate(rng)))
        }

        /// Rejects generated values failing `pred`, retrying.
        fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, whence, pred }
        }

        /// Builds a recursive strategy: `recurse` receives the strategy
        /// for the previous depth level and returns one producing values
        /// that may contain it. `depth` bounds the nesting; the size
        /// hints are accepted for API compatibility.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let branch = recurse(strat).boxed();
                let leaf = leaf.clone();
                strat = BoxedStrategy::from_fn(move |rng| {
                    // Mix leaves back in at every level so generated trees
                    // vary in depth rather than always bottoming out.
                    if rng.below(4) == 0 {
                        leaf.generate(rng)
                    } else {
                        branch.generate(rng)
                    }
                });
            }
            strat
        }

        /// Erases the strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy::from_fn(move |rng| self.generate(rng))
        }
    }

    /// A clonable type-erased strategy.
    pub struct BoxedStrategy<T> {
        generator: Arc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> BoxedStrategy<T> {
        /// Wraps a generator closure.
        pub fn from_fn(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
            BoxedStrategy { generator: Arc::new(f) }
        }
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy { generator: Arc::clone(&self.generator) }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.generator)(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// A strategy drawing each value with a closure: what the
    /// combinators return.
    pub(crate) struct FromFn<F>(pub(crate) F);

    impl<T, F: Fn(&mut TestRng) -> T> Strategy for FromFn<F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let value = self.inner.generate(rng);
                if (self.pred)(&value) {
                    return value;
                }
            }
            panic!("prop_filter rejected 1000 consecutive values: {}", self.whence);
        }
    }

    /// Weighted choice among boxed alternatives (backs `prop_oneof!`).
    pub fn union<T: 'static>(arms: Vec<(u32, BoxedStrategy<T>)>) -> BoxedStrategy<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! weights sum to zero");
        BoxedStrategy::from_fn(move |rng| {
            let mut pick = rng.below(total);
            for (weight, strat) in &arms {
                if pick < *weight as u64 {
                    return strat.generate(rng);
                }
                pick -= *weight as u64;
            }
            unreachable!()
        })
    }

    macro_rules! int_range_strategy {
        ($($ty:ty),+) => {$(
            impl Strategy for std::ops::Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (rng.next_u64() as u128) % span;
                    (self.start as i128 + offset as i128) as $ty
                }
            }
            impl Strategy for std::ops::RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let offset = (rng.next_u64() as u128) % span;
                    (lo as i128 + offset as i128) as $ty
                }
            }
        )+};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )+};
    }
    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }

    // ---- regex string strategies ------------------------------------

    /// One regex atom: a set of characters to draw from.
    #[derive(Debug, Clone)]
    enum CharSet {
        Literal(char),
        /// Inclusive scalar-value ranges.
        Ranges(Vec<(char, char)>),
        /// `\PC`: any non-control character.
        Printable,
    }

    impl CharSet {
        fn pick(&self, rng: &mut TestRng) -> char {
            match self {
                CharSet::Literal(c) => *c,
                CharSet::Ranges(ranges) => {
                    let total: u64 = ranges
                        .iter()
                        .map(|(lo, hi)| *hi as u64 - *lo as u64 + 1)
                        .sum();
                    let mut pick = rng.below(total);
                    for (lo, hi) in ranges {
                        let span = *hi as u64 - *lo as u64 + 1;
                        if pick < span {
                            return char::from_u32(*lo as u32 + pick as u32)
                                .expect("regex class range covers invalid scalar");
                        }
                        pick -= span;
                    }
                    unreachable!()
                }
                CharSet::Printable => {
                    // Weighted toward ASCII, with some multi-byte ranges so
                    // UTF-8 handling gets exercised.
                    const RANGES: [(u32, u32); 5] = [
                        (0x20, 0x7E),
                        (0x20, 0x7E),
                        (0xA0, 0x2FF),
                        (0x370, 0x4FF),
                        (0x2600, 0x26FF),
                    ];
                    let (lo, hi) = RANGES[rng.below(RANGES.len() as u64) as usize];
                    char::from_u32(lo + rng.below((hi - lo + 1) as u64) as u32)
                        .expect("printable range covers invalid scalar")
                }
            }
        }
    }

    /// `(atom, min_repeats, max_repeats)`.
    type RegexAtom = (CharSet, u32, u32);

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>, pattern: &str) -> CharSet {
        let mut ranges = Vec::new();
        loop {
            let c = chars
                .next()
                .unwrap_or_else(|| panic!("unterminated [class] in regex {pattern:?}"));
            if c == ']' {
                break;
            }
            if chars.peek() == Some(&'-') {
                let mut lookahead = chars.clone();
                lookahead.next();
                match lookahead.peek() {
                    Some(&hi) if hi != ']' => {
                        chars.next();
                        chars.next();
                        assert!(c <= hi, "inverted class range in regex {pattern:?}");
                        ranges.push((c, hi));
                        continue;
                    }
                    _ => {}
                }
            }
            ranges.push((c, c));
        }
        assert!(!ranges.is_empty(), "empty [class] in regex {pattern:?}");
        CharSet::Ranges(ranges)
    }

    fn parse_quantifier(chars: &mut std::iter::Peekable<std::str::Chars<'_>>, pattern: &str) -> (u32, u32) {
        match chars.peek() {
            Some('{') => {
                chars.next();
                let body: String = chars.by_ref().take_while(|&c| c != '}').collect();
                match body.split_once(',') {
                    Some((min, max)) => {
                        let min = min.trim().parse().unwrap_or_else(|_| {
                            panic!("bad quantifier {{{body}}} in regex {pattern:?}")
                        });
                        let max = max.trim().parse().unwrap_or_else(|_| {
                            panic!("bad quantifier {{{body}}} in regex {pattern:?}")
                        });
                        (min, max)
                    }
                    None => {
                        let n = body.trim().parse().unwrap_or_else(|_| {
                            panic!("bad quantifier {{{body}}} in regex {pattern:?}")
                        });
                        (n, n)
                    }
                }
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            _ => (1, 1),
        }
    }

    /// Parses the regex subset used by the workspace's tests: literals,
    /// `[classes]` with ranges, `\PC`, and `{m}`/`{m,n}`/`+`/`*`/`?`
    /// quantifiers. Anchors and alternation are not supported.
    fn parse_regex(pattern: &str) -> Vec<RegexAtom> {
        let mut atoms = Vec::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let set = match c {
                '[' => parse_class(&mut chars, pattern),
                '\\' => {
                    let escaped = chars
                        .next()
                        .unwrap_or_else(|| panic!("dangling backslash in regex {pattern:?}"));
                    match escaped {
                        'P' => {
                            let name = chars
                                .next()
                                .unwrap_or_else(|| panic!("dangling \\P in regex {pattern:?}"));
                            assert_eq!(name, 'C', "unsupported \\P{name} class in regex {pattern:?}");
                            CharSet::Printable
                        }
                        other => CharSet::Literal(other),
                    }
                }
                '.' => CharSet::Printable,
                other => CharSet::Literal(other),
            };
            let (min, max) = parse_quantifier(&mut chars, pattern);
            atoms.push((set, min, max));
        }
        atoms
    }

    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let atoms = parse_regex(self);
            let mut out = String::new();
            for (set, min, max) in &atoms {
                let count = *min as u64 + rng.below((*max - *min + 1) as u64);
                for _ in 0..count {
                    out.push(set.pick(rng));
                }
            }
            out
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a default generation strategy (see [`any`]).
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy for any [`Arbitrary`] type: `any::<u16>()`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    /// See [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! arbitrary_int {
        ($($ty:ty),+) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> $ty {
                    // Bias toward boundary values: they are where
                    // marshaling bugs live.
                    match rng.below(8) {
                        0 => 0,
                        1 => <$ty>::MAX,
                        2 => <$ty>::MIN,
                        3 => 1 as $ty,
                        _ => rng.next_u64() as $ty,
                    }
                }
            }
        )+};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            char::from_u32(rng.below(0xD800) as u32).unwrap_or('\u{FFFD}')
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            match rng.below(8) {
                0 => 0.0,
                1 => -1.5,
                2 => f64::MAX,
                3 => f64::MIN_POSITIVE,
                _ => {
                    let bits = rng.next_u64();
                    let candidate = f64::from_bits(bits);
                    if candidate.is_finite() {
                        candidate
                    } else {
                        (bits >> 11) as f64
                    }
                }
            }
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            f64::arbitrary(rng) as f32
        }
    }
}

pub mod collection {
    use crate::strategy::{FromFn, Strategy};
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Vectors of `element` values, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> impl Strategy<Value = Vec<S::Value>> {
        assert!(size.start < size.end, "empty vec size range");
        let span = (size.end - size.start) as u64;
        FromFn(move |rng: &mut TestRng| {
            let len = size.start + rng.below(span) as usize;
            (0..len).map(|_| element.generate(rng)).collect()
        })
    }
}

pub mod sample {
    use crate::strategy::{FromFn, Strategy};
    use crate::test_runner::TestRng;

    /// Uniform choice from a non-empty vector.
    pub fn select<T: Clone>(options: Vec<T>) -> impl Strategy<Value = T> {
        assert!(!options.is_empty(), "select() needs at least one option");
        FromFn(move |rng: &mut TestRng| options[rng.below(options.len() as u64) as usize].clone())
    }
}

pub mod option {
    use crate::strategy::{FromFn, Strategy};
    use crate::test_runner::TestRng;

    /// `Some(value)` three times out of four, else `None`.
    pub fn of<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
        FromFn(move |rng: &mut TestRng| (rng.below(4) != 0).then(|| inner.generate(rng)))
    }
}

pub mod char {
    use crate::strategy::{FromFn, Strategy};
    use crate::test_runner::TestRng;

    /// Characters in `[lo, hi]` inclusive.
    pub fn range(lo: char, hi: char) -> impl Strategy<Value = char> {
        assert!(lo <= hi, "inverted char range");
        let span = hi as u64 - lo as u64 + 1;
        FromFn(move |rng: &mut TestRng| {
            core::char::from_u32(lo as u32 + rng.below(span) as u32)
                .expect("char range covers invalid scalar")
        })
    }
}

pub mod bool {
    use crate::strategy::{FromFn, Strategy};
    use crate::test_runner::TestRng;

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> impl Strategy<Value = bool> {
        FromFn(move |rng: &mut TestRng| rng.f64_unit() < p)
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Weighted (`w => strat`) or uniform choice among strategies with a
/// common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::union(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::union(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// runs its body against `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for __case in 0..__config.cases {
                $(
                    let $arg =
                        $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )+
                $body
            }
        }
        $crate::__proptest_fns! { config = $config; $($rest)* }
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn regex_strategies_match_shape() {
        let mut rng = TestRng::seed_from(7);
        for _ in 0..200 {
            let s = Strategy::generate(&"f[a-z]{1,4}", &mut rng);
            assert!(s.starts_with('f'));
            assert!((2..=5).contains(&s.len()));
            assert!(s[1..].chars().all(|c| c.is_ascii_lowercase()));

            let t = Strategy::generate(&"[ -~]{0,24}", &mut rng);
            assert!(t.chars().count() <= 24);
            assert!(t.chars().all(|c| (' '..='~').contains(&c)));

            let n = Strategy::generate(&"[A-Za-z_][A-Za-z0-9_.-]{0,11}", &mut rng);
            assert!(!n.is_empty() && n.chars().count() <= 12);
            let first = n.chars().next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_');

            let p = Strategy::generate(&"\\PC{0,200}", &mut rng);
            assert!(p.chars().count() <= 200);
            assert!(p.chars().all(|c| !c.is_control()));
        }
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::seed_from(11);
        for _ in 0..500 {
            let v = Strategy::generate(&(1usize..6), &mut rng);
            assert!((1..6).contains(&v));
            let w = Strategy::generate(&(-5i64..=5), &mut rng);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn oneof_weights_and_recursion_terminate() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(children) => {
                    1 + children.iter().map(depth).max().unwrap_or(0)
                }
            }
        }
        let leaf = any::<u8>().prop_map(Tree::Leaf);
        let strat = leaf.prop_recursive(3, 24, 4, |inner| {
            crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
        });
        let mut rng = TestRng::seed_from(3);
        for _ in 0..100 {
            assert!(depth(&strat.generate(&mut rng)) <= 3);
        }

        let choice = prop_oneof![
            4 => Just(1u8),
            1 => Just(2u8),
        ];
        let mut ones = 0;
        for _ in 0..500 {
            if choice.generate(&mut rng) == 1 {
                ones += 1;
            }
        }
        assert!(ones > 300, "weighted arm under-selected: {ones}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn proptest_macro_binds_args(
            xs in crate::collection::vec(any::<i64>(), 1..8),
            flag in crate::bool::weighted(0.5),
        ) {
            prop_assert!(!xs.is_empty());
            prop_assert_eq!(xs.len(), xs.len(), "length {} compared", xs.len());
            let _ = flag;
        }
    }
}
