//! A minimal property-testing harness with a `proptest`-compatible-enough
//! surface that the workspace's suites port with a one-line import change.
//!
//! ## How it works
//!
//! Strategies are *deterministic functions of a draw stream*: every random
//! decision a generator makes is one `u64` pulled from a [`Gen`]. In record
//! mode the draws come from a seeded [`Rng`] and are
//! written to a tape; in replay mode they come back off a tape (zeros once
//! the tape runs out). That single indirection buys universal, greedy
//! input shrinking for free: when a case fails, the runner mutates the
//! recorded tape — deleting chunks, zeroing entries, halving values — and
//! replays generation, keeping any mutation that still fails. Smaller
//! draws mean structurally smaller inputs (shorter vectors, first
//! `prop_oneof` arms, smaller scalars), so the minimized tape decodes to a
//! minimized test input, across arbitrary combinator stacks, with no
//! per-strategy shrink code.
//!
//! Failures report the reproducing seed; set `KISHU_TESTKIT_SEED=<seed>`
//! to make case 0 of the next run replay exactly the failing case.

use std::cell::Cell as StdCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use crate::rng::Rng;

// ---------------------------------------------------------------------------
// Draw stream
// ---------------------------------------------------------------------------

/// The draw stream handed to strategies. See the module docs.
pub struct Gen {
    rng: Option<Rng>,
    tape: Vec<u64>,
    pos: usize,
    rejected: bool,
    args: Vec<(&'static str, String)>,
}

impl Gen {
    fn record(seed: u64) -> Gen {
        Gen {
            rng: Some(Rng::seed_from_u64(seed)),
            tape: Vec::new(),
            pos: 0,
            rejected: false,
            args: Vec::new(),
        }
    }

    fn replay(tape: Vec<u64>) -> Gen {
        Gen {
            rng: None,
            tape,
            pos: 0,
            rejected: false,
            args: Vec::new(),
        }
    }

    /// Pull the next raw draw.
    pub fn draw(&mut self) -> u64 {
        match &mut self.rng {
            Some(rng) => {
                let v = rng.next_u64();
                self.tape.push(v);
                v
            }
            None => {
                let v = self.tape.get(self.pos).copied().unwrap_or(0);
                self.pos += 1;
                v
            }
        }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn draw_unit(&mut self) -> f64 {
        (self.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Mark the case as discarded (a filter could not be satisfied).
    pub fn reject(&mut self) {
        self.rejected = true;
    }

    /// Whether the case has been discarded.
    pub fn is_rejected(&self) -> bool {
        self.rejected
    }

    /// Record a named argument's `Debug` rendering, for failure reports.
    pub fn note_arg<T: fmt::Debug>(&mut self, name: &'static str, value: &T) {
        self.args.push((name, format!("{value:#?}")));
    }

    fn format_args(&self) -> String {
        if self.args.is_empty() {
            return "    (no arguments recorded)".to_string();
        }
        self.args
            .iter()
            .map(|(n, v)| format!("    {n} = {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

// ---------------------------------------------------------------------------
// Errors, results, configuration
// ---------------------------------------------------------------------------

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property is false for this input.
    Fail(String),
    /// The input was discarded (unsatisfiable filter); not a failure.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// A discard with the given reason.
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

/// Outcome of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; mirrors the `proptest` fields the suites use.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
    /// Budget of candidate replays during shrinking.
    pub max_shrink_iters: u32,
    /// Cap on discarded cases before the run aborts.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 2048,
            max_global_rejects: 65536,
        }
    }
}

impl ProptestConfig {
    /// Default configuration with a specific case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators
// ---------------------------------------------------------------------------

/// A generator of test inputs. Combinators mirror `proptest`'s names.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Produce one value from the draw stream.
    fn generate(&self, g: &mut Gen) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Discard values failing `pred` (retrying a bounded number of times,
    /// then rejecting the whole case).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Build recursive structures: `branch` receives a strategy for the
    /// substructure and returns the composite strategy. `_desired_size`
    /// and `_expected_branch` are accepted for source compatibility; depth
    /// alone bounds recursion here.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        branch: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2 + 'static,
    {
        Recursive {
            inner: Rc::new(RecursiveInner {
                base: self.boxed(),
                branch: Box::new(move |b| branch(b).boxed()),
                depth,
            }),
        }
    }

    /// Type-erase behind a cheap clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, clonable strategy handle.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        self.0.generate(g)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _g: &mut Gen) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, g: &mut Gen) -> U {
        (self.f)(self.inner.generate(g))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, g: &mut Gen) -> S::Value {
        let mut v = self.inner.generate(g);
        for _ in 0..16 {
            if (self.pred)(&v) {
                return v;
            }
            v = self.inner.generate(g);
        }
        if !(self.pred)(&v) {
            let _ = self.reason;
            g.reject();
        }
        v
    }
}

struct RecursiveInner<T> {
    base: BoxedStrategy<T>,
    branch: Box<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
    depth: u32,
}

/// See [`Strategy::prop_recursive`].
pub struct Recursive<T> {
    inner: Rc<RecursiveInner<T>>,
}

struct DepthBounded<T> {
    inner: Rc<RecursiveInner<T>>,
    remaining: u32,
}

impl<T: fmt::Debug + 'static> Strategy for DepthBounded<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        // Draw 0 (the shrinking direction) stops recursion immediately.
        if self.remaining == 0 || g.draw().is_multiple_of(4) {
            self.inner.base.generate(g)
        } else {
            let sub = DepthBounded {
                inner: Rc::clone(&self.inner),
                remaining: self.remaining - 1,
            }
            .boxed();
            (self.inner.branch)(sub).generate(g)
        }
    }
}

impl<T: fmt::Debug + 'static> Strategy for Recursive<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        DepthBounded {
            inner: Rc::clone(&self.inner),
            remaining: self.inner.depth,
        }
        .generate(g)
    }
}

/// Weighted choice between strategies of one value type; built by
/// [`prop_oneof!`](crate::prop_oneof).
pub struct OneOf<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> OneOf<T> {
    /// New choice; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
        assert!(
            arms.iter().map(|(w, _)| *w as u64).sum::<u64>() > 0,
            "prop_oneof! needs at least one arm with nonzero weight"
        );
        OneOf { arms }
    }
}

impl<T: fmt::Debug> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = g.draw() % total;
        for (w, arm) in &self.arms {
            if pick < *w as u64 {
                return arm.generate(g);
            }
            pick -= *w as u64;
        }
        unreachable!("pick < total by construction")
    }
}

// ---------------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------------

/// Types with a canonical full-range strategy, via [`any`].
pub trait Arbitrary: fmt::Debug + Sized {
    /// Draw one arbitrary value.
    fn arbitrary(g: &mut Gen) -> Self;
}

/// The full-range strategy for `T` (mirrors `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// See [`any`].
#[derive(Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        T::arbitrary(g)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(g: &mut Gen) -> Self {
                g.draw() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(g: &mut Gen) -> Self {
        g.draw() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(g: &mut Gen) -> Self {
        // Random bit patterns: exercises the full float space (subnormals,
        // huge magnitudes, the occasional NaN/inf — filter if unwanted).
        f64::from_bits(g.draw())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(g: &mut Gen) -> Self {
        f32::from_bits(g.draw() as u32)
    }
}

impl<A: Arbitrary, B: Arbitrary> Arbitrary for (A, B) {
    fn arbitrary(g: &mut Gen) -> Self {
        (A::arbitrary(g), B::arbitrary(g))
    }
}

impl<A: Arbitrary, B: Arbitrary, C: Arbitrary> Arbitrary for (A, B, C) {
    fn arbitrary(g: &mut Gen) -> Self {
        (A::arbitrary(g), B::arbitrary(g), C::arbitrary(g))
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, g: &mut Gen) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((g.draw() % span) as $t)
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, g: &mut Gen) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + g.draw_unit() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, g: &mut Gen) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(g),)+)
            }
        }
    )*};
}
impl_tuple_strategy!((A, B)(A, B, C)(A, B, C, D));

/// String literals act as generators for a small regex subset:
/// concatenations of `[class]` / literal atoms with `{m}`, `{m,n}`, `?`,
/// `*`, `+` quantifiers — e.g. `"[a-z_][a-z0-9_]{0,6}"`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, g: &mut Gen) -> String {
        let elements = parse_pattern(self);
        let mut out = String::new();
        for (chars, lo, hi) in &elements {
            let n = if lo == hi {
                *lo
            } else {
                lo + (g.draw() % (hi - lo + 1) as u64) as usize
            };
            for _ in 0..n {
                let idx = (g.draw() % chars.len() as u64) as usize;
                out.push(chars[idx]);
            }
        }
        out
    }
}

/// Parse the regex subset into `(alphabet, min, max)` elements.
fn parse_pattern(pattern: &str) -> Vec<(Vec<char>, usize, usize)> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut elements = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let alphabet: Vec<char> = match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|c| *c == ']')
                    .unwrap_or_else(|| panic!("unclosed '[' in pattern {pattern:?}"))
                    + i;
                let class = &chars[i + 1..close];
                assert!(
                    !class.is_empty() && class[0] != '^',
                    "unsupported character class in pattern {pattern:?}"
                );
                let mut set = Vec::new();
                let mut j = 0;
                while j < class.len() {
                    if j + 2 < class.len() && class[j + 1] == '-' {
                        let (a, b) = (class[j] as u32, class[j + 2] as u32);
                        assert!(a <= b, "inverted range in pattern {pattern:?}");
                        set.extend((a..=b).filter_map(char::from_u32));
                        j += 3;
                    } else {
                        set.push(class[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            }
            '{' | '}' | ']' | '?' | '*' | '+' | '(' | ')' | '|' | '.' => {
                panic!("unsupported regex construct '{}' in pattern {pattern:?}", chars[i])
            }
            '\\' => {
                i += 1;
                let c = *chars
                    .get(i)
                    .unwrap_or_else(|| panic!("dangling escape in pattern {pattern:?}"));
                i += 1;
                vec![c]
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        // Optional quantifier.
        let (lo, hi) = match chars.get(i) {
            Some('{') => {
                let close = chars[i..]
                    .iter()
                    .position(|c| *c == '}')
                    .unwrap_or_else(|| panic!("unclosed '{{' in pattern {pattern:?}"))
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("quantifier min"),
                        n.trim().parse().expect("quantifier max"),
                    ),
                    None => {
                        let m: usize = body.trim().parse().expect("quantifier count");
                        (m, m)
                    }
                }
            }
            Some('?') => {
                i += 1;
                (0, 1)
            }
            Some('*') => {
                i += 1;
                (0, 8)
            }
            Some('+') => {
                i += 1;
                (1, 8)
            }
            _ => (1, 1),
        };
        assert!(lo <= hi, "inverted quantifier in pattern {pattern:?}");
        elements.push((alphabet, lo, hi));
    }
    elements
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{fmt, Gen, Strategy};

    /// Element-count bounds for [`vec`](fn@vec); converts from the range shapes
    /// the suites use (`1..60`, `0..=5`, exact `n`).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate a `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, g: &mut Gen) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + if span > 1 { (g.draw() % span) as usize } else { 0 };
            (0..n).map(|_| self.element.generate(g)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Runner and shrinker
// ---------------------------------------------------------------------------

fn base_seed_for(name: &str) -> u64 {
    if let Some(seed) = crate::rng::seed_override() {
        return seed;
    }
    // Deterministic per property name, so suites are reproducible run to
    // run but don't all explore the same draw sequences.
    let mut h = 0xcbf29ce484222325u64; // FNV-1a
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Run one attempt, converting panics into failures so `expect`/`assert!`
/// inside properties still shrink and report seeds.
fn run_one<F>(f: &mut F, g: &mut Gen) -> TestCaseResult
where
    F: FnMut(&mut Gen) -> TestCaseResult,
{
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(g)));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "test case panicked".to_string());
            Err(TestCaseError::fail(format!("panic: {msg}")))
        }
    }
}

/// Execute a property until `config.cases` cases pass, shrinking and
/// reporting the first failure. This is the engine behind the
/// [`proptest!`](crate::proptest) macro.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut f: F)
where
    F: FnMut(&mut Gen) -> TestCaseResult,
{
    let base_seed = base_seed_for(name);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let mut attempt = 0u64;
    while passed < config.cases {
        let seed = base_seed.wrapping_add(attempt.wrapping_mul(0x9E3779B97F4A7C15));
        attempt += 1;
        let mut g = Gen::record(seed);
        match run_one(&mut f, &mut g) {
            Ok(()) if !g.is_rejected() => passed += 1,
            Ok(()) | Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected <= config.max_global_rejects,
                    "[kishu-testkit] property '{name}': too many rejected cases \
                     ({rejected}); loosen the filters"
                );
            }
            Err(TestCaseError::Fail(first_msg)) => {
                let tape = shrink(g.tape, &mut f, config.max_shrink_iters);
                // Replay the minimal tape once more to capture the final
                // arguments and message.
                let mut g = Gen::replay(tape);
                let msg = match run_one(&mut f, &mut g) {
                    Err(TestCaseError::Fail(m)) => m,
                    _ => first_msg, // shrinking artifact; fall back
                };
                panic!(
                    "[kishu-testkit] property '{name}' failed after {passed} passing case(s)\n\
                     minimal failing input:\n{args}\n\
                     {msg}\n\
                     reproduce with: KISHU_TESTKIT_SEED={seed} cargo test {name}",
                    args = g.format_args(),
                );
            }
        }
    }
}

/// Does this tape still fail? (Rejections and passes both count as "no".)
fn tape_fails<F>(tape: &[u64], f: &mut F) -> bool
where
    F: FnMut(&mut Gen) -> TestCaseResult,
{
    let mut g = Gen::replay(tape.to_vec());
    matches!(run_one(f, &mut g), Err(TestCaseError::Fail(_))) && !g.is_rejected()
}

/// Greedy tape shrinking: chunk deletion (delta-debugging style), zeroing,
/// then halving, repeated to a fixpoint or until the budget runs out.
fn shrink<F>(tape: Vec<u64>, f: &mut F, budget: u32) -> Vec<u64>
where
    F: FnMut(&mut Gen) -> TestCaseResult,
{
    let mut best = tape;
    let mut spent = 0u32;
    let try_candidate = |cand: Vec<u64>, best: &mut Vec<u64>, f: &mut F, spent: &mut u32| {
        *spent += 1;
        if tape_fails(&cand, f) {
            *best = cand;
            true
        } else {
            false
        }
    };
    loop {
        let mut improved = false;
        // Pass 1: delete chunks, largest first.
        let mut chunk = (best.len() / 2).max(1);
        while chunk >= 1 && spent < budget {
            let mut start = 0;
            while start < best.len() && spent < budget {
                let mut cand = best.clone();
                cand.drain(start..(start + chunk).min(cand.len()));
                if try_candidate(cand, &mut best, f, &mut spent) {
                    improved = true;
                    // best shrank; retry the same offset
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        // Pass 2: zero entries (the strongest per-value simplification).
        for i in 0..best.len() {
            if spent >= budget {
                break;
            }
            if best[i] != 0 {
                let mut cand = best.clone();
                cand[i] = 0;
                improved |= try_candidate(cand, &mut best, f, &mut spent);
            }
        }
        // Pass 3: minimize entries by greedy binary descent — subtract
        // decreasing powers of two, keeping any candidate that still
        // fails. Strategies map draws through `value = draw % span`, so
        // the predicate over the raw draw is periodic, not monotone;
        // bisection would stall, but monotone descent homes in on exact
        // failure boundaries (e.g. the smallest failing scalar).
        for i in 0..best.len() {
            if spent >= budget {
                break;
            }
            for k in (0..64).rev() {
                if spent >= budget {
                    break;
                }
                let step = 1u64 << k;
                if best[i] >= step {
                    let mut cand = best.clone();
                    cand[i] -= step;
                    improved |= try_candidate(cand, &mut best, f, &mut spent);
                }
            }
        }
        if !improved || spent >= budget {
            return best;
        }
    }
}

// Thread-local used only by the harness's own meta-tests below.
thread_local! {
    static META_COUNTER: StdCell<u64> = const { StdCell::new(0) };
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// `proptest!`-style test block: an optional
/// `#![proptest_config(..)]` header, then `#[test]` functions whose
/// arguments are drawn from strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            (<$crate::prop::ProptestConfig as ::std::default::Default>::default())
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                $crate::prop::run_cases(&__config, stringify!($name), |__g| {
                    $(
                        let $arg = $crate::prop::Strategy::generate(&($strat), __g);
                        __g.note_arg(stringify!($arg), &$arg);
                    )+
                    if __g.is_rejected() {
                        return ::std::result::Result::Err(
                            $crate::prop::TestCaseError::reject("generator filter unsatisfied"),
                        );
                    }
                    #[allow(unused_mut)]
                    let mut __body = move || -> $crate::prop::TestCaseResult {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    __body()
                });
            }
        )*
    };
}

/// Weighted (or unweighted) choice among strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::prop::OneOf::new(vec![
            $(($weight as u32, $crate::prop::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop::OneOf::new(vec![
            $((1u32, $crate::prop::Strategy::boxed($strat))),+
        ])
    };
}

/// `assert!` that fails the property (with shrinking) instead of
/// panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::prop::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `assert_eq!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
            __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n{}",
            __l, __r, format!($($fmt)*)
        );
    }};
}

/// `assert_ne!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `left != right`\n  both: {:?}",
            __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `left != right`\n  both: {:?}\n{}",
            __l, format!($($fmt)*)
        );
    }};
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn record_then_replay_is_identical() {
        let strat = collection::vec(0usize..100, 1..20);
        let mut g1 = Gen::record(42);
        let v1 = strat.generate(&mut g1);
        let mut g2 = Gen::replay(g1.tape.clone());
        let v2 = strat.generate(&mut g2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn empty_tape_generates_minimal_values() {
        let mut g = Gen::replay(Vec::new());
        assert_eq!((3usize..10).generate(&mut g), 3);
        assert_eq!(collection::vec(0u8..9, 2..7).generate(&mut g).len(), 2);
        let choice = prop_oneof![Just(1u8), Just(2u8), Just(3u8)].generate(&mut g);
        assert_eq!(choice, 1, "draw 0 picks the first arm");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut g = Gen::record(7);
        for _ in 0..500 {
            let v = (10i64..20).generate(&mut g);
            assert!((10..20).contains(&v));
            let f = (0.5f64..2.0).generate(&mut g);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn string_patterns_match_their_shape() {
        let mut g = Gen::record(3);
        for _ in 0..200 {
            let s = "[a-z_][a-z0-9_]{0,6}".generate(&mut g);
            assert!(!s.is_empty() && s.len() <= 7, "{s:?}");
            let first = s.chars().next().expect("nonempty");
            assert!(first.is_ascii_lowercase() || first == '_', "{s:?}");
            assert!(
                s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{s:?}"
            );
            let printable = "[ -~]{0,12}".generate(&mut g);
            assert!(printable.len() <= 12);
            assert!(printable.chars().all(|c| (' '..='~').contains(&c)), "{printable:?}");
        }
    }

    #[test]
    fn filter_rejects_unsatisfiable_predicates() {
        let strat = (0u8..10).prop_filter("impossible", |v| *v > 100);
        let mut g = Gen::record(1);
        let _ = strat.generate(&mut g);
        assert!(g.is_rejected());
    }

    #[test]
    fn oneof_respects_weights_roughly() {
        let strat = prop_oneof![9 => Just(true), 1 => Just(false)];
        let mut g = Gen::record(5);
        let hits = (0..1000).filter(|_| strat.generate(&mut g)).count();
        assert!((800..1000).contains(&hits), "{hits} of 1000");
    }

    #[test]
    fn recursion_is_depth_bounded() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf,
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf => 0,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = Just(Tree::Leaf).prop_recursive(3, 16, 4, |inner| {
            collection::vec(inner, 1..4).prop_map(Tree::Node)
        });
        let mut g = Gen::record(11);
        let mut saw_node = false;
        for _ in 0..200 {
            let t = strat.generate(&mut g);
            assert!(depth(&t) <= 4);
            saw_node |= matches!(t, Tree::Node(_));
        }
        assert!(saw_node, "recursive arm is actually exercised");
    }

    #[test]
    fn failing_property_shrinks_to_the_boundary() {
        // Property: all values < 500. Failing inputs are 500..=999;
        // shrinking should land exactly on the boundary value 500.
        let config = ProptestConfig::with_cases(200);
        let result = std::panic::catch_unwind(|| {
            run_cases(&config, "meta_boundary", |g| {
                let v = (0u32..1000).generate(g);
                g.note_arg("v", &v);
                if v >= 500 {
                    return Err(TestCaseError::fail(format!("{v} too big")));
                }
                Ok(())
            });
        });
        let msg = match result {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic message is a String"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("v = 500"), "shrunk to the boundary:\n{msg}");
        assert!(msg.contains("KISHU_TESTKIT_SEED="), "seed is reported:\n{msg}");
    }

    #[test]
    fn shrinking_minimizes_vectors() {
        // Property: no vector contains a value >= 50. The minimal failing
        // input is the one-element vector [50].
        let config = ProptestConfig::with_cases(100);
        let result = std::panic::catch_unwind(|| {
            run_cases(&config, "meta_vec_shrink", |g| {
                let v = collection::vec(0u8..100, 1..20).generate(g);
                g.note_arg("v", &v);
                if v.iter().any(|x| *x >= 50) {
                    return Err(TestCaseError::fail("contains a big element"));
                }
                Ok(())
            });
        });
        let msg = match result {
            Err(payload) => payload.downcast_ref::<String>().cloned().expect("String"),
            Ok(()) => panic!("property should have failed"),
        };
        // The vec prints in {:#?} multiline form: "[\n        50,\n    ]".
        let ones: Vec<&str> = msg.matches(char::is_numeric).collect();
        assert!(!ones.is_empty());
        assert!(
            msg.contains("50") && !msg.contains("51"),
            "minimal witness is exactly the boundary:\n{msg}"
        );
    }

    #[test]
    fn panics_inside_properties_are_reported_with_seed() {
        let config = ProptestConfig::with_cases(10);
        let result = std::panic::catch_unwind(|| {
            run_cases(&config, "meta_panics", |g| {
                let v = (0u32..10).generate(g);
                g.note_arg("v", &v);
                assert!(v > 100, "plain assert fires");
                Ok(())
            });
        });
        let msg = match result {
            Err(payload) => payload.downcast_ref::<String>().cloned().expect("String"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("panic:"), "{msg}");
        assert!(msg.contains("KISHU_TESTKIT_SEED="), "{msg}");
    }

    #[test]
    fn passing_properties_run_the_configured_case_count() {
        META_COUNTER.with(|c| c.set(0));
        run_cases(&ProptestConfig::with_cases(37), "meta_counts", |g| {
            let _ = (0u8..10).generate(g);
            META_COUNTER.with(|c| c.set(c.get() + 1));
            Ok(())
        });
        assert_eq!(META_COUNTER.with(|c| c.get()), 37);
    }

    // The macro surface itself, exactly as the ported suites use it.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_surface_works(
            xs in collection::vec(0usize..50, 1..10),
            flag in any::<bool>(),
            label in "[a-z]{1,5}",
        ) {
            prop_assert!(xs.len() < 10);
            prop_assert_eq!(flag, flag);
            prop_assert_ne!(label.len(), 0, "pattern has min length 1: {:?}", label);
        }
    }

    proptest! {
        #[test]
        fn macro_defaults_to_256_cases(v in any::<u64>()) {
            prop_assert_eq!(v, v);
        }
    }
}
