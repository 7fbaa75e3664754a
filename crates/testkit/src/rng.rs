//! Deterministic PRNG: xoshiro256++ state seeded via splitmix64.
//!
//! Not cryptographic — this exists so workloads, sweeps, and the property
//! harness are reproducible from a single `u64` seed with no external
//! crates. The generators are the reference algorithms from Blackman &
//! Vigna, "Scrambled linear pseudorandom number generators".

/// Advance a splitmix64 state and return the next output. Used for seeding
/// and anywhere a tiny stateless mixer is enough.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256++ generator. All draws derive deterministically from the
/// seed passed to [`Rng::seed_from_u64`].
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed the full 256-bit state from one `u64` via splitmix64, per the
    /// xoshiro authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // All-zero state is the one fixed point; splitmix64 cannot emit
        // four zeros in a row, but guard anyway.
        if s == [0; 4] {
            Rng { s: [1, 2, 3, 4] }
        } else {
            Rng { s }
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from a half-open range; panics on an empty range.
    pub fn random_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard-normal draw (Box–Muller; one of the pair is discarded to
    /// keep the generator stateless beyond `s`).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.random_range(0..i + 1);
            xs.swap(i, j);
        }
    }

    /// Split off an independent generator seeded from this one's stream.
    ///
    /// Hands each subsystem (e.g. one fault-injecting store wrapper per
    /// store) its own deterministic substream, so adding draws in one
    /// component cannot perturb the decisions of another.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }
}

/// Parse a `KISHU_TESTKIT_SEED` value: a decimal `u64`, surrounding
/// whitespace ignored.
pub fn parse_seed(value: &str) -> Option<u64> {
    value.trim().parse().ok()
}

/// The caller-chosen seed: `KISHU_TESTKIT_SEED` when set and parsable. An
/// unparsable value is reported and then treated exactly like an unset
/// one, so suites that assert "faults fired" for their built-in seed keep
/// asserting it. The only reader of the variable.
///
/// This is the same variable the property harness prints on failure, so a
/// failing run can be replayed exactly by exporting the echoed seed.
pub fn seed_override() -> Option<u64> {
    let value = std::env::var("KISHU_TESTKIT_SEED").ok()?;
    let seed = parse_seed(&value);
    if seed.is_none() {
        eprintln!("[kishu-testkit] ignoring unparsable KISHU_TESTKIT_SEED={value:?}");
    }
    seed
}

/// The seed a deterministic suite should run with: [`seed_override`]
/// when set, else `default`.
pub fn env_seed(default: u64) -> u64 {
    seed_override().unwrap_or(default)
}

/// Types drawable uniformly from a `Range` by [`Rng::random_range`].
pub trait SampleRange: Sized {
    /// Draw one value from `range`.
    fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self;
}

macro_rules! impl_sample_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                range.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
impl_sample_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_sample_int!(i8, i16, i32, i64, isize);

impl SampleRange for f64 {
    fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "empty range");
        range.start + rng.next_f64() * (range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert!((0..10).any(|_| a.next_u64() != b.next_u64()));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.random_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.random_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = rng.random_range(-50i64..-10);
            assert!((-50..-10).contains(&i));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = Rng::seed_from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.random_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn f64_draws_are_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(11);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut a = Rng::seed_from_u64(21);
        let mut b = Rng::seed_from_u64(21);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..50 {
            assert_eq!(fa.next_u64(), fb.next_u64(), "forks of equal parents agree");
        }
        // Draining the fork does not perturb the parent stream.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn seed_values_parse_as_decimal_u64_or_not_at_all() {
        assert_eq!(parse_seed("20250807"), Some(20250807));
        assert_eq!(parse_seed(" 42\n"), Some(42));
        assert_eq!(parse_seed(&u64::MAX.to_string()), Some(u64::MAX));
        for bad in ["", "  ", "abc", "-1", "0x10", "1.5", "18446744073709551616"] {
            assert_eq!(parse_seed(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
