//! Std-only stand-in for the part of `rand` 0.8 the REFILL crates call:
//! `Rng::{gen, gen_range, gen_bool}`, `SeedableRng::seed_from_u64`,
//! `RngCore::next_u64` and `rngs::StdRng`.
//!
//! The generator is SplitMix64 (the constants of
//! `crates/testkit/src/rng.rs`), which is what ROADMAP item 1 prescribes
//! for the in-tree replacement, so that move is like-for-like. Streams
//! therefore differ from real `rand`'s ChaCha12 `StdRng`: simulated
//! campaigns are deterministic per seed but not the ones crates.io `rand`
//! would produce.

use std::ops::{Range, RangeInclusive};

/// The raw bit source.
pub trait RngCore {
    /// The next 64 uniform bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniform bits (the high half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding from a single `u64`.
pub trait SeedableRng: Sized {
    /// A generator whose whole stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// One uniform value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[lo, hi)`.
    fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform in `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Range types `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// One uniform value from the range. Panics on an empty range, as
    /// `rand` does.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_exclusive(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// The user-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform value of `T` (floats in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// True with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 mantissa bits of a u64, scaled: uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl SampleUniform for f64 {
    fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        // Rounding can land on `hi` when the span is tiny; redraw.
        loop {
            let v = lo + (hi - lo) * f64::sample(rng);
            if v < hi {
                return v;
            }
        }
    }

    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        (lo + (hi - lo) * f64::sample(rng)).min(hi)
    }
}

macro_rules! int_uniform {
    ($($t:ty => $wide:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
        impl SampleUniform for $t {
            fn sample_exclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                <$t>::sample_inclusive(rng, lo, hi - 1)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                // Span as an unsigned count minus one; the full 64-bit
                // domain wraps to 0 and takes the raw draw.
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                let offset = match span.checked_add(1) {
                    Some(n) => rng.next_u64() % n,
                    None => rng.next_u64(),
                };
                (lo as $wide).wrapping_add(offset as $wide) as $t
            }
        }
    )*};
}
int_uniform!(u32 => u64, u64 => u64, usize => u64, i32 => i64, i64 => i64);

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The SplitMix64 finalizer.
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded SplitMix64 stream under `rand`'s default-generator name.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix(self.state)
        }
    }
}
