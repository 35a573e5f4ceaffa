//! The workspace's one random-number generator, and labelled streams of it.
//!
//! [`Rng`] is SplitMix64: one `u64` of state, advanced by the golden-ratio
//! increment `0x9e37_79b9_7f4a_7c15` and finalized by [`mix`]. It is a
//! bit-for-bit copy of the std-only stand-in every benchmark number since
//! PR 10 was measured on (`benchmark/standins/rand`): the same state walk,
//! the same draw-to-value maps, so every simulated campaign and every
//! frozen digest is unchanged.
//!
//! | draw | value |
//! |------|-------|
//! | `gen::<f64>()` | `(next_u64() >> 11) / 2^53`, uniform in `[0, 1)` |
//! | `gen::<integer>()` | `next_u64()` truncated |
//! | `gen_range(lo..hi)`, `gen_range(lo..=hi)`, integers | `lo + next_u64() % n` (modulo-biased; the whole 64-bit domain takes the raw draw) |
//! | `gen_range(lo..hi)`, `f64` | `lo + (hi - lo) * f64`, redrawn while rounding lands on `hi` |
//! | `gen_range(lo..=hi)`, `f64` | the same, clamped to `hi` |
//! | `gen_bool(p)` | `f64 < p`, always exactly one draw |
//!
//! Every stochastic component of the simulation (each node's MAC backoff,
//! each link's fading process, the fault schedules, …) draws from its own
//! stream derived by [`RngFactory`] from one master seed and a stable
//! label. This keeps components statistically independent while making the
//! whole run a pure function of the master seed: adding randomness
//! consumption in one component never perturbs another.

use std::ops::{Range, RangeInclusive};

/// The SplitMix64 finalizer.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, continuing from `h`.
#[inline]
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A seeded SplitMix64 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// A uniform value of `T` (floats in `[0, 1)`).
    #[inline]
    pub fn gen<T: Uniform>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value from `range`. Panics on an empty range.
    #[inline]
    pub fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// True with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

/// Types [`Rng::gen`] and [`Rng::gen_range`] can produce.
pub trait Uniform: Sized + PartialOrd {
    /// One uniform value of the whole type (floats: `[0, 1)`).
    fn sample(rng: &mut Rng) -> Self;
    /// Uniform in `[lo, hi)`.
    fn sample_exclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
    /// Uniform in `[lo, hi]`.
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// One uniform value from the range.
    fn sample_from(self, rng: &mut Rng) -> T;
}

impl<T: Uniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_from(self, rng: &mut Rng) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_exclusive(rng, self.start, self.end)
    }
}

impl<T: Uniform> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn sample_from(self, rng: &mut Rng) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

impl Uniform for f64 {
    #[inline]
    fn sample(rng: &mut Rng) -> f64 {
        // 53 mantissa bits of a u64, scaled: uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    #[inline]
    fn sample_exclusive(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
        // Rounding can land on `hi` when the span is tiny; redraw.
        loop {
            let v = lo + (hi - lo) * f64::sample(rng);
            if v < hi {
                return v;
            }
        }
    }

    #[inline]
    fn sample_inclusive(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
        (lo + (hi - lo) * f64::sample(rng)).min(hi)
    }
}

macro_rules! int_uniform {
    ($($t:ty => $wide:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn sample(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
            #[inline]
            fn sample_exclusive(rng: &mut Rng, lo: $t, hi: $t) -> $t {
                <$t>::sample_inclusive(rng, lo, hi - 1)
            }
            #[inline]
            fn sample_inclusive(rng: &mut Rng, lo: $t, hi: $t) -> $t {
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
int_uniform!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64, i32 => i64, i64 => i64);

/// Derives independent [`Rng`] streams from a master seed and a label.
#[derive(Debug, Clone)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Create a factory rooted at `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// The master seed this factory was created with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// A stream for a named component (`label`) and an integer index
    /// (node id, link id hash, …).
    ///
    /// The derivation is an FNV-1a style mix of the seed, label and index,
    /// finalized by one SplitMix64 round to decorrelate nearby indices; it
    /// only needs to be stable and well-spread, not cryptographic.
    pub fn stream(&self, label: &str, index: u64) -> Rng {
        let h = fnv1a(FNV_OFFSET ^ self.master_seed, label.as_bytes());
        Rng::new(mix(fnv1a(h, &index.to_le_bytes())))
    }

    /// Convenience: a stream keyed by a directed pair (e.g. a link).
    pub fn pair_stream(&self, label: &str, a: u64, b: u64) -> Rng {
        self.stream(label, a.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_draws(rng: &mut Rng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.gen()).collect()
    }

    /// The constants below were printed by `benchmark/standins/rand`'s
    /// `StdRng` on the commit before this module existed: the in-tree
    /// generator is that stream, not a look-alike.
    #[test]
    fn streams_are_the_measured_stand_ins() {
        let pinned: [(u64, [u64; 8]); 3] = [
            (
                0,
                [
                    0xe220a8397b1dcdaf,
                    0x6e789e6aa1b965f4,
                    0x06c45d188009454f,
                    0xf88bb8a8724c81ec,
                    0x1b39896a51a8749b,
                    0x53cb9f0c747ea2ea,
                    0x2c829abe1f4532e1,
                    0xc584133ac916ab3c,
                ],
            ),
            (
                1,
                [
                    0x910a2dec89025cc1,
                    0xbeeb8da1658eec67,
                    0xf893a2eefb32555e,
                    0x71c18690ee42c90b,
                    0x71bb54d8d101b5b9,
                    0xc34d0bff90150280,
                    0xe099ec6cd7363ca5,
                    0x85e7bb0f12278575,
                ],
            ),
            (
                2015,
                [
                    0xe44fef17485c8e3d,
                    0x7f980509cde706bb,
                    0xcbafb28ab99f7f0b,
                    0x7ac103fa7e719242,
                    0x5ce9aa2122a1384b,
                    0x020e78838ae5f9d3,
                    0xa2fee62dc86b39f4,
                    0xe925c8f69bc8c099,
                ],
            ),
        ];
        for (seed, want) in pinned {
            assert_eq!(first_draws(&mut Rng::new(seed), 8), want, "seed {seed}");
        }
    }

    /// One draw of every sampling form after a fixed prefix (seed 2015,
    /// three raw draws), again as the stand-in printed them.
    #[test]
    fn draw_to_value_maps_are_the_stand_ins() {
        let mut r = Rng::new(2015);
        for _ in 0..3 {
            r.next_u64();
        }
        assert_eq!(r.gen_range(0..3usize), 2);
        assert_eq!(r.gen_range(0..=3usize), 3);
        assert_eq!(r.gen_range(-5..=5i64), -3);
        assert_eq!(r.gen_range(-0.3..0.3), 0.08202117128989928);
        assert_eq!(r.gen_range(9..=9u32), 9);
        assert_eq!(r.gen_range(0..=u64::MAX), 0x11e1f7463a8ad1aa);
        assert_eq!(r.gen::<f64>(), 0.3159514041187875);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        // Nine draws consumed, one each: the degenerate range and both
        // certain booleans included.
        assert_eq!(r.next_u64(), 0x19523e1e763213d5);
        assert_eq!(Rng::new(5).gen::<u64>(), 0x63033b0ca389c35a);
        assert_eq!(Rng::new(5).gen::<u32>(), 0xa389c35a);
    }

    #[test]
    fn factory_stream_is_pinned() {
        let first = RngFactory::new(42).stream("mac", 7).next_u64();
        assert_eq!(first, 0x02b6100d10d01609);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!((10..20).contains(&r.gen_range(10u64..20)));
            assert!((-4..=4).contains(&r.gen_range(-4i32..=4)));
            assert!((0..=255).contains(&r.gen_range(0u8..=255)));
            let f = r.gen_range(0.25..0.5);
            assert!((0.25..0.5).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::new(0).gen_range(5u32..5);
    }

    #[test]
    fn same_inputs_same_stream() {
        let f = RngFactory::new(42);
        let a = first_draws(&mut f.stream("mac", 7), 8);
        let b = first_draws(&mut f.stream("mac", 7), 8);
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(42);
        let a = first_draws(&mut f.stream("mac", 7), 8);
        let b = first_draws(&mut f.stream("phy", 7), 8);
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_differ() {
        let f = RngFactory::new(42);
        let a = first_draws(&mut f.stream("mac", 7), 8);
        let b = first_draws(&mut f.stream("mac", 8), 8);
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = first_draws(&mut RngFactory::new(1).stream("mac", 7), 8);
        let b = first_draws(&mut RngFactory::new(2).stream("mac", 7), 8);
        assert_ne!(a, b);
    }

    #[test]
    fn pair_stream_is_directional() {
        let f = RngFactory::new(42);
        let ab = first_draws(&mut f.pair_stream("link", 1, 2), 8);
        let ba = first_draws(&mut f.pair_stream("link", 2, 1), 8);
        assert_ne!(ab, ba);
    }
}
