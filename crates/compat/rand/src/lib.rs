//! Offline stand-in for the slice of `rand` 0.8 used by this workspace.
//!
//! API-compatible with the upstream names (`Rng`, `SeedableRng`, `RngCore`,
//! `rngs::StdRng`) but *not* stream-compatible:
//! `StdRng` is xoshiro256++ seeded via SplitMix64 rather than ChaCha12.
//! Every checked-in expected value in this repository was produced with
//! this implementation.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of `T` from the standard (uniform) distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_one(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} not in [0,1]");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded with SplitMix64 exactly
    /// like upstream `rand` does.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = splitmix64_next(&mut sm).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// One step of the SplitMix64 sequence, advancing `state`.
fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 random bits onto `[0, 1)` with 53-bit precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types samplable from the standard uniform distribution ([`Rng::gen`]).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples one value uniformly from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types with uniform range sampling. The generic [`SampleRange`] impls
/// below dispatch through this, which (as upstream) lets integer-literal
/// ranges infer their type from the call site (e.g. when indexing).
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;

    /// Uniform draw from `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        assert!(start <= end, "gen_range: empty range");
        T::sample_inclusive(start, end, rng)
    }
}

/// Integer uniform sampling via 128-bit widening multiply.
macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let span = (high as i128 - low as i128) as u128;
                let offset = ((u128::from(rng.next_u64()) * span) >> 64) as i128;
                (low as i128 + offset) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let span = (high as i128 - low as i128) as u128 + 1;
                let offset = ((u128::from(rng.next_u64()) * span) >> 64) as i128;
                (low as i128 + offset) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        let v = low + unit_f64(rng.next_u64()) * (high - low);
        // Guard against floating-point rounding landing on the excluded end.
        if v >= high { low } else { v }
    }

    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        low + unit_f64(rng.next_u64()) * (high - low)
    }
}

/// Generator implementations.
pub mod rngs {
    use super::{splitmix64_next, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman &
    /// Vigna). Deterministic, fast, and statistically strong; **not**
    /// stream-compatible with upstream `rand::rngs::StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (lane, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *lane = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            // An all-zero state would be a fixed point; SplitMix64 expansion
            // of any u64 seed never produces one, but guard the raw path.
            if s == [0; 4] {
                let mut sm = 0x9e37_79b9_7f4a_7c15;
                for lane in &mut s {
                    *lane = splitmix64_next(&mut sm);
                }
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result =
                s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeding_is_deterministic_and_sensitive() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5i16..=5);
            assert!((-5..=5).contains(&w));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
        // Full-width inclusive range must not overflow.
        let _ = r.gen_range(0u64..=u64::MAX);
    }

    #[test]
    fn gen_range_covers_small_ranges_uniformly() {
        let mut r = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[r.gen_range(0usize..4)] += 1;
        }
        for &n in &counts {
            assert!((9_000..11_000).contains(&n), "counts {counts:?}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((29_000..31_000).contains(&hits), "hits {hits}");
        assert!((0..100).all(|_| !r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn unit_floats_live_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn works_through_unsized_references() {
        fn sum_of<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0u64..100) + u64::from(rng.gen_bool(0.5))
        }
        let mut r = StdRng::seed_from_u64(5);
        let _ = sum_of(&mut r);
        let dynr: &mut dyn RngCore = &mut r;
        let _ = dynr.next_u64();
    }
}
