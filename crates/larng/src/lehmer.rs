//! The Lehmer / Park–Miller multiplicative congruential generator.
//!
//! The paper's implementation (§6) alternates between the Marsaglia generator
//! and the "Park-Miller (Lehmer)" generator and reports identical results.
//! [`MinStd`] is the classic Park–Miller *minimal standard* generator:
//! `x ← 48271·x mod (2³¹ − 1)`.  Exactly the generator the paper names; its
//! statistical quality is mediocre by modern standards but entirely adequate
//! for choosing probe slots.

use crate::{RandomSource, SplitMix64};

/// Park–Miller "minimal standard" MCG: modulus 2³¹ − 1, multiplier 48271.
///
/// The state is always in `1..=2³¹ − 2`.  Each call produces 31 bits of
/// output; [`RandomSource::next_u64`] therefore concatenates three draws to
/// fill 64 bits (31 + 31 + 2), keeping derived draws unbiased.
///
/// # Examples
///
/// ```
/// use larng::{MinStd, RandomSource};
/// let mut rng = MinStd::seed_from_u64(2024);
/// assert!(rng.gen_index(8) < 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MinStd {
    state: u32,
}

/// Modulus of the minimal-standard generator (a Mersenne prime).
pub const MINSTD_MODULUS: u32 = 0x7fff_ffff; // 2^31 - 1
/// Multiplier recommended by Park & Miller (1993 revision).
pub const MINSTD_MULTIPLIER: u32 = 48_271;

impl MinStd {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is reduced into the valid state range `1..=2³¹ − 2`; the
    /// degenerate states 0 and the modulus are remapped.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mixed = SplitMix64::mix(seed.wrapping_add(1));
        let mut state = (mixed % u64::from(MINSTD_MODULUS)) as u32;
        if state == 0 {
            state = 1;
        }
        Self { state }
    }

    /// Creates a generator from a raw state.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= state < 2³¹ − 1`.
    pub fn from_raw_state(state: u32) -> Self {
        assert!(
            (1..MINSTD_MODULUS).contains(&state),
            "MinStd state must lie in 1..2^31-1, got {state}"
        );
        Self { state }
    }

    /// Returns the raw state.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Advances the generator and returns 31 fresh bits (the new state minus
    /// one, so the output range is `0..2³¹ − 2`... in practice callers use the
    /// [`RandomSource`] helpers instead).
    #[inline]
    pub fn next_raw(&mut self) -> u32 {
        let prod = u64::from(self.state) * u64::from(MINSTD_MULTIPLIER);
        self.state = (prod % u64::from(MINSTD_MODULUS)) as u32;
        self.state
    }
}

impl RandomSource for MinStd {
    fn next_u64(&mut self) -> u64 {
        // Three draws give 93 bits; keep 31 + 31 + 2.
        let a = u64::from(self.next_raw() - 1); // 0..2^31-2, ~31 bits
        let b = u64::from(self.next_raw() - 1);
        let c = u64::from(self.next_raw() - 1) & 0b11;
        (a << 33) | (b << 2) | c
    }
}

impl Default for MinStd {
    fn default() -> Self {
        Self::seed_from_u64(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Park & Miller's published consistency check: starting from state 1,
    /// after 10,000 steps with multiplier 16807 the state is 1043618065.
    /// We use multiplier 48271 (their later recommendation), whose published
    /// 10,000-step value from state 1 is 399268537.
    #[test]
    fn minstd_park_miller_consistency_check() {
        let mut rng = MinStd::from_raw_state(1);
        for _ in 0..10_000 {
            rng.next_raw();
        }
        assert_eq!(rng.state(), 399_268_537);
    }

    #[test]
    fn minstd_state_stays_in_range() {
        let mut rng = MinStd::seed_from_u64(77);
        for _ in 0..10_000 {
            rng.next_raw();
            assert!(rng.state() >= 1 && rng.state() < MINSTD_MODULUS);
        }
    }

    #[test]
    #[should_panic(expected = "must lie in")]
    fn minstd_zero_state_panics() {
        let _ = MinStd::from_raw_state(0);
    }

    #[test]
    #[should_panic(expected = "must lie in")]
    fn minstd_modulus_state_panics() {
        let _ = MinStd::from_raw_state(MINSTD_MODULUS);
    }

    #[test]
    fn minstd_seeding_never_produces_invalid_state() {
        for seed in 0..2_000u64 {
            let rng = MinStd::seed_from_u64(seed);
            assert!(
                rng.state() >= 1 && rng.state() < MINSTD_MODULUS,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn minstd_u64_output_varies() {
        let mut rng = MinStd::seed_from_u64(3);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn minstd_index_distribution_roughly_uniform() {
        let mut rng = MinStd::seed_from_u64(5);
        let mut buckets = [0u32; 8];
        let draws = 1 << 15;
        for _ in 0..draws {
            buckets[rng.gen_index(8)] += 1;
        }
        let mean = draws as f64 / 8.0;
        for &b in &buckets {
            assert!((b as f64 - mean).abs() < mean * 0.2);
        }
    }
}
