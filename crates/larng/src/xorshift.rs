//! The Marsaglia xorshift generator.
//!
//! The paper's implementation uses "the Marsaglia ... random number generator"
//! (§6).  [`Xorshift64Star`] is the member of Marsaglia's xorshift family
//! (2003) most commonly used in concurrent-data-structure code: a 64-bit state
//! xorshift whose output is multiplied by an odd constant ("xorshift*"),
//! fixing the weak low bits of plain xorshift.
//!
//! It accepts any 64-bit seed; the all-zero internal state (an absorbing state
//! of the xorshift transition) is avoided by passing the seed through
//! SplitMix64 and remapping zero.

use crate::{RandomSource, SplitMix64};

/// Marsaglia xorshift64* generator: 64-bit state, period 2^64 − 1.
///
/// # Examples
///
/// ```
/// use larng::{RandomSource, Xorshift64Star};
/// let mut rng = Xorshift64Star::seed_from_u64(7);
/// let a = rng.gen_index(100);
/// assert!(a < 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is whitened through SplitMix64 so that small or similar seeds
    /// (0, 1, 2, ...) still produce unrelated streams, and so that the
    /// forbidden all-zero state can never be reached from any seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut whitened = SplitMix64::mix(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
        if whitened == 0 {
            whitened = 0x4d59_5df4_d0f3_3173; // arbitrary non-zero constant
        }
        Self { state: whitened }
    }

    /// Creates a generator directly from a raw non-zero state, without
    /// whitening.  Useful for reproducing published test vectors.
    ///
    /// # Panics
    ///
    /// Panics if `state == 0` (zero is an absorbing state of the xorshift
    /// transition and must never be used).
    pub fn from_raw_state(state: u64) -> Self {
        assert!(state != 0, "xorshift64* state must be non-zero");
        Self { state }
    }

    /// Returns the raw internal state.
    pub fn state(&self) -> u64 {
        self.state
    }
}

impl RandomSource for Xorshift64Star {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl Default for Xorshift64Star {
    fn default() -> Self {
        Self::seed_from_u64(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn xorshift64star_nonzero_state_invariant() {
        // The transition is a bijection on non-zero states, so the state can
        // never become zero; spot-check a long run.
        let mut rng = Xorshift64Star::seed_from_u64(0);
        for _ in 0..10_000 {
            let _ = rng.next_u64();
            assert_ne!(rng.state(), 0);
        }
    }

    #[test]
    fn xorshift64star_zero_and_one_seeds_differ() {
        let mut a = Xorshift64Star::seed_from_u64(0);
        let mut b = Xorshift64Star::seed_from_u64(1);
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn xorshift64star_raw_zero_panics() {
        let _ = Xorshift64Star::from_raw_state(0);
    }

    #[test]
    fn xorshift64star_no_short_cycles() {
        let mut rng = Xorshift64Star::seed_from_u64(42);
        let mut seen = HashSet::new();
        for _ in 0..50_000 {
            assert!(
                seen.insert(rng.next_u64()),
                "value repeated within 50k draws"
            );
        }
    }

    #[test]
    fn xorshift64star_index_distribution_roughly_uniform() {
        // Chi-squared-lite: 16 buckets, 64k draws; each bucket should be
        // within 20% of the mean.  This is a smoke test, not a PRNG audit.
        let mut rng = Xorshift64Star::seed_from_u64(7);
        let mut buckets = [0u32; 16];
        let draws = 1 << 16;
        for _ in 0..draws {
            buckets[rng.gen_index(16)] += 1;
        }
        let mean = draws as f64 / 16.0;
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                (b as f64 - mean).abs() < mean * 0.2,
                "bucket {i} = {b}, mean {mean}"
            );
        }
    }

    #[test]
    fn generators_disagree_with_each_other() {
        // Guards against accidentally wiring the paper's two generators to
        // the same engine.
        let mut a = Xorshift64Star::seed_from_u64(5);
        let mut b = crate::MinStd::seed_from_u64(5);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }
}
