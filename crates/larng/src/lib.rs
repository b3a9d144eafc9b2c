//! Seedable, deterministic pseudo-random number generators for the LevelArray
//! reproduction.
//!
//! The paper's implementation section (§6) states that the authors used the
//! *Marsaglia* (xorshift) and *Park–Miller / Lehmer* generators interchangeably
//! and observed no difference in results.  This crate provides both
//! ([`Xorshift64Star`] and [`MinStd`]), plus [`SplitMix64`], a modern small
//! generator that is convenient for seeding.
//!
//! Everything in this crate is deterministic given a seed, allocation-free, and
//! depends only on `std` (and only for the optional entropy helpers).  The
//! algorithm crates take a generator through the [`RandomSource`] trait so that
//! simulations can substitute the deterministic [`mock`] generators.
//!
//! # Quick example
//!
//! ```
//! use larng::{RandomSource, Xorshift64Star};
//!
//! let mut rng = Xorshift64Star::seed_from_u64(42);
//! let i = rng.gen_index(10);        // uniform in 0..10
//! assert!(i < 10);
//! let x = rng.random(1, 6);         // the paper's `random(1, v)` helper
//! assert!((1..=6).contains(&x));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod lehmer;
pub mod mock;
pub mod seed;
pub mod source;
pub mod splitmix;
pub mod xorshift;

pub use lehmer::MinStd;
pub use mock::SequenceRng;
pub use seed::{entropy_seed, SeedSequence};
pub use source::RandomSource;
pub use splitmix::SplitMix64;
pub use xorshift::Xorshift64Star;

/// The default generator used throughout the workspace when the caller does not
/// care which one they get.
///
/// This is the Marsaglia-style [`Xorshift64Star`] generator, matching the
/// paper's implementation choice, and is cheap enough (a handful of ALU
/// operations per draw) that it never dominates a probe.
pub type DefaultRng = Xorshift64Star;

/// Constructs the workspace-default generator from a 64-bit seed.
///
/// ```
/// let mut a = larng::default_rng(7);
/// let mut b = larng::default_rng(7);
/// use larng::RandomSource;
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub fn default_rng(seed: u64) -> DefaultRng {
    Xorshift64Star::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rng_is_deterministic() {
        let mut a = default_rng(123);
        let mut b = default_rng(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn entropy_rng_is_usable() {
        let mut rng = default_rng(entropy_seed());
        // Not a statistical test; just ensures the entropy path produces a
        // working generator.
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..16 {
            distinct.insert(rng.gen_index(1 << 30));
        }
        assert!(distinct.len() > 1);
    }
}
