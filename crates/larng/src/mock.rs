//! Deterministic, scripted generators for tests and simulations.
//!
//! [`SequenceRng`] replays a caller-provided list of values, so a test can
//! force an algorithm to probe exactly the slots it wants to exercise (e.g.
//! "collide on the first probe, succeed on the second").

use crate::RandomSource;

/// A generator that replays a fixed sequence of 64-bit values.
///
/// What the *derived* draws (e.g. [`RandomSource::gen_index`]) produce depends
/// on the reduction method, so tests that need an exact probe index should use
/// [`SequenceRng::for_indices`], which pre-encodes each desired index into the
/// raw value that Lemire reduction maps back onto it.
///
/// # Panics
///
/// By default the generator panics when the sequence is exhausted (so a test
/// fails loudly if the code under test draws more values than expected);
/// [`SequenceRng::cycling`] makes it wrap around instead.
///
/// # Examples
///
/// ```
/// use larng::{RandomSource, SequenceRng};
///
/// let mut rng = SequenceRng::for_indices(&[3, 0, 7], 10);
/// assert_eq!(rng.gen_index(10), 3);
/// assert_eq!(rng.gen_index(10), 0);
/// assert_eq!(rng.gen_index(10), 7);
/// ```
#[derive(Debug, Clone)]
pub struct SequenceRng {
    values: Vec<u64>,
    position: usize,
    cycle: bool,
}

impl SequenceRng {
    /// Creates a generator that replays `values` and panics when exhausted.
    pub fn new(values: impl Into<Vec<u64>>) -> Self {
        Self {
            values: values.into(),
            position: 0,
            cycle: false,
        }
    }

    /// Creates a generator that replays `values` and wraps around forever.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn cycling(values: impl Into<Vec<u64>>) -> Self {
        let values = values.into();
        assert!(
            !values.is_empty(),
            "cycling SequenceRng needs at least one value"
        );
        Self {
            values,
            position: 0,
            cycle: true,
        }
    }

    /// Creates a generator whose successive `gen_index(bound)` / `gen_below(bound)`
    /// calls (with exactly this `bound`) return the given `indices`.
    ///
    /// This inverts the Lemire reduction `(x * bound) >> 64` by choosing the
    /// smallest raw `x` that maps to each index, namely
    /// `ceil(index * 2^64 / bound)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= bound` or if `bound == 0`.
    pub fn for_indices(indices: &[u64], bound: u64) -> Self {
        assert!(bound > 0, "bound must be non-zero");
        let values = indices
            .iter()
            .map(|&index| {
                assert!(index < bound, "index {index} out of bound {bound}");
                raw_for_index(index, bound)
            })
            .collect::<Vec<_>>();
        Self::new(values)
    }

    /// How many values have been consumed so far.
    pub fn consumed(&self) -> usize {
        self.position
    }

    /// How many scripted values remain (meaningless for cycling generators).
    pub fn remaining(&self) -> usize {
        self.values.len().saturating_sub(self.position)
    }
}

/// Computes a 64-bit raw value that Lemire reduction with `bound` maps onto
/// `index` **without triggering the rejection path** (which would consume an
/// extra scripted value).
///
/// This is the building block behind [`SequenceRng::for_indices`]; it is
/// public so that tests can script draws whose bounds differ from call to
/// call (e.g. one probe per LevelArray batch, each batch a different size).
///
/// # Panics
///
/// Panics if `bound == 0` or `index >= bound`.
pub fn raw_for_index(index: u64, bound: u64) -> u64 {
    assert!(bound > 0, "bound must be non-zero");
    assert!(index < bound, "index {index} out of bound {bound}");
    raw_for_index_impl(index, bound)
}

fn raw_for_index_impl(index: u64, bound: u64) -> u64 {
    // Smallest x with (x * bound) >> 64 == index is ceil(index * 2^64 / bound).
    let target = (index as u128) << 64;
    let mut x = (target / bound as u128) as u64;
    if ((x as u128 * bound as u128) >> 64) as u64 != index {
        x += 1;
    }
    // The low 64 bits of x*bound are < bound at this minimal x, which would
    // enter gen_below's rejection branch.  Stepping x forward by one adds
    // `bound` to the low half, guaranteeing the branch is skipped, while
    // staying within the same index as long as the index's raw range has more
    // than one value (always true for the small bounds used with this mock).
    if ((x.wrapping_add(1) as u128 * bound as u128) >> 64) as u64 == index {
        x += 1;
    }
    debug_assert_eq!(((x as u128 * bound as u128) >> 64) as u64, index);
    x
}

impl RandomSource for SequenceRng {
    fn next_u64(&mut self) -> u64 {
        if self.position >= self.values.len() {
            if self.cycle {
                self.position = 0;
            } else {
                panic!(
                    "SequenceRng exhausted after {} scripted values",
                    self.values.len()
                );
            }
        }
        let v = self.values[self.position];
        self.position += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_replays_values() {
        let mut rng = SequenceRng::new(vec![1, 2, 3]);
        assert_eq!(rng.next_u64(), 1);
        assert_eq!(rng.next_u64(), 2);
        assert_eq!(rng.next_u64(), 3);
        assert_eq!(rng.consumed(), 3);
        assert_eq!(rng.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn sequence_panics_when_exhausted() {
        let mut rng = SequenceRng::new(vec![1]);
        let _ = rng.next_u64();
        let _ = rng.next_u64();
    }

    #[test]
    fn cycling_wraps_around() {
        let mut rng = SequenceRng::cycling(vec![10, 20]);
        assert_eq!(rng.next_u64(), 10);
        assert_eq!(rng.next_u64(), 20);
        assert_eq!(rng.next_u64(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn cycling_empty_panics() {
        let _ = SequenceRng::cycling(Vec::<u64>::new());
    }

    #[test]
    fn for_indices_produces_exact_indices() {
        for bound in [1u64, 2, 3, 10, 100, 1023, 4096] {
            let indices: Vec<u64> = (0..bound.min(64)).collect();
            let mut rng = SequenceRng::for_indices(&indices, bound);
            for &want in &indices {
                assert_eq!(rng.gen_below(bound), want, "bound {bound}");
            }
        }
    }

    #[test]
    fn for_indices_works_via_gen_index() {
        let mut rng = SequenceRng::for_indices(&[5, 5, 0, 9], 10);
        assert_eq!(rng.gen_index(10), 5);
        assert_eq!(rng.gen_index(10), 5);
        assert_eq!(rng.gen_index(10), 0);
        assert_eq!(rng.gen_index(10), 9);
    }

    #[test]
    #[should_panic(expected = "out of bound")]
    fn for_indices_rejects_out_of_range() {
        let _ = SequenceRng::for_indices(&[10], 10);
    }

    #[test]
    fn raw_for_index_boundaries() {
        // Every produced raw value must map back to its index and must not
        // trigger the rejection branch (low half >= bound).
        for bound in [1u64, 2, 7, 10, 1000] {
            for index in 0..bound.min(16) {
                let raw = raw_for_index(index, bound);
                let m = raw as u128 * bound as u128;
                assert_eq!((m >> 64) as u64, index);
                assert!((m as u64) >= bound || bound == 1 && raw >= 1);
            }
        }
    }
}
