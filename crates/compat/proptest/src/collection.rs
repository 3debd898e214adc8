//! Collection strategies.

use core::ops::{Range, RangeInclusive};

use rand::Rng;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A range of collection sizes, converted from `usize` ranges or a fixed
/// length.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max_inclusive: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(len: usize) -> Self {
        SizeRange {
            min: len,
            max_inclusive: len,
        }
    }
}

/// Strategy for `Vec`s whose length is drawn from `size` and whose elements
/// are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng
            .rng()
            .random_range(self.size.min..=self.size.max_inclusive);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_size_range() {
        let mut rng = TestRng::deterministic("vec_respects_size_range");
        let s = vec(0.0f64..5.0, 0..64);
        for _ in 0..50 {
            let v = s.sample(&mut rng);
            assert!(v.len() < 64);
            assert!(v.iter().all(|x| (0.0..5.0).contains(x)));
        }
        let fixed = vec(0u64..9, 7..=7);
        assert_eq!(fixed.sample(&mut rng).len(), 7);
    }
}
