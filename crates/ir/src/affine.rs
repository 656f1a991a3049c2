//! Interval arithmetic over affine index expressions.
//!
//! The structured analyses in `kfuse-verify` reason about emitted GPU
//! code symbolically: every tile or global access index is an affine
//! expression of the thread coordinates (`tx + c`, `blockIdx.x * BX +
//! tx + c`, …), and each variable ranges over a known closed interval.
//! This module provides the small, exact integer-interval algebra those
//! passes share: evaluate the affine expression over the variable
//! ranges, then compare the resulting [`Interval`] against the declared
//! bounds (tile extents with Eq. 7 padding, grid extents, guard
//! predicates).
//!
//! Intervals are closed (`[lo, hi]`, both inclusive) and use `i64`
//! arithmetic so that every index expression arising from `u32` grid
//! extents and `i8` stencil offsets evaluates without overflow.

/// A closed integer interval `[lo, hi]` (both endpoints inclusive).
///
/// An interval with `lo > hi` is *empty*; [`Interval::is_empty`] tests
/// for it and the lattice operations treat it uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The canonical empty interval.
    pub const EMPTY: Interval = Interval { lo: 1, hi: 0 };

    /// Construct `[lo, hi]`.
    pub const fn new(lo: i64, hi: i64) -> Interval {
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub const fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// True when the interval contains no integers.
    pub const fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Number of integers in the interval (0 when empty).
    pub const fn len(self) -> i64 {
        if self.is_empty() {
            0
        } else {
            self.hi - self.lo + 1
        }
    }

    /// Translate both endpoints by `d` (the affine `+ c` term).
    pub const fn shift(self, d: i64) -> Interval {
        if self.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(self.lo + d, self.hi + d)
        }
    }

    /// Exact sum of two intervals (`{a + b | a ∈ self, b ∈ other}`).
    pub const fn add(self, other: Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            Interval::EMPTY
        } else {
            Interval::new(self.lo + other.lo, self.hi + other.hi)
        }
    }

    /// Smallest interval containing both operands (lattice join).
    pub const fn hull(self, other: Interval) -> Interval {
        if self.is_empty() {
            other
        } else if other.is_empty() {
            self
        } else {
            Interval::new(
                if self.lo < other.lo {
                    self.lo
                } else {
                    other.lo
                },
                if self.hi > other.hi {
                    self.hi
                } else {
                    other.hi
                },
            )
        }
    }

    /// Intersection of the two intervals (lattice meet; possibly empty).
    pub const fn intersect(self, other: Interval) -> Interval {
        let lo = if self.lo > other.lo {
            self.lo
        } else {
            other.lo
        };
        let hi = if self.hi < other.hi {
            self.hi
        } else {
            other.hi
        };
        if lo > hi {
            Interval::EMPTY
        } else {
            Interval::new(lo, hi)
        }
    }

    /// True when every point of `other` lies inside `self`.
    pub const fn contains(self, other: Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// True when the two intervals share at least one integer.
    pub const fn overlaps(self, other: Interval) -> bool {
        !self.intersect(other).is_empty()
    }
}

/// An axis-aligned integer rectangle: the cross product of an x- and a
/// y-[`Interval`]. Tile footprints in the race analysis are `Rect`s in
/// local (tile) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Horizontal extent.
    pub x: Interval,
    /// Vertical extent.
    pub y: Interval,
}

impl Rect {
    /// Construct a rectangle from its two axis intervals.
    pub const fn new(x: Interval, y: Interval) -> Rect {
        Rect { x, y }
    }

    /// True when the rectangle contains no cells.
    pub const fn is_empty(self) -> bool {
        self.x.is_empty() || self.y.is_empty()
    }

    /// Cell-wise intersection (possibly empty).
    pub const fn intersect(self, other: Rect) -> Rect {
        Rect {
            x: self.x.intersect(other.x),
            y: self.y.intersect(other.y),
        }
    }

    /// True when every cell of `other` lies inside `self`.
    pub const fn contains(self, other: Rect) -> bool {
        other.is_empty() || (self.x.contains(other.x) && self.y.contains(other.y))
    }

    /// True when the two rectangles share at least one cell.
    pub const fn overlaps(self, other: Rect) -> bool {
        !self.intersect(other).is_empty()
    }
}

/// Ceiling division for non-negative operands: `ceil(n / d)`.
///
/// Used to bound the launched thread index range: a grid of extent `n`
/// covered by blocks of `b` threads launches `ceil(n/b) * b` threads, so
/// the largest global index is `ceil(n/b) * b - 1` — which exceeds
/// `n - 1` whenever `b` does not divide `n`.
pub const fn ceil_div(n: i64, d: i64) -> i64 {
    (n + d - 1) / d
}

/// Inclusive range `[0, ceil(n/b)*b - 1]` of a launched global index.
pub const fn launched_index_range(n: i64, b: i64) -> Interval {
    Interval::new(0, ceil_div(n, b) * b - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let a = Interval::new(0, 4);
        let b = Interval::new(3, 7);
        assert_eq!(a.intersect(b), Interval::new(3, 4));
        assert_eq!(a.hull(b), Interval::new(0, 7));
        assert!(a.overlaps(b));
        assert!(!a.overlaps(Interval::new(5, 9)));
        assert!(Interval::new(-1, 8).contains(a));
        assert!(!a.contains(Interval::new(-1, 8)));
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn empty_is_absorbing() {
        let a = Interval::new(0, 4);
        assert!(Interval::EMPTY.is_empty());
        assert!(Interval::EMPTY.add(a).is_empty());
        assert!(Interval::EMPTY.shift(3).is_empty());
        assert_eq!(Interval::EMPTY.hull(a), a);
        assert!(a.contains(Interval::EMPTY));
        assert_eq!(Interval::EMPTY.len(), 0);
    }

    #[test]
    fn shift_and_add() {
        let a = Interval::new(2, 5);
        assert_eq!(a.shift(-2), Interval::new(0, 3));
        assert_eq!(a.add(Interval::new(-1, 1)), Interval::new(1, 6));
        assert_eq!(a.add(Interval::point(10)), Interval::new(12, 15));
    }

    #[test]
    fn rect_overlap_and_containment() {
        let tile = Rect::new(Interval::new(0, 33), Interval::new(0, 5));
        let core = Rect::new(Interval::new(1, 32), Interval::new(1, 4));
        assert!(tile.contains(core));
        assert!(!core.contains(tile));
        let shifted = Rect::new(Interval::new(2, 33), Interval::new(1, 4));
        assert!(core.overlaps(shifted));
        assert!(!core.overlaps(Rect::new(Interval::new(40, 50), Interval::new(0, 5))));
        assert!(core
            .intersect(shifted)
            .contains(Rect::new(Interval::new(2, 32), Interval::new(1, 4))));
    }

    #[test]
    fn launched_range_matches_grid_divisibility() {
        // 64 / 32 divides: last launched index == last valid index.
        assert_eq!(launched_index_range(64, 32), Interval::new(0, 63));
        // 65 / 32 does not: two extra columns of threads past the edge.
        assert_eq!(launched_index_range(65, 32), Interval::new(0, 95));
        assert_eq!(ceil_div(65, 32), 3);
        assert_eq!(ceil_div(64, 32), 2);
    }
}
