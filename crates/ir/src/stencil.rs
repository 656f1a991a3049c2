//! Stencil offsets and neighborhood shapes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A relative stencil offset `(di, dj, dk)` from the thread's own site.
///
/// `di`/`dj` are horizontal (within the 2D thread-block tile); `dk` moves
/// along the internally-looped vertical dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Offset {
    /// Offset along i.
    pub di: i8,
    /// Offset along j.
    pub dj: i8,
    /// Offset along k.
    pub dk: i8,
}

impl Offset {
    /// The thread's own site.
    pub const ZERO: Offset = Offset {
        di: 0,
        dj: 0,
        dk: 0,
    };

    /// Construct an offset.
    pub const fn new(di: i8, dj: i8, dk: i8) -> Self {
        Offset { di, dj, dk }
    }

    /// Chebyshev radius in the horizontal plane: `max(|di|, |dj|)`.
    ///
    /// This is the number of halo layers a thread block must stage to cover
    /// this offset (vertical offsets are free — the k loop is inside the
    /// kernel, so every thread visits every level).
    pub fn horizontal_radius(&self) -> u8 {
        self.di.unsigned_abs().max(self.dj.unsigned_abs())
    }
}

impl fmt::Display for Offset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.di, self.dj, self.dk)
    }
}

/// The full horizontal footprint of a set of offsets: the set of distinct
/// `(di, dj)` pairs, which equals the paper's *thread load* `D -T-> K`
/// (average number of threads in a block touching the same element).
pub fn horizontal_footprint(offsets: impl IntoIterator<Item = Offset>) -> Vec<(i8, i8)> {
    let mut pairs: Vec<(i8, i8)> = offsets.into_iter().map(|o| (o.di, o.dj)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Maximum horizontal radius over a set of offsets — the number of halo
/// layers needed to stage them all (`Hal` derives from this, Table III).
pub fn max_radius(offsets: impl IntoIterator<Item = Offset>) -> u8 {
    offsets
        .into_iter()
        .map(|o| o.horizontal_radius())
        .max()
        .unwrap_or(0)
}

/// Build the 3-point vertical stencil `{k-1, k, k+1}` truncated to radius
/// `r` in k; horizontal center only.
pub fn vertical(r: u8) -> Vec<Offset> {
    let r = r as i8;
    (-r..=r).map(|dk| Offset::new(0, 0, dk)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_is_chebyshev_horizontal() {
        assert_eq!(Offset::new(-2, 1, 5).horizontal_radius(), 2);
        assert_eq!(Offset::new(0, 0, 3).horizontal_radius(), 0);
        assert_eq!(Offset::ZERO.horizontal_radius(), 0);
    }

    #[test]
    fn footprint_dedups_vertical_variants() {
        // Offsets differing only in dk map to the same thread.
        let fp = horizontal_footprint([
            Offset::new(0, 0, 0),
            Offset::new(0, 0, 1),
            Offset::new(0, 0, -1),
            Offset::new(-1, 0, 0),
        ]);
        assert_eq!(fp.len(), 2);
    }

    #[test]
    fn vertical_stencil() {
        let v = vertical(1);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|o| o.horizontal_radius() == 0));
    }

    #[test]
    fn max_radius_of_empty_is_zero() {
        assert_eq!(max_radius([]), 0);
        assert_eq!(max_radius([Offset::new(0, -2, 0), Offset::new(1, 0, 3)]), 2);
    }
}
