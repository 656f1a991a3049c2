//! Data arrays and grid geometry.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a data array within one [`crate::Program`].
///
/// Stored as `u32` to keep graph structures compact (programs in the paper
/// have at most a few hundred arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// Index into per-array tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Declaration of one 3D data array.
///
/// All arrays in a program share the program's [`GridDims`]; the paper
/// assumes index offsets/padding reconcile differing loop bounds (§II-C),
/// so a uniform extent loses no generality for the planner.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayDecl {
    /// Array id, equal to its position in [`crate::Program::arrays`].
    pub id: ArrayId,
    /// Human-readable name (e.g. `"QFLX"`).
    pub name: String,
    /// True for arrays created by the expandable read-write relaxation
    /// (§II-B1c): redundant copies introduced to remove a precedence
    /// constraint at the cost of extra memory capacity.
    pub redundant_copy_of: Option<ArrayId>,
}

/// Extent of the computational grid: `nx` × `ny` horizontal sites, `nz`
/// vertical levels looped inside each kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridDims {
    /// Sites along i (fastest-varying, coalesced direction).
    pub nx: u32,
    /// Sites along j.
    pub ny: u32,
    /// Vertical levels along k.
    pub nz: u32,
}

impl GridDims {
    /// Construct grid dimensions.
    ///
    /// # Panics
    /// Panics if any extent is zero.
    pub fn new(nx: u32, ny: u32, nz: u32) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid extents must be non-zero");
        GridDims { nx, ny, nz }
    }

    /// Total number of grid sites.
    pub fn sites(&self) -> u64 {
        u64::from(self.nx) * u64::from(self.ny) * u64::from(self.nz)
    }

    /// Row-major linear index of site `(i, j, k)` with i fastest.
    #[inline]
    pub fn idx(&self, i: u32, j: u32, k: u32) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        ((k as usize * self.ny as usize) + j as usize) * self.nx as usize + i as usize
    }

    /// Clamp a possibly out-of-range signed coordinate into the grid,
    /// mirroring the boundary padding the paper assumes (§II-C).
    #[inline]
    pub fn clamp(&self, i: i64, j: i64, k: i64) -> (u32, u32, u32) {
        (
            i.clamp(0, i64::from(self.nx) - 1) as u32,
            j.clamp(0, i64::from(self.ny) - 1) as u32,
            k.clamp(0, i64::from(self.nz) - 1) as u32,
        )
    }
}

impl From<[u32; 3]> for GridDims {
    fn from(v: [u32; 3]) -> Self {
        GridDims::new(v[0], v[1], v[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_index_is_row_major() {
        let g = GridDims::new(4, 3, 2);
        assert_eq!(g.idx(0, 0, 0), 0);
        assert_eq!(g.idx(1, 0, 0), 1);
        assert_eq!(g.idx(0, 1, 0), 4);
        assert_eq!(g.idx(0, 0, 1), 12);
        assert_eq!(g.idx(3, 2, 1), 23);
        assert_eq!(g.sites(), 24);
    }

    #[test]
    fn clamping_handles_all_boundaries() {
        let g = GridDims::new(4, 3, 2);
        assert_eq!(g.clamp(-1, -5, -1), (0, 0, 0));
        assert_eq!(g.clamp(10, 10, 10), (3, 2, 1));
        assert_eq!(g.clamp(2, 1, 1), (2, 1, 1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_extent_rejected() {
        let _ = GridDims::new(0, 3, 2);
    }

    #[test]
    fn display_of_array_id() {
        assert_eq!(ArrayId(7).to_string(), "D7");
    }
}
