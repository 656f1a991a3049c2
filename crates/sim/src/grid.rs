//! Device memory state: one `f64` grid per declared array.

use kfuse_ir::{ArrayId, GridDims, Program};

/// The contents of device global memory: one dense row-major grid per
/// array of a program.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    dims: GridDims,
    grids: Vec<Vec<f64>>,
}

impl DeviceState {
    /// Allocate all arrays of `p`, zero-initialized.
    pub fn zeros(p: &Program) -> Self {
        let n = p.grid.sites() as usize;
        DeviceState {
            dims: p.grid,
            grids: vec![vec![0.0; n]; p.arrays.len()],
        }
    }

    /// Allocate all arrays of `p`, initializing each site from `f`.
    ///
    /// A deterministic, site-dependent initializer makes fusion-validation
    /// tests sensitive: every site of every array holds a distinct value.
    pub fn init_with(p: &Program, mut f: impl FnMut(ArrayId, u32, u32, u32) -> f64) -> Self {
        let mut s = Self::zeros(p);
        for a in 0..p.arrays.len() {
            let id = ArrayId(a as u32);
            for k in 0..p.grid.nz {
                for j in 0..p.grid.ny {
                    for i in 0..p.grid.nx {
                        let v = f(id, i, j, k);
                        s.set(id, i, j, k, v);
                    }
                }
            }
        }
        s
    }

    /// A standard smooth-but-nontrivial initializer used across tests and
    /// examples: distinct per array, varying in all three dimensions,
    /// bounded away from zero (safe as a divisor).
    pub fn default_init(p: &Program) -> Self {
        Self::init_with(p, |a, i, j, k| {
            let (a, i, j, k) = (f64::from(a.0), f64::from(i), f64::from(j), f64::from(k));
            2.0 + (0.1 * i + 0.07 * j + 0.045 * k + 0.3 * a).sin() * 0.5 + 0.01 * a
        })
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Number of arrays held.
    pub fn array_count(&self) -> usize {
        self.grids.len()
    }

    /// Read `array[i, j, k]` (unclamped; caller clamps).
    #[inline]
    pub fn get(&self, array: ArrayId, i: u32, j: u32, k: u32) -> f64 {
        self.grids[array.index()][self.dims.idx(i, j, k)]
    }

    /// Read with signed coordinates clamped into the grid (boundary
    /// padding semantics, §II-C of the paper).
    #[inline]
    pub fn get_clamped(&self, array: ArrayId, i: i64, j: i64, k: i64) -> f64 {
        let (ci, cj, ck) = self.dims.clamp(i, j, k);
        self.get(array, ci, cj, ck)
    }

    /// Write `array[i, j, k]`.
    #[inline]
    pub fn set(&mut self, array: ArrayId, i: u32, j: u32, k: u32, v: f64) {
        let idx = self.dims.idx(i, j, k);
        self.grids[array.index()][idx] = v;
    }

    /// Borrow an array's raw storage.
    pub fn raw(&self, array: ArrayId) -> &[f64] {
        &self.grids[array.index()]
    }

    /// Maximum absolute difference between two states on `array`.
    pub fn max_abs_diff(&self, other: &DeviceState, array: ArrayId) -> f64 {
        self.raw(array)
            .iter()
            .zip(other.raw(array))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True if `array` matches `other`'s bit-for-bit.
    pub fn array_eq(&self, other: &DeviceState, array: ArrayId) -> bool {
        self.raw(array) == other.raw(array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::Expr;

    fn prog() -> Program {
        let mut pb = ProgramBuilder::new("p", [32, 8, 4]);
        let a = pb.array("A");
        let b = pb.array("B");
        pb.kernel("k").write(b, Expr::at(a)).build();
        pb.build()
    }

    #[test]
    fn zeros_allocates_all_arrays() {
        let p = prog();
        let s = DeviceState::zeros(&p);
        assert_eq!(s.array_count(), 2);
        assert_eq!(s.get(ArrayId(0), 31, 7, 3), 0.0);
    }

    #[test]
    fn set_get_roundtrip() {
        let p = prog();
        let mut s = DeviceState::zeros(&p);
        s.set(ArrayId(1), 3, 2, 1, 42.5);
        assert_eq!(s.get(ArrayId(1), 3, 2, 1), 42.5);
        assert_eq!(s.get(ArrayId(0), 3, 2, 1), 0.0);
    }

    #[test]
    fn clamped_reads_hit_boundaries() {
        let p = prog();
        let mut s = DeviceState::zeros(&p);
        s.set(ArrayId(0), 0, 0, 0, 7.0);
        s.set(ArrayId(0), 31, 7, 3, 9.0);
        assert_eq!(s.get_clamped(ArrayId(0), -3, -1, 0), 7.0);
        assert_eq!(s.get_clamped(ArrayId(0), 40, 9, 5), 9.0);
    }

    #[test]
    fn default_init_distinct_per_array() {
        let p = prog();
        let s = DeviceState::default_init(&p);
        assert_ne!(s.get(ArrayId(0), 5, 5, 1), s.get(ArrayId(1), 5, 5, 1));
        // Strictly positive everywhere (safe divisor).
        for &v in s.raw(ArrayId(0)) {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn diff_helpers() {
        let p = prog();
        let a = DeviceState::default_init(&p);
        let mut b = a.clone();
        assert!(a.array_eq(&b, ArrayId(0)));
        assert_eq!(a.max_abs_diff(&b, ArrayId(0)), 0.0);
        b.set(ArrayId(0), 1, 1, 1, b.get(ArrayId(0), 1, 1, 1) + 0.5);
        assert!(!a.array_eq(&b, ArrayId(0)));
        assert!((a.max_abs_diff(&b, ArrayId(0)) - 0.5).abs() < 1e-12);
    }
}
