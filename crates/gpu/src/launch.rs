//! CUDA launch configurations.
//!
//! The paper assumes (§II-C) that *all* kernels — original and new — share
//! one launch configuration: each thread loads a single stencil site, and
//! grid/block sizes are adjusted together so per-block work is constant.

use serde::{Deserialize, Serialize};

/// A `<<<grid, block>>>` launch configuration.
///
/// Blocks are 2D tiles over the horizontal (i, j) plane; the vertical (k)
/// dimension is looped inside the kernel, which is the layout of every
/// kernel in the paper's listings (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid (`B` in Table III).
    pub blocks: u32,
    /// Threads per block (`Thr` in Table III).
    pub threads_per_block: u32,
    /// Block tile width in threads (x dimension).
    pub block_x: u32,
    /// Block tile height in threads (y dimension).
    pub block_y: u32,
}

impl LaunchConfig {
    /// Create a launch config with an automatically factored 2D tile shape.
    ///
    /// The tile is chosen as close to square as the thread count allows,
    /// preferring a wider x extent (warp-aligned rows give coalesced GMEM
    /// access in row-major grids).
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(blocks: u32, threads_per_block: u32) -> Self {
        assert!(blocks > 0, "grid must have at least one block");
        assert!(threads_per_block > 0, "block must have at least one thread");
        let (bx, by) = factor_tile(threads_per_block);
        LaunchConfig {
            blocks,
            threads_per_block,
            block_x: bx,
            block_y: by,
        }
    }

    /// Warps per block given a warp size.
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block.div_ceil(warp_size)
    }
}

/// Factor `threads` into a (x, y) tile, x a multiple of 32 where possible.
fn factor_tile(threads: u32) -> (u32, u32) {
    if threads.is_multiple_of(32) {
        let rows = threads / 32;
        // Prefer (32, rows) unless rows exceeds 32, then widen x.
        let mut bx = 32;
        let mut by = rows;
        while by > bx && (bx * 2) <= threads && threads.is_multiple_of(bx * 2) {
            bx *= 2;
            by = threads / bx;
        }
        (bx, by)
    } else {
        (threads, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_ish_tiles_for_warp_multiples() {
        let lc = LaunchConfig::new(64, 128);
        assert_eq!(lc.block_x * lc.block_y, 128);
        assert_eq!(lc.block_x % 32, 0);
    }

    #[test]
    fn tile_1024_is_32x32() {
        let lc = LaunchConfig::new(1, 1024);
        assert_eq!((lc.block_x, lc.block_y), (32, 32));
    }

    #[test]
    fn non_warp_multiple_is_flat() {
        let lc = LaunchConfig::new(2, 100);
        assert_eq!((lc.block_x, lc.block_y), (100, 1));
    }

    #[test]
    fn warps_round_up() {
        let lc = LaunchConfig::new(1, 33);
        assert_eq!(lc.warps_per_block(32), 2);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = LaunchConfig::new(0, 128);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = LaunchConfig::new(4, 0);
    }
}
