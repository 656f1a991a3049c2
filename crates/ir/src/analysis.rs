//! Memory-traffic and FLOP accounting for kernels.
//!
//! These analyses implement the byte-counting conventions the paper relies
//! on for the reducible-traffic estimates (Table I), the Fusion Efficiency
//! metric (Eqs. 11–12), and the timing simulator:
//!
//! * A **staged** array (held in SMEM or a register per §II-D) is fetched
//!   from GMEM once per block — tile plus staged halo — regardless of how
//!   many segments reuse it.
//! * An **unstaged** array is fetched once per read offset per site (Kepler
//!   does not cache global loads in L1; the paper's "rigorously optimized"
//!   original kernels stage any array with thread load > 1, so unstaged
//!   multi-offset reads only appear in deliberately naive kernels).
//! * Writes always reach GMEM (SMEM is incoherent with GMEM; results must
//!   land in device memory for subsequent kernels).
//! * A staged array that is *written before being read* inside the kernel is
//!   produced on-chip: its tile load is skipped, but computing its halo
//!   layers re-executes the producing statements on halo sites (the
//!   "specialized warps" of §II-D2), which costs extra FLOPs **and** widens
//!   the GMEM footprint of the producing statements' input arrays.

use crate::{
    array::ArrayId,
    kernel::{Kernel, Staging, StagingMedium},
    program::Program,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-array element counts for one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayTraffic {
    /// Elements loaded from GMEM.
    pub load_elems: u64,
    /// Elements stored to GMEM.
    pub store_elems: u64,
}

/// GMEM traffic of one kernel invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelTraffic {
    /// Total elements loaded.
    pub load_elems: u64,
    /// Total elements stored.
    pub store_elems: u64,
    /// Per-array breakdown.
    pub per_array: BTreeMap<ArrayId, ArrayTraffic>,
}

impl KernelTraffic {
    /// Total bytes moved at `elem_bytes` per element.
    pub fn bytes(&self, elem_bytes: u64) -> u64 {
        (self.load_elems + self.store_elems) * elem_bytes
    }

    /// Total elements moved (loads + stores), the paper's `LD + ST`.
    pub fn elems(&self) -> u64 {
        self.load_elems + self.store_elems
    }
}

/// How each staged array's halo is populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HaloFill {
    /// Loaded directly from GMEM (read-only pivot; cheap).
    Loaded,
    /// Computed redundantly by specialized warps (read-write pivot whose
    /// producer is inside the same kernel; §II-D2).
    Computed,
}

/// Classify how the halo of staging directive `st` must be filled in `k`:
/// if any segment writes the array before (or in the same segment as) a
/// read, the on-chip copy is produced locally and its halo must be computed.
pub fn halo_fill(k: &Kernel, st: &Staging) -> HaloFill {
    for seg in &k.segments {
        let writes_here = seg.statements.iter().any(|s| s.target == st.array);
        if writes_here {
            return HaloFill::Computed;
        }
        let reads_here = seg
            .statements
            .iter()
            .any(|s| s.expr.loads().iter().any(|(a, _)| *a == st.array));
        if reads_here {
            // Read reached before any write: staged copy comes from GMEM.
            return HaloFill::Loaded;
        }
    }
    HaloFill::Loaded
}

/// Tile area (sites per k-level per block) including `halo` layers.
fn tile_area(p: &Program, halo: u32) -> u64 {
    let bx = u64::from(p.launch.block_x) + 2 * u64::from(halo);
    let by = u64::from(p.launch.block_y) + 2 * u64::from(halo);
    bx * by
}

/// Halo sites per block per k-level for `halo` layers around the tile.
pub fn halo_area(p: &Program, halo: u32) -> u64 {
    tile_area(p, halo) - tile_area(p, 0)
}

/// SMEM bytes per block required by a kernel's staging directives
/// (`MEM(F)` of constraint 1.6 before bank-conflict padding).
///
/// Each SMEM-staged array occupies one 2D tile (+halo) per block, as in the
/// `__shared__ double s_A[bx+2][by+2]` of Fig. 3; register-staged arrays
/// use no SMEM.
pub fn smem_bytes_per_block(p: &Program, k: &Kernel, elem_bytes: u64) -> u64 {
    k.staging
        .iter()
        .filter(|s| s.medium == StagingMedium::Smem)
        .map(|s| tile_area(p, u32::from(s.halo)) * elem_bytes)
        .sum()
}

/// GMEM traffic of one invocation of kernel `k` in program `p`.
pub fn kernel_traffic(p: &Program, k: &Kernel) -> KernelTraffic {
    let blocks = u64::from(p.blocks());
    let nz = u64::from(p.grid.nz);
    let sites_per_block_level = tile_area(p, 0);
    let mut per_array: BTreeMap<ArrayId, ArrayTraffic> = BTreeMap::new();

    let staging: BTreeMap<ArrayId, &Staging> = k.staging.iter().map(|s| (s.array, s)).collect();

    // Loads.
    for (array, offsets) in k.reads() {
        let t = match staging.get(&array) {
            Some(st) if st.medium == StagingMedium::ReadOnlyCache => {
                // Hardware-managed: one tile(+halo) fetch per block, no
                // SMEM capacity cost.
                blocks * tile_area(p, u32::from(st.halo)) * nz
            }
            Some(st) => {
                match halo_fill(k, st) {
                    HaloFill::Loaded => {
                        // One tile (+halo) fetch per block.
                        blocks * tile_area(p, u32::from(st.halo)) * nz
                    }
                    HaloFill::Computed => {
                        // Produced on-chip; no GMEM load for this array.
                        // (Input widening is accounted below.)
                        0
                    }
                }
            }
            None => {
                // Unstaged: one load per read position per site.
                let footprint =
                    crate::stencil::horizontal_footprint(offsets.iter().copied()).len() as u64;
                // Distinct vertical offsets at the same horizontal position
                // still cost separate loads per site.
                let vert_extra = offsets.len() as u64 - footprint;
                blocks * sites_per_block_level * nz * (footprint + vert_extra)
            }
        };
        per_array.entry(array).or_default().load_elems += t;
    }

    // Halo computation widens the GMEM footprint of producer inputs:
    // specialized warps evaluating the producing statements on halo sites
    // must read those statements' inputs there too.
    for st in &k.staging {
        if st.halo == 0 || halo_fill(k, st) != HaloFill::Computed {
            continue;
        }
        let extra_area = halo_area(p, u32::from(st.halo));
        for seg in &k.segments {
            for stmt in &seg.statements {
                if stmt.target != st.array {
                    continue;
                }
                for (input, _) in stmt.expr.loads() {
                    // Inputs that are themselves staged-and-produced on-chip
                    // need no extra GMEM; otherwise count the halo ring.
                    let on_chip = staging
                        .get(&input)
                        .map(|s| halo_fill(k, s) == HaloFill::Computed)
                        .unwrap_or(false);
                    if !on_chip {
                        per_array.entry(input).or_default().load_elems += blocks * extra_area * nz;
                    }
                }
            }
        }
    }

    // Stores: every writing statement commits its tile to GMEM once.
    for stmt_target in k.statements().map(|s| s.target) {
        per_array.entry(stmt_target).or_default().store_elems +=
            blocks * sites_per_block_level * nz;
    }

    let load_elems = per_array.values().map(|a| a.load_elems).sum();
    let store_elems = per_array.values().map(|a| a.store_elems).sum();
    KernelTraffic {
        load_elems,
        store_elems,
        per_array,
    }
}

/// Total FLOPs of one invocation of `k`, including redundant halo
/// computation (the numerator additions of Eq. 10).
pub fn kernel_flops(p: &Program, k: &Kernel) -> u64 {
    let blocks = u64::from(p.blocks());
    let nz = u64::from(p.grid.nz);
    let base = k.flops() * blocks * tile_area(p, 0) * nz;

    let staging: BTreeMap<ArrayId, &Staging> = k.staging.iter().map(|s| (s.array, s)).collect();

    let mut halo_flops = 0u64;
    for st in &k.staging {
        if st.halo == 0 || halo_fill(k, st) != HaloFill::Computed {
            continue;
        }
        let extra_area = halo_area(p, u32::from(st.halo));
        for stmt in k.statements() {
            if stmt.target == st.array {
                halo_flops += stmt.expr.flops() * blocks * extra_area * nz;
            }
        }
    }
    let _ = staging;
    base + halo_flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::Expr;
    use crate::kernel::{KernelId, Segment, Statement};
    use crate::stencil::Offset;

    /// 64×64×4 grid, 32×4 tile → 128 blocks of 128 threads.
    fn base() -> (Program, ArrayId, ArrayId, ArrayId) {
        let mut pb = ProgramBuilder::new("p", [64, 64, 4]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::load(a, Offset::new(-1, 0, 0)))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(b) * Expr::lit(2.0))
            .build();
        (pb.build(), a, b, c)
    }

    #[test]
    fn unstaged_loads_count_per_offset() {
        let (p, a, b, _) = base();
        let t = kernel_traffic(&p, &p.kernels[0]);
        let sites = p.grid.sites();
        // A read at two horizontal offsets, unstaged → 2 loads/site.
        assert_eq!(t.per_array[&a].load_elems, 2 * sites);
        // B written once.
        assert_eq!(t.per_array[&b].store_elems, sites);
        assert_eq!(t.load_elems, 2 * sites);
        assert_eq!(t.store_elems, sites);
    }

    #[test]
    fn staged_read_only_array_loads_tile_plus_halo_once() {
        let (mut p, a, _, _) = base();
        p.kernels[0].staging.push(Staging {
            array: a,
            halo: 1,
            medium: StagingMedium::Smem,
        });
        let t = kernel_traffic(&p, &p.kernels[0]);
        let blocks = u64::from(p.blocks());
        let nz = u64::from(p.grid.nz);
        let tile = (32 + 2) * (4 + 2); // (bx+2)(by+2)
        assert_eq!(t.per_array[&a].load_elems, blocks * tile * nz);
    }

    #[test]
    fn register_staging_uses_no_smem() {
        let (mut p, a, _, _) = base();
        p.kernels[0].staging.push(Staging {
            array: a,
            halo: 0,
            medium: StagingMedium::Register,
        });
        assert_eq!(smem_bytes_per_block(&p, &p.kernels[0], 8), 0);
        p.kernels[0].staging[0].medium = StagingMedium::Smem;
        assert_eq!(smem_bytes_per_block(&p, &p.kernels[0], 8), 32 * 4 * 8);
    }

    #[test]
    fn produced_pivot_array_skips_gmem_load() {
        // Fused kernel: seg0 writes B from A, seg1 reads B (staged).
        let (mut p, _a, b, c) = base();
        let seg0 = p.kernels[0].segments[0].clone();
        let mut seg1 = Segment::new(
            KernelId(1),
            vec![Statement {
                target: c,
                expr: Expr::at(b) * Expr::lit(2.0),
            }],
        );
        seg1.barrier_before = true;
        let fused = Kernel {
            id: KernelId(0),
            name: "fused".into(),
            segments: vec![seg0, seg1],
            staging: vec![Staging {
                array: b,
                halo: 0,
                medium: StagingMedium::Smem,
            }],
        };
        p.kernels = vec![fused];
        p.kernels[0].id = KernelId(0);
        let t = kernel_traffic(&p, &p.kernels[0]);
        // B produced on-chip → zero GMEM loads of B; still stored once.
        assert_eq!(t.per_array[&b].load_elems, 0);
        assert_eq!(t.per_array[&b].store_elems, p.grid.sites());
    }

    #[test]
    fn computed_halo_widens_inputs_and_adds_flops() {
        // seg0: B = A + A[-1,0]; seg1: C = B[1,0] * 2 → B staged halo 1.
        let (mut p, a, b, c) = base();
        let seg0 = p.kernels[0].segments[0].clone();
        let mut seg1 = Segment::new(
            KernelId(1),
            vec![Statement {
                target: c,
                expr: Expr::load(b, Offset::new(1, 0, 0)) * Expr::lit(2.0),
            }],
        );
        seg1.barrier_before = true;
        let fused = Kernel {
            id: KernelId(0),
            name: "fused".into(),
            segments: vec![seg0, seg1],
            staging: vec![Staging {
                array: b,
                halo: 1,
                medium: StagingMedium::Smem,
            }],
        };
        let flops_nohalo = {
            let mut k = fused.clone();
            k.staging[0].halo = 0;
            p.kernels = vec![k];
            kernel_flops(&p, &p.kernels[0])
        };
        p.kernels = vec![fused];
        let flops_halo = kernel_flops(&p, &p.kernels[0]);
        assert!(flops_halo > flops_nohalo, "halo compute must add FLOPs");

        let t = kernel_traffic(&p, &p.kernels[0]);
        // A (input of the producer) is loaded on halo sites too: its
        // unstaged loads plus one ring per load reference.
        let sites = p.grid.sites();
        assert!(t.per_array[&a].load_elems > 2 * sites);
    }

    #[test]
    fn bytes_scale_with_element_size() {
        let (p, ..) = base();
        let t = kernel_traffic(&p, &p.kernels[0]);
        assert_eq!(t.bytes(8), 2 * t.bytes(4));
    }

    #[test]
    fn halo_fill_classification() {
        let (p, a, b, _) = base();
        let st_a = Staging {
            array: a,
            halo: 1,
            medium: StagingMedium::Smem,
        };
        let st_b = Staging {
            array: b,
            halo: 0,
            medium: StagingMedium::Smem,
        };
        // k0 reads A (never writes it) → Loaded; writes B → Computed.
        assert_eq!(halo_fill(&p.kernels[0], &st_a), HaloFill::Loaded);
        assert_eq!(halo_fill(&p.kernels[0], &st_b), HaloFill::Computed);
    }
}
