//! Performance projection models (§IV).
//!
//! Three codeless projections of a prospective fused kernel's runtime,
//! consuming only Table III metadata and device constants:
//!
//! * [`RooflineModel`] — classic Roofline: bytes at peak bandwidth vs.
//!   FLOPs at peak compute. Blind to occupancy, register pressure and
//!   SMEM bank conflicts, hence systematically optimistic for large
//!   fusions (the paper's motivating example: 336 µs projected vs 554 µs
//!   measured for Kernel Y).
//! * [`SimpleModel`] — empirical: original sum minus the measured cost of
//!   the shared-array traffic that fusion removes. Better than Roofline
//!   but still blind to resource-pressure feedback (410 µs in the same
//!   example).
//! * [`ProposedModel`] — the paper's contribution: an adaptation of
//!   Lai & Seznec's upper-bound analysis to memory-bound stencils
//!   (Eqs. 2–10). Projects the *practical* bound by recomputing active
//!   blocks under the fused kernel's register (Eq. 6) and SMEM (Eq. 7)
//!   demand, deriving the SMEM blocking factor `B_Sh` (Eq. 8), the
//!   effective blocking `B_eff`, the bandwidth-bound performance
//!   `P_MemBound` (Eq. 9), and finally the runtime bound with halo-compute
//!   overhead (Eq. 10). Projected 564 µs in the motivating example —
//!   correctly flagging the fusion as unprofitable.
//!
//! All models return the **measured** runtime for single-member groups
//! (an unfused kernel keeps its observed performance).
//!
//! Every model has two routes: [`PerfModel::project`] over an owned
//! [`GroupSpec`] — what the verifier runs on its own `derive_spec`, the
//! independent check — and [`PerfModel::project_batch`] over the lanes of
//! the one synthesis sweep ([`crate::batch::synthesize_batch`]), which
//! the search, `check_and_score` and every allocation-free path use. Per
//! lane the two agree bit for bit.

use crate::batch::{BatchView, LANES};
use crate::metadata::ProgramInfo;
use crate::spec::{GroupSpec, PivotSpec};
use crate::synth::NO_SLOT;
use kfuse_gpu::{occupancy, LaunchConfig};
use kfuse_ir::KernelId;
use serde::{Deserialize, Serialize};

/// A codeless projection of a fused kernel's runtime.
pub trait PerfModel: Sync {
    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Projected runtime (seconds) of the new kernel described by `spec`.
    fn project(&self, info: &ProgramInfo, spec: &GroupSpec) -> f64;

    /// Projected runtimes for every populated lane of a synthesized
    /// [`BatchView`], written to `out[0..view.fill()]` — each lane must
    /// agree bit-for-bit with [`PerfModel::project`] on that lane's
    /// materialized spec. The default materializes each lane; the
    /// built-in models override it with allocation-free lane arithmetic
    /// over the batch's per-array aggregates.
    fn project_batch(&self, info: &ProgramInfo, view: &BatchView<'_>, out: &mut [f64; LANES]) {
        for (l, slot) in out.iter_mut().enumerate().take(view.fill()) {
            *slot = self.project(info, &view.lane_spec(l));
        }
    }
}

/// Projected GMEM traffic (bytes) of a fused kernel from member metadata:
/// produced pivots are never loaded, other pivots are fetched once (the
/// cheapest member's fetch), non-pivot arrays keep every member's loads;
/// all stores remain.
pub fn projected_fused_bytes(info: &ProgramInfo, spec: &GroupSpec) -> u64 {
    let metas: Vec<_> = spec.members.iter().map(|&k| info.meta(k)).collect();
    // Every member's use of every array, one run per array.
    let mut uses: Vec<_> = metas.iter().flat_map(|m| &m.uses).collect();
    uses.sort_unstable_by_key(|u| u.array);
    let mut elems = 0u64;
    for run in uses.chunk_by(|a, b| a.array == b.array) {
        let loads = || run.iter().filter(|u| u.reads).map(|u| u.load_elems);
        elems += run.iter().map(|u| u.store_elems).sum::<u64>();
        match spec.pivot(run[0].array) {
            Some(p) if p.produced => {} // produced on-chip: no loads
            Some(p) => {
                // One fetch of tile(+halo); approximate with the smallest
                // member fetch plus the halo ring.
                let base = loads().min().unwrap_or(0);
                let ring =
                    info.halo_area(u32::from(p.halo)) * u64::from(info.blocks) * u64::from(info.nz);
                elems += base + ring;
            }
            None => elems += loads().sum::<u64>(),
        }
    }
    // Computed halos widen the GMEM footprint of the producers' inputs:
    // specialized warps re-evaluate the producing statements on halo sites
    // and must fetch every input reference there (§II-D2).
    for p in &spec.pivots {
        if !(p.smem && p.produced && p.halo > 0) {
            continue;
        }
        let ring = info.halo_area(u32::from(p.halo)) * u64::from(info.blocks) * u64::from(info.nz);
        for m in &metas {
            let Some(u) = m.use_of(p.array) else { continue };
            if !u.writes {
                continue;
            }
            // Each input the producer reads is refetched on the ring, once
            // per distinct read position.
            let input_refs: u64 = m
                .uses
                .iter()
                .filter(|i| i.reads && i.array != p.array)
                .map(|i| u64::from(i.thread_load))
                .sum();
            elems += ring * input_refs;
        }
    }
    elems * info.elem_bytes()
}

/// [`projected_fused_bytes`] for every lane of a batch: the same integer
/// per lane, with no allocation. Per-array load/store aggregates come
/// from the sweep's lane columns, and the per-pivot member×use rescans of
/// the halo-widening term collapse into the `write_refs` per-array
/// aggregate gathered during the aggregation sweep (an exact `u64`
/// distribution of `ring` over the same term multiset).
fn projected_fused_bytes_batch(info: &ProgramInfo, view: &BatchView<'_>) -> [u64; LANES] {
    let t = view.tables;
    let grid = u64::from(info.blocks) * u64::from(info.nz);
    let fill = view.fill();
    let mut elems = [0u64; LANES];
    for &cu in view.touched {
        let c = cu as usize;
        // Walk set lane bits only (most columns belong to one or two
        // lanes); each lane's accumulator still sums its columns in
        // touched-ascending order, so the totals are unchanged.
        let a = &view.agg[c];
        let sm = &view.sums[c];
        let mut lm = view.lane_mask[c];
        while lm != 0 {
            let l = lm.trailing_zeros() as usize;
            lm &= lm - 1;
            let e = &mut elems[l];
            *e += sm.store_sum[l];
            let slot = a.pivot_slot[l];
            if slot == NO_SLOT {
                *e += sm.load_sum[l];
                continue;
            }
            let p = &view.pivots(l)[slot as usize];
            if p.produced {
                continue; // produced on-chip: no loads
            }
            // One fetch of tile(+halo); approximate with the smallest
            // member fetch plus the halo ring.
            let base = if a.max_reader1[l] > 0 {
                sm.load_min[l]
            } else {
                0
            };
            *e += base + info.halo_area(u32::from(p.halo)) * grid;
        }
    }
    // Computed halos widen the GMEM footprint of the producers' inputs
    // (§II-D2): ring × Σ over writers of (read refs − own pivot read),
    // the sum pre-aggregated per array.
    for (l, e) in elems.iter_mut().enumerate().take(fill) {
        for p in view.pivots(l) {
            if !(p.smem && p.produced && p.halo > 0) {
                continue;
            }
            let ring = info.halo_area(u32::from(p.halo)) * grid;
            let pc = t.compact[p.array.index()] as usize;
            *e += ring * view.sums[pc].write_refs[l];
        }
    }
    let eb = info.elem_bytes();
    elems.map(|e| e * eb)
}

/// [`projected_smem_bytes_moved`] for every lane of a batch: the
/// per-pivot member scan becomes one multiply against the `read_tl`
/// per-array aggregate (exact `u64` distribution of `sites · elem`).
fn projected_smem_bytes_moved_batch(info: &ProgramInfo, view: &BatchView<'_>) -> [u64; LANES] {
    let t = view.tables;
    let elem = info.elem_bytes();
    let blocks = u64::from(info.blocks);
    let nz = u64::from(info.nz);
    let sites = blocks * info.tile_area(0) * nz;
    let mut bytes = [0u64; LANES];
    for (l, b) in bytes.iter_mut().enumerate().take(view.fill()) {
        for p in view.pivots(l) {
            if !p.smem {
                continue;
            }
            let tile = blocks * info.tile_area(u32::from(p.halo)) * nz;
            let pc = t.compact[p.array.index()] as usize;
            // Fill (loaded) or produced write, plus one SMEM access per
            // thread-load reference per site for staged reads.
            *b += tile * elem + view.sums[pc].read_tl[l] * sites * elem;
        }
    }
    bytes
}

/// Shared Roofline arithmetic: identical float sequence for the spec and
/// lane paths.
fn roofline_time(info: &ProgramInfo, bytes: u64, flops: u64) -> f64 {
    let t_mem = bytes as f64 / (info.gpu.gmem_bw_gbps * 1e9);
    let t_cmp = flops as f64 / (info.gpu.peak_gflops * 1e9);
    t_mem.max(t_cmp)
}

/// The classic Roofline projection.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RooflineModel;

impl PerfModel for RooflineModel {
    fn name(&self) -> &'static str {
        "roofline"
    }

    fn project(&self, info: &ProgramInfo, spec: &GroupSpec) -> f64 {
        if spec.members.len() == 1 {
            return info.meta(spec.members[0]).runtime_s;
        }
        roofline_time(info, projected_fused_bytes(info, spec), spec.flops)
    }

    fn project_batch(&self, info: &ProgramInfo, view: &BatchView<'_>, out: &mut [f64; LANES]) {
        let bytes = projected_fused_bytes_batch(info, view);
        for (l, o) in out.iter_mut().enumerate().take(view.fill()) {
            let members = view.members(l);
            *o = if members.len() == 1 {
                info.meta(members[0]).runtime_s
            } else {
                roofline_time(info, bytes[l], view.flops(l))
            };
        }
    }
}

/// The empirical "simple model": original sum minus measured shared-array
/// access time.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SimpleModel;

impl PerfModel for SimpleModel {
    fn name(&self) -> &'static str {
        "simple"
    }

    fn project(&self, info: &ProgramInfo, spec: &GroupSpec) -> f64 {
        simple_time(info, &spec.members, &spec.pivots)
    }

    fn project_batch(&self, info: &ProgramInfo, view: &BatchView<'_>, out: &mut [f64; LANES]) {
        for (l, o) in out.iter_mut().enumerate().take(view.fill()) {
            *o = simple_time(info, view.members(l), view.pivots(l));
        }
    }
}

/// The simple model's arithmetic over (members, pivots) slices — both the
/// spec and the lane path run this exact float sequence (member-order sum,
/// pivot-major/member-minor savings accumulation).
fn simple_time(info: &ProgramInfo, members: &[KernelId], pivots: &[PivotSpec]) -> f64 {
    if members.len() == 1 {
        return info.meta(members[0]).runtime_s;
    }
    let original_sum: f64 = members.iter().map(|&k| info.meta(k).runtime_s).sum();
    let elem = info.elem_bytes() as f64;

    let mut saved = 0.0f64;
    for p in pivots {
        // Members whose GMEM loads of the pivot are eliminated: every
        // reader of a produced pivot, every reader but the first
        // otherwise.
        let mut first_kept = !p.produced;
        for &k in members {
            let m = info.meta(k);
            let Some(u) = m.use_of(p.array) else { continue };
            if !u.reads || u.load_elems == 0 {
                continue;
            }
            if first_kept {
                first_kept = false;
                continue;
            }
            if m.effective_bw > 0.0 {
                saved += (u.load_elems as f64 * elem) / m.effective_bw;
            }
        }
    }
    (original_sum - saved).max(0.0)
}

/// The paper's proposed codeless upper-bound projection (Eqs. 2–10).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProposedModel {
    /// Empirical register-reuse factor (Eq. 4): 1/max(ThrLD) ≤ RegFac ≤ 1.
    pub reg_fac: f64,
}

impl Default for ProposedModel {
    fn default() -> Self {
        ProposedModel {
            reg_fac: crate::spec::REG_FAC,
        }
    }
}

/// Intermediate quantities of the proposed projection, exposed for the
/// model-accuracy experiments (Fig. 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProposedBreakdown {
    /// Active blocks per SMX of the projected new kernel (from Eq. 6
    /// registers and Eq. 7 SMEM demand).
    pub blocks_smx: u32,
    /// Active warps per SMX.
    pub active_warps: u32,
    /// SMEM blocking factor `B_Sh` (Eq. 8), reported verbatim.
    pub b_sh: f64,
    /// Effective blocking `B_eff` (§IV-B), with the grid normalized to the
    /// resident wave (see module docs on the thread-per-site adaptation).
    pub b_eff: f64,
    /// Bandwidth-bound performance `P_MemBound` in GFLOPS (Eq. 9).
    pub p_mem_bound_gflops: f64,
    /// Projected GMEM bytes of the new kernel.
    pub bytes: u64,
    /// Projected runtime bound in seconds.
    pub t_pro: f64,
}

impl ProposedModel {
    /// Full breakdown of the projection for `spec`.
    ///
    /// The bound follows the paper's pipeline — project the fused kernel's
    /// register (Eq. 6) and SMEM (Eq. 7) demand from metadata, recompute
    /// `Blocks_SMX`, and derive the bandwidth-bound performance — with one
    /// adaptation for this reproduction's thread-per-site launch mapping:
    /// the paper's Eq. 8/9 normalize by the *resident* grid (their worked
    /// example has B = 64 blocks, all resident at once); with large grids
    /// the projected active-warp count drives a latency-hiding factor
    /// instead, which is exactly the "ability of hiding the latency"
    /// (§IV) the bound is designed to capture. The literal `B_Sh`/`B_eff`
    /// quantities are still computed (resident-wave-normalized) and
    /// reported for the Fig. 6 diagnostics.
    pub fn breakdown(&self, info: &ProgramInfo, spec: &GroupSpec) -> ProposedBreakdown {
        breakdown_parts(
            info,
            projected_fused_bytes(info, spec),
            SpecScalars {
                smem_bytes: spec.smem_bytes,
                projected_regs: spec.projected_regs,
                flops: spec.flops,
                halo_bytes: spec.halo_bytes,
                active_threads: spec.active_threads,
                n_smem_pivots: spec.pivots.iter().filter(|p| p.smem).count(),
                barriers: spec.barrier_count(),
            },
            || projected_smem_bytes_moved(info, spec),
        )
    }
}

/// The scalar columns of a synthesized spec that the proposed projection
/// consumes, bundled so the spec and lane entry points drive one shared
/// float sequence.
struct SpecScalars {
    smem_bytes: u64,
    projected_regs: u32,
    flops: u64,
    halo_bytes: u64,
    active_threads: u32,
    n_smem_pivots: usize,
    barriers: u32,
}

/// Eqs. 6–10 arithmetic shared by [`ProposedModel::breakdown`] and the
/// proposed model's `project_batch`. `smem_moved` is lazy so the
/// `blocks_smx == 0` early return skips the staging-traffic sweep.
fn breakdown_parts(
    info: &ProgramInfo,
    bytes: u64,
    s: SpecScalars,
    smem_moved: impl FnOnce() -> u64,
) -> ProposedBreakdown {
    let gpu = &info.gpu;
    let elem = info.elem_bytes();

    // Occupancy of the projected new kernel under Eq. 6 registers and
    // Eq. 7 SMEM (with padding, already folded into smem_bytes).
    let regs = s.projected_regs.min(gpu.max_regs_per_thread);
    let launch = LaunchConfig::new(info.blocks, info.threads);
    let occ = occupancy(gpu, &launch, regs, s.smem_bytes as u32);
    let blocks_smx = occ.active_blocks_per_smx;

    if blocks_smx == 0 {
        return ProposedBreakdown {
            blocks_smx,
            active_warps: 0,
            b_sh: 0.0,
            b_eff: 0.0,
            p_mem_bound_gflops: 0.0,
            bytes,
            t_pro: f64::INFINITY,
        };
    }

    // c · H_TH: halo bookkeeping per thread (Eqs. 4–5).
    let c_h_th = if s.halo_bytes > 0 {
        (s.halo_bytes).div_ceil(u64::from(info.threads).max(1) * elem) as f64
    } else {
        0.0
    };

    // Eq. 8: B_Sh = T_B · Blocks_SMX / ((1 + c·H_TH) · |ShrLst|).
    let n_shr = s.n_smem_pivots.max(1) as f64;
    let b_sh = f64::from(s.active_threads) * f64::from(blocks_smx) / ((1.0 + c_h_th) * n_shr);

    // §IV-B: B_eff = B_Sh · SMX / (Thr · B), B capped at the resident
    // wave (blocks beyond one wave do not dilute blocking efficiency).
    let resident = f64::from(blocks_smx) * f64::from(gpu.smx_count);
    let b_grid = f64::from(info.blocks).min(resident).max(1.0);
    let b_eff = b_sh * f64::from(gpu.smx_count) / (f64::from(info.threads) * b_grid);

    // Eq. 9: P_MemBound = B_eff · GMEM_BW / elem_bytes  [GFLOPS].
    let p_mem_bound = b_eff * gpu.gmem_bw_gbps / elem as f64;

    // Practical runtime bound: projected traffic at the bandwidth the
    // projected warp concurrency can sustain, against projected
    // compute (incl. redundant halo FLOPs) and staging traffic, plus
    // barrier and launch overheads. All inputs are metadata-derived.
    // Residency is the occupancy cap clamped by the actual grid (small
    // problems cannot fill the device).
    let warps_per_block = (f64::from(info.threads) / f64::from(gpu.warp_size)).ceil();
    let resident_blocks =
        f64::from(blocks_smx).min((f64::from(info.blocks) / f64::from(gpu.smx_count)).ceil());
    let hide = gpu.latency_hiding_factor(resident_blocks * warps_per_block);
    let t_mem = bytes as f64 / (gpu.gmem_bw_gbps * 1e9 * hide.max(1e-6));
    let t_cmp = s.flops as f64 / (gpu.peak_gflops * 1e9 * hide.max(0.05));
    let t_smem = smem_moved() as f64 / (gpu.smem_bw_gbps * 1e9);
    let waves = (f64::from(info.blocks) / resident).ceil().max(1.0);
    let t_barrier = f64::from(s.barriers) * f64::from(info.nz) * gpu.barrier_ns * waves * 1e-9;
    let t_launch = gpu.launch_overhead_us * 1e-6;
    let t_pro = t_mem.max(t_cmp).max(t_smem) + t_barrier + t_launch;

    ProposedBreakdown {
        blocks_smx,
        active_warps: occ.active_warps_per_smx,
        b_sh,
        b_eff,
        p_mem_bound_gflops: p_mem_bound,
        bytes,
        t_pro,
    }
}

/// Projected SMEM traffic of the fused kernel from metadata: tile fills
/// for loaded pivots, one SMEM access per thread-load reference per site
/// for staged reads, tile writes for produced pivots.
fn projected_smem_bytes_moved(info: &ProgramInfo, spec: &GroupSpec) -> u64 {
    let elem = info.elem_bytes();
    let blocks = u64::from(info.blocks);
    let nz = u64::from(info.nz);
    let sites = blocks * info.tile_area(0) * nz;
    let mut bytes = 0u64;
    for p in &spec.pivots {
        if !p.smem {
            continue;
        }
        let tile = blocks * info.tile_area(u32::from(p.halo)) * nz;
        // Fill (loaded pivots) or produced write (produced pivots).
        bytes += tile * elem;
        for &m in &spec.members {
            if let Some(u) = info.meta(m).use_of(p.array) {
                if u.reads {
                    bytes += u64::from(u.thread_load) * sites * elem;
                }
            }
        }
    }
    bytes
}

impl PerfModel for ProposedModel {
    fn name(&self) -> &'static str {
        "proposed"
    }

    fn project(&self, info: &ProgramInfo, spec: &GroupSpec) -> f64 {
        if spec.members.len() == 1 {
            return info.meta(spec.members[0]).runtime_s;
        }
        self.breakdown(info, spec).t_pro
    }

    fn project_batch(&self, info: &ProgramInfo, view: &BatchView<'_>, out: &mut [f64; LANES]) {
        let bytes = projected_fused_bytes_batch(info, view);
        let smem = projected_smem_bytes_moved_batch(info, view);
        for (l, o) in out.iter_mut().enumerate().take(view.fill()) {
            let members = view.members(l);
            if members.len() == 1 {
                *o = info.meta(members[0]).runtime_s;
                continue;
            }
            // The same scalar bundle as `breakdown`, fed through the
            // shared Eq. 6–10 float sequence. `smem` is precomputed for
            // all lanes; `breakdown_parts` ignores it on the
            // `blocks_smx == 0` early return.
            *o = breakdown_parts(
                info,
                bytes[l],
                SpecScalars {
                    smem_bytes: view.smem_bytes(l),
                    projected_regs: view.projected_regs(l),
                    flops: view.flops(l),
                    halo_bytes: view.halo_bytes(l),
                    active_threads: view.active_threads(l),
                    n_smem_pivots: view.pivots(l).iter().filter(|p| p.smem).count(),
                    barriers: view.barrier_count(l),
                },
                || smem[l],
            )
            .t_pro;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::{Expr, KernelId, Program};

    /// Two kernels sharing a heavy read array A; k1 also consumes k0's
    /// output at a radius (complex fusion when grouped).
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [256, 128, 16]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::load(a, Offset::new(-1, 0, 0)))
            .build();
        pb.kernel("k1")
            .write(
                c,
                Expr::load(b, Offset::new(1, 0, 0)) + Expr::at(a) * Expr::lit(0.5),
            )
            .build();
        pb.build()
    }

    fn setup() -> (ProgramInfo, GroupSpec) {
        let p = program();
        let info = ProgramInfo::extract(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let spec = GroupSpec::synthesize(&info, &[KernelId(0), KernelId(1)]);
        (info, spec)
    }

    #[test]
    fn all_models_return_measured_time_for_singletons() {
        let (info, _) = setup();
        let spec = GroupSpec::synthesize(&info, &[KernelId(0)]);
        let t = info.kernels[0].runtime_s;
        for m in models() {
            assert!((m.project(&info, &spec) - t).abs() < 1e-18, "{}", m.name());
        }
    }

    fn models() -> Vec<Box<dyn PerfModel>> {
        vec![
            Box::new(RooflineModel),
            Box::new(SimpleModel),
            Box::new(ProposedModel::default()),
        ]
    }

    #[test]
    fn roofline_is_most_optimistic() {
        let (info, spec) = setup();
        let roof = RooflineModel.project(&info, &spec);
        let simple = SimpleModel.project(&info, &spec);
        let proposed = ProposedModel::default().project(&info, &spec);
        assert!(roof > 0.0 && simple > 0.0 && proposed > 0.0);
        // Roofline is the most optimistic bound (small tolerance: its
        // byte projection includes halo widening that the empirical simple
        // model prices through measured times instead).
        assert!(
            roof <= simple * 1.05,
            "roofline ({roof}) must not materially exceed the simple model ({simple})"
        );
        assert!(
            roof <= proposed,
            "roofline ({roof}) must be the most optimistic bound ({proposed})"
        );
    }

    #[test]
    fn simple_model_never_exceeds_original_sum() {
        let (info, spec) = setup();
        let simple = SimpleModel.project(&info, &spec);
        let sum = info.original_sum(&spec.members);
        assert!(simple <= sum);
        assert!(simple > 0.0);
    }

    #[test]
    fn projected_bytes_shrink_with_fusion() {
        let (info, spec) = setup();
        let fused = projected_fused_bytes(&info, &spec);
        let original: u64 = spec
            .members
            .iter()
            .map(|&k| info.meta(k).traffic_elems * info.elem_bytes())
            .sum();
        assert!(
            fused < original,
            "fusion must reduce projected traffic: {fused} vs {original}"
        );
    }

    #[test]
    fn proposed_breakdown_is_consistent() {
        let (info, spec) = setup();
        let bd = ProposedModel::default().breakdown(&info, &spec);
        assert!(bd.blocks_smx >= 1);
        assert!(bd.b_sh > 0.0);
        assert!(bd.b_eff > 0.0);
        assert!(bd.p_mem_bound_gflops > 0.0);
        assert!(bd.t_pro.is_finite() && bd.t_pro > 0.0);
        // The bound can never beat ideal bandwidth on the projected bytes.
        let ideal = bd.bytes as f64 / (info.gpu.gmem_bw_gbps * 1e9);
        assert!(bd.t_pro >= ideal);
    }

    #[test]
    fn smem_pressure_degrades_proposed_projection() {
        let (info, spec) = setup();
        let t_ok = ProposedModel::default().breakdown(&info, &spec).t_pro;
        let mut heavy = spec.clone();
        // Same kernel, but pretend the fusion needs 40 KiB of SMEM.
        heavy.smem_bytes = 40 * 1024;
        let t_heavy = ProposedModel::default().breakdown(&info, &heavy).t_pro;
        assert!(
            t_heavy > t_ok,
            "SMEM pressure must slow the projection: {t_heavy} vs {t_ok}"
        );
    }

    #[test]
    fn infeasible_occupancy_projects_infinite() {
        let (info, spec) = setup();
        let mut impossible = spec;
        impossible.smem_bytes = 49 * 1024; // > 48 KiB Kepler capacity
        let bd = ProposedModel::default().breakdown(&info, &impossible);
        assert_eq!(bd.blocks_smx, 0);
        assert!(bd.t_pro.is_infinite());
    }

    #[test]
    fn paper_worked_example_b_sh_and_p_membound() {
        // §IV-B worked example: T_B=86, Thr=128, Blocks_SMX=32, B=64,
        // 2 shared arrays, one halo layer with H_TH=1:
        // B_Sh = 86·32/(2·2) = 688; P = 688·14·202/(8·128·64) ≈ 29.68.
        let b_sh: f64 = 86.0 * 32.0 / ((1.0 + 1.0) * 2.0);
        assert!((b_sh - 688.0).abs() < 1e-9);
        let b_eff: f64 = b_sh * 14.0 / (128.0 * 64.0);
        let p: f64 = b_eff * 202.0 / 8.0;
        assert!((p - 29.68).abs() < 0.05);
        // The paper reports this as 75.8% of the 39.39 GFLOPS Roofline peak.
        assert!((p / 39.39 - 0.7536).abs() < 0.01);
    }
}
