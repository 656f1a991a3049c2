//! The kernel fusion transformation (§II-D).
//!
//! Given a validated [`FusionPlan`], rewrite the program: every multi-member
//! group becomes one new kernel whose segments are the members' bodies in
//! invocation order, with barriers before segments that consume produced
//! pivots and SMEM/register staging directives from the group's
//! [`GroupSpec`]. The paper performed this step manually; automating it is
//! what lets the test suite *execute* fused programs and verify semantics.
//!
//! New kernels are emitted in a topological order of the plan's
//! *condensation* (the DAG over groups); [`condensation_order`] also serves
//! as the final legality check — two individually path-closed groups can
//! still be mutually ordered (a cycle in the condensation), which makes the
//! plan unrealizable.

use crate::exec_order::{ExecOrderGraph, SuccStamps};
use crate::metadata::ProgramInfo;
use crate::plan::FusionPlan;
use crate::spec::GroupSpec;
use kfuse_ir::{Kernel, KernelId, Program, Staging, StagingMedium};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Why a plan could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseError {
    /// The condensation of the plan over the exec-order DAG has a cycle:
    /// the two group indices are mutually ordered.
    OrderCycle(usize, usize),
    /// A group references an unknown kernel.
    UnknownKernel(KernelId),
    /// The plan leaves a kernel out of every group.
    MissingKernel(KernelId),
    /// The plan lists a kernel more than once.
    DuplicateKernel(KernelId),
    /// The group at this index has no members.
    EmptyGroup(usize),
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::OrderCycle(a, b) => {
                write!(
                    f,
                    "groups {a} and {b} are mutually ordered (condensation cycle)"
                )
            }
            FuseError::UnknownKernel(k) => write!(f, "plan references unknown kernel {k}"),
            FuseError::MissingKernel(k) => write!(f, "plan leaves out kernel {k}"),
            FuseError::DuplicateKernel(k) => write!(f, "plan lists kernel {k} twice"),
            FuseError::EmptyGroup(gi) => write!(f, "group {gi} is empty"),
        }
    }
}

impl std::error::Error for FuseError {}

/// Kernel groups that [`condensation_order_with`] can order: a
/// [`FusionPlan`], or a search representation that never materializes
/// one. Group `i`'s first member keys Kahn's ready heap, so in plan normal
/// form (members sorted, groups sorted by first member) the order follows
/// host invocation order.
pub trait Grouping {
    /// Number of groups.
    fn group_count(&self) -> usize;
    /// Members of group `i`, for `i < group_count()`.
    fn group(&self, i: usize) -> &[KernelId];
}

impl Grouping for FusionPlan {
    fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn group(&self, i: usize) -> &[KernelId] {
        &self.groups[i]
    }
}

/// Reusable buffers for [`condensation_order_with`].
///
/// The HGGA evaluates the condensation of thousands of candidate plans per
/// second; rebuilding the kernel→group map and the Kahn queue from scratch
/// each time made the check allocation-bound. A scratch kept per solver
/// amortizes every buffer across calls: after warm-up the check performs
/// no heap allocation at all on cycle-free plans whose group count does
/// not exceed an earlier call's.
#[derive(Debug, Default)]
pub struct CondensationScratch {
    /// Dense kernel index → group index map (`u32::MAX` = unassigned).
    group_of: Vec<u32>,
    /// Per-group successor lists; lists past the current group count keep
    /// their capacity for a later call.
    succ: Vec<Vec<u32>>,
    /// Dedup marks for building `succ`.
    seen: SuccStamps,
    /// Per-group in-degree.
    indeg: Vec<u32>,
    /// Kahn ready-queue, keyed by the group's first kernel id.
    ready: BinaryHeap<Reverse<(KernelId, u32)>>,
    /// Output order (group indices).
    order: Vec<usize>,
}

impl CondensationScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Topologically order the plan's groups over the condensed exec-order
/// DAG. Returns group indices, or the cycle that makes the plan invalid.
///
/// Allocating convenience wrapper over [`condensation_order_with`]; hot
/// paths should hold a [`CondensationScratch`] and call that directly.
pub fn condensation_order(
    plan: &FusionPlan,
    exec: &ExecOrderGraph,
) -> Result<Vec<usize>, FuseError> {
    let mut scratch = CondensationScratch::new();
    condensation_order_with(plan, exec, &mut scratch)?;
    Ok(std::mem::take(&mut scratch.order))
}

/// [`condensation_order`] over any [`Grouping`], against caller-owned
/// scratch buffers. The returned slice borrows `scratch.order` and is
/// valid until the next call.
///
/// The groups must partition the kernels of `exec` into non-empty groups:
/// an empty group, or an unknown, missing or repeated kernel, is an error
/// naming it. On a cycle,
/// [`FuseError::OrderCycle`]'s first index is the first group, in
/// grouping order, that Kahn's pass leaves stuck.
pub fn condensation_order_with<'s, G: Grouping + ?Sized>(
    groups: &G,
    exec: &ExecOrderGraph,
    scratch: &'s mut CondensationScratch,
) -> Result<&'s [usize], FuseError> {
    const UNASSIGNED: u32 = u32::MAX;
    let n_groups = groups.group_count();
    let n_kernels = exec.len();

    scratch.group_of.clear();
    scratch.group_of.resize(n_kernels, UNASSIGNED);
    let mut assigned = 0;
    for gi in 0..n_groups {
        let g = groups.group(gi);
        if g.is_empty() {
            return Err(FuseError::EmptyGroup(gi));
        }
        for &k in g {
            let slot = scratch
                .group_of
                .get_mut(k.index())
                .ok_or(FuseError::UnknownKernel(k))?;
            if *slot != UNASSIGNED {
                return Err(FuseError::DuplicateKernel(k));
            }
            *slot = gi as u32;
        }
        assigned += g.len();
    }
    if assigned != n_kernels {
        // No kernel is unknown or repeated, so one is unassigned.
        let k = scratch.group_of.iter().position(|&g| g == UNASSIGNED);
        let k = k.expect("fewer assignments than kernels leave one unassigned");
        return Err(FuseError::MissingKernel(KernelId(k as u32)));
    }

    // Edges between groups from direct kernel edges.
    if scratch.succ.len() < n_groups {
        scratch.succ.resize_with(n_groups, Vec::new);
    }
    scratch.indeg.clear();
    scratch.indeg.resize(n_groups, 0);
    for gi in 0..n_groups {
        let succ = &mut scratch.succ[gi];
        exec.group_succs_into(
            groups.group(gi),
            &scratch.group_of,
            gi as u32,
            &mut scratch.seen,
            succ,
        );
        for &gj in succ.iter() {
            scratch.indeg[gj as usize] += 1;
        }
    }

    // Kahn with a min-heap keyed by the group's first kernel id, so the
    // output order is deterministic and close to host invocation order.
    scratch.ready.clear();
    for (gi, &d) in scratch.indeg.iter().enumerate() {
        if d == 0 {
            scratch
                .ready
                .push(Reverse((groups.group(gi)[0], gi as u32)));
        }
    }
    scratch.order.clear();
    scratch.order.reserve(n_groups);
    while let Some(Reverse((_, gi))) = scratch.ready.pop() {
        scratch.order.push(gi as usize);
        for &gj in &scratch.succ[gi as usize] {
            let d = &mut scratch.indeg[gj as usize];
            *d -= 1;
            if *d == 0 {
                scratch
                    .ready
                    .push(Reverse((groups.group(gj as usize)[0], gj)));
            }
        }
    }
    if scratch.order.len() != n_groups {
        // Report two groups stuck in the cycle for the diagnostic.
        let mut stuck = scratch
            .indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d > 0)
            .map(|(gi, _)| gi);
        let a = stuck.next().unwrap_or(0);
        let b = stuck.next().unwrap_or(a);
        return Err(FuseError::OrderCycle(a, b));
    }
    Ok(&scratch.order)
}

/// Apply `plan` to `p`, producing the fused program.
///
/// `specs[i]` must be the synthesized spec of `plan.groups[i]` (as returned
/// by [`crate::plan::PlanContext::validate`]).
pub fn apply_plan(
    p: &Program,
    info: &ProgramInfo,
    exec: &ExecOrderGraph,
    plan: &FusionPlan,
    specs: &[GroupSpec],
) -> Result<Program, FuseError> {
    assert_eq!(plan.groups.len(), specs.len(), "one spec per group");
    let order = condensation_order(plan, exec)?;
    let _ = info;

    let mut out = p.clone();
    out.name = format!("{} (fused)", p.name);
    out.kernels.clear();
    out.host_syncs.clear();
    out.streams.clear();
    let epochs = p.epochs();
    let mut prev_epoch: Option<u32> = None;

    for &gi in &order {
        let group = &plan.groups[gi];
        let spec = &specs[gi];
        let new_id = KernelId(out.kernels.len() as u32);
        let epoch = epochs[group[0].index()];
        if let Some(pe) = prev_epoch {
            if epoch != pe {
                out.host_syncs.push(new_id.0);
            }
        }
        prev_epoch = Some(epoch);
        // Groups never span streams (checked by the plan constraints).
        out.streams.push(p.stream_of(group[0]));
        if group.len() == 1 {
            // Unfused kernel: copy verbatim, renumbering.
            let mut k = p.kernel(group[0]).clone();
            k.id = new_id;
            out.kernels.push(k);
            continue;
        }

        // Concatenate member segments in spec order with barrier flags.
        let mut segments = Vec::new();
        for (mi, &member) in spec.members.iter().enumerate() {
            let orig = p.kernel(member);
            for (si, seg) in orig.segments.iter().enumerate() {
                let mut seg = seg.clone();
                // The group-level barrier lands before the member's first
                // segment; existing intra-member barriers are preserved.
                if si == 0 {
                    seg.barrier_before = spec.barrier_before[mi];
                }
                segments.push(seg);
            }
        }

        // Staging: group pivots merged with members' own staging (by max
        // halo; SMEM wins over register).
        let mut staging: HashMap<kfuse_ir::ArrayId, Staging> = HashMap::new();
        for pv in &spec.pivots {
            staging.insert(
                pv.array,
                Staging {
                    array: pv.array,
                    halo: pv.halo,
                    medium: if pv.smem {
                        StagingMedium::Smem
                    } else if pv.ro_cache {
                        StagingMedium::ReadOnlyCache
                    } else {
                        StagingMedium::Register
                    },
                },
            );
        }
        for &member in &spec.members {
            for st in &p.kernel(member).staging {
                staging
                    .entry(st.array)
                    .and_modify(|e| {
                        e.halo = e.halo.max(st.halo);
                        if st.medium == StagingMedium::Smem {
                            e.medium = StagingMedium::Smem;
                        }
                    })
                    .or_insert(*st);
            }
        }
        let mut staging: Vec<Staging> = staging.into_values().collect();
        staging.sort_by_key(|s| s.array);

        let name = format!(
            "F[{}]",
            spec.members
                .iter()
                .map(|m| p.kernel(*m).name.clone())
                .collect::<Vec<_>>()
                .join("+")
        );
        out.kernels.push(Kernel {
            id: new_id,
            name,
            segments,
            staging,
        });
    }

    Ok(out)
}

/// Convenience: number of segments in a fused kernel built from `group`.
pub fn segment_count(p: &Program, group: &[KernelId]) -> usize {
    group.iter().map(|&k| p.kernel(k).segments.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::DependencyGraph;
    use crate::kinship::ShareGraph;
    use crate::plan::PlanContext;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::Expr;
    use kfuse_sim::{run_block_mode, run_reference, DeviceState};

    /// k0: B = A+1; k1: C = B[+1]·2; k2: D = C + B; k3: E = A (indep).
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [64, 32, 4]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        let e = pb.array("E");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::load(b, Offset::new(1, 0, 0)) * Expr::lit(2.0))
            .build();
        pb.kernel("k2").write(d, Expr::at(c) + Expr::at(b)).build();
        pb.kernel("k3").write(e, Expr::at(a)).build();
        pb.build()
    }

    fn context(p: &Program) -> PlanContext {
        let info = ProgramInfo::extract(p, &GpuSpec::k20x(), FpPrecision::Double);
        let exec = ExecOrderGraph::build(p);
        let dep = DependencyGraph::build(p);
        let share = ShareGraph::build(&dep, p.kernels.len());
        PlanContext::new(info, exec, share)
    }

    fn fuse(p: &Program, plan: &FusionPlan) -> Program {
        let ctx = context(p);
        let specs = ctx.validate(plan).expect("plan must validate");
        apply_plan(p, &ctx.info, &ctx.exec, plan, &specs).expect("plan must apply")
    }

    #[test]
    fn fused_program_structure() {
        let p = program();
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1), KernelId(2)],
            vec![KernelId(3)],
        ]);
        let f = fuse(&p, &plan);
        assert_eq!(f.kernels.len(), 2);
        assert!(f.validate().is_ok());
        let fused = &f.kernels[0];
        assert!(fused.is_fused());
        assert_eq!(fused.segments.len(), 3);
        assert_eq!(fused.sources(), vec![KernelId(0), KernelId(1), KernelId(2)]);
        // B is a produced pivot read at radius by k1 → SMEM with halo,
        // barrier before k1's segment.
        let st_b = fused
            .staging
            .iter()
            .find(|s| s.array == kfuse_ir::ArrayId(1))
            .expect("B staged");
        assert_eq!(st_b.medium, StagingMedium::Smem);
        assert!(st_b.halo >= 1);
        assert!(fused.segments[1].barrier_before);
    }

    #[test]
    fn fused_program_preserves_semantics() {
        let p = program();
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1), KernelId(2)],
            vec![KernelId(3)],
        ]);
        let f = fuse(&p, &plan);

        let mut s_ref = DeviceState::default_init(&p);
        run_reference(&p, &mut s_ref);
        let mut s_fused = DeviceState::default_init(&f);
        run_block_mode(&f, &mut s_fused);

        for a in 0..p.arrays.len() {
            let a = kfuse_ir::ArrayId(a as u32);
            assert_eq!(
                s_ref.max_abs_diff(&s_fused, a),
                0.0,
                "array {a} diverged after fusion"
            );
        }
    }

    #[test]
    fn identity_plan_is_a_no_op_modulo_ids() {
        let p = program();
        let plan = FusionPlan::identity(4);
        let f = fuse(&p, &plan);
        assert_eq!(f.kernels.len(), 4);
        for (orig, new) in p.kernels.iter().zip(&f.kernels) {
            assert_eq!(orig.segments, new.segments);
        }
    }

    #[test]
    fn condensation_cycle_is_rejected() {
        // k0 → k1, k2 → k3, and cross edges k0 → k3', k2 → k1' such that
        // groups {k0,k3} and {k1,k2}... construct directly:
        // a0: k0 writes X, k1 reads X (k0→k1)
        // a1: k2 writes Y, k3 reads Y (k2→k3)
        // a2: k0 writes Z, k3 reads Z (k0→k3)  [wait, need cross pair]
        // Simplest mutual order: G1={k0,k3}, G2={k1,k2} with k0→k1 (X)
        // and k2→k3 (Y): G1→G2 via k0→k1? No: k0∈G1, k1∈G2 → G1→G2;
        // k2∈G2, k3∈G1 → G2→G1. Cycle.
        let mut pb = ProgramBuilder::new("p", [64, 32, 4]);
        let x = pb.array("X");
        let y = pb.array("Y");
        let i0 = pb.array("I0");
        let i1 = pb.array("I1");
        let o0 = pb.array("O0");
        let o1 = pb.array("O1");
        pb.kernel("k0").write(x, Expr::at(i0)).build();
        pb.kernel("k1").write(o0, Expr::at(x)).build();
        pb.kernel("k2").write(y, Expr::at(i1)).build();
        pb.kernel("k3").write(o1, Expr::at(y)).build();
        let p = pb.build();
        let exec = ExecOrderGraph::build(&p);
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(3)],
            vec![KernelId(1), KernelId(2)],
        ]);
        assert!(matches!(
            condensation_order(&plan, &exec),
            Err(FuseError::OrderCycle(..))
        ));
    }

    #[test]
    fn a_plan_that_leaves_out_a_kernel_is_rejected() {
        // k1 follows k0 but sits in no group: nothing may index the
        // successor marks by the unassigned sentinel.
        let exec = ExecOrderGraph::build(&program());
        let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(2)], vec![KernelId(3)]]);
        assert_eq!(
            condensation_order(&plan, &exec),
            Err(FuseError::MissingKernel(KernelId(1)))
        );
    }

    #[test]
    fn a_plan_with_an_empty_group_is_rejected() {
        // Kahn's pass keys every ready group by its first member; an empty
        // group must be an error before that, not an index panic.
        let exec = ExecOrderGraph::build(&program());
        let g = |ks: &[u32]| ks.iter().map(|&k| KernelId(k)).collect::<Vec<_>>();
        let plan = FusionPlan {
            groups: vec![g(&[0, 1]), g(&[]), g(&[2]), g(&[3])],
        };
        assert_eq!(
            condensation_order(&plan, &exec),
            Err(FuseError::EmptyGroup(1))
        );
        assert_eq!(FuseError::EmptyGroup(1).to_string(), "group 1 is empty");
    }

    #[test]
    fn a_plan_that_lists_a_kernel_twice_is_rejected() {
        let exec = ExecOrderGraph::build(&program());
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1)],
            vec![KernelId(1), KernelId(2)],
            vec![KernelId(3)],
        ]);
        assert_eq!(
            condensation_order(&plan, &exec),
            Err(FuseError::DuplicateKernel(KernelId(1)))
        );
    }

    #[test]
    fn groups_emitted_in_dependency_order() {
        let p = program();
        let plan = FusionPlan::new(vec![
            vec![KernelId(1), KernelId(2)],
            vec![KernelId(0)],
            vec![KernelId(3)],
        ]);
        let f = fuse(&p, &plan);
        // k0 must precede the fused {k1,k2} kernel.
        let idx_k0 = f
            .kernels
            .iter()
            .position(|k| k.sources() == vec![KernelId(0)])
            .unwrap();
        let idx_f = f.kernels.iter().position(|k| k.is_fused()).unwrap();
        assert!(idx_k0 < idx_f);
        // And still compute the right thing.
        let mut s_ref = DeviceState::default_init(&p);
        run_reference(&p, &mut s_ref);
        let mut s_fused = DeviceState::default_init(&f);
        run_block_mode(&f, &mut s_fused);
        for a in 0..p.arrays.len() {
            let a = kfuse_ir::ArrayId(a as u32);
            assert_eq!(s_ref.max_abs_diff(&s_fused, a), 0.0);
        }
    }

    #[test]
    fn scratch_reuse_matches_allocating_path() {
        let p = program();
        let exec = ExecOrderGraph::build(&p);
        let plans = [
            FusionPlan::identity(4),
            FusionPlan::new(vec![
                vec![KernelId(0), KernelId(1), KernelId(2)],
                vec![KernelId(3)],
            ]),
            FusionPlan::new(vec![
                vec![KernelId(1), KernelId(2)],
                vec![KernelId(0)],
                vec![KernelId(3)],
            ]),
        ];
        // One scratch across plans with different group counts.
        let mut scratch = CondensationScratch::new();
        for plan in &plans {
            let with = condensation_order_with(plan, &exec, &mut scratch)
                .expect("feasible plan orders")
                .to_vec();
            let alloc = condensation_order(plan, &exec).unwrap();
            assert_eq!(with, alloc);
        }
        // Cycles are detected identically through the scratch path.
        let mut pb = ProgramBuilder::new("cyc", [64, 32, 4]);
        let x = pb.array("X");
        let y = pb.array("Y");
        let i0 = pb.array("I0");
        let i1 = pb.array("I1");
        let o0 = pb.array("O0");
        let o1 = pb.array("O1");
        pb.kernel("k0").write(x, Expr::at(i0)).build();
        pb.kernel("k1").write(o0, Expr::at(x)).build();
        pb.kernel("k2").write(y, Expr::at(i1)).build();
        pb.kernel("k3").write(o1, Expr::at(y)).build();
        let pc = pb.build();
        let exec_c = ExecOrderGraph::build(&pc);
        let cyc = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(3)],
            vec![KernelId(1), KernelId(2)],
        ]);
        assert!(matches!(
            condensation_order_with(&cyc, &exec_c, &mut scratch),
            Err(FuseError::OrderCycle(..))
        ));
        // And the scratch recovers for a subsequent feasible plan.
        assert!(condensation_order_with(&plans[1], &exec, &mut scratch).is_ok());
    }

    /// The condensation order as it was computed when successor summaries
    /// were sorted: per-group successor lists built with sort + dedup, then
    /// the same min-first-kernel Kahn pass.
    fn sorted_successor_order(
        plan: &FusionPlan,
        exec: &ExecOrderGraph,
    ) -> Result<Vec<usize>, (usize, usize)> {
        let n_groups = plan.groups.len();
        let mut group_of = vec![0u32; exec.len()];
        for (gi, g) in plan.groups.iter().enumerate() {
            for k in g {
                group_of[k.index()] = gi as u32;
            }
        }
        let succ: Vec<Vec<u32>> = (0..n_groups)
            .map(|gi| {
                let mut out: Vec<u32> = plan.groups[gi]
                    .iter()
                    .flat_map(|k| &exec.succs[k.index()])
                    .map(|s| group_of[s.index()])
                    .filter(|&g| g != gi as u32)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        let mut indeg = vec![0u32; n_groups];
        for &g in succ.iter().flatten() {
            indeg[g as usize] += 1;
        }
        let mut ready: BinaryHeap<Reverse<(KernelId, u32)>> = (0..n_groups)
            .filter(|&gi| indeg[gi] == 0)
            .map(|gi| Reverse((plan.groups[gi][0], gi as u32)))
            .collect();
        let mut order = Vec::new();
        while let Some(Reverse((_, gi))) = ready.pop() {
            order.push(gi as usize);
            for &gj in &succ[gi as usize] {
                indeg[gj as usize] -= 1;
                if indeg[gj as usize] == 0 {
                    ready.push(Reverse((plan.groups[gj as usize][0], gj)));
                }
            }
        }
        if order.len() == n_groups {
            return Ok(order);
        }
        let mut stuck = (0..n_groups).filter(|&gi| indeg[gi] > 0);
        let a = stuck.next().unwrap_or(0);
        Err((a, stuck.next().unwrap_or(a)))
    }

    #[test]
    fn unsorted_summaries_order_like_sorted_ones() {
        // 16 random DAG programs x 32 random label partitions = 512 plans,
        // the corpus shape of `tests/differential.rs` (this crate cannot
        // depend on the workload generator, so the programs are built
        // here): same order on acyclic plans, same stuck pair on cycles.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut scratch = CondensationScratch::new();
        let (mut plans, mut cyclic) = (0, 0);
        for case in 0..16 {
            let n = rng.gen_range(6..14usize);
            let mut pb = ProgramBuilder::new(format!("dag{case}"), [64, 16, 2]);
            let input = pb.array("IN");
            let mut produced = vec![input];
            for k in 0..n {
                let out = pb.array(format!("W{k}"));
                let a = produced[rng.gen_range(0..produced.len())];
                let b = produced[rng.gen_range(0..produced.len())];
                pb.kernel(format!("k{k}"))
                    .write(out, Expr::at(a) + Expr::at(b))
                    .build();
                produced.push(out);
            }
            let exec = ExecOrderGraph::build(&pb.build());
            for _ in 0..32 {
                let pool = n / 2 + 1;
                let mut buckets: Vec<Vec<KernelId>> = vec![Vec::new(); pool];
                for k in 0..n {
                    buckets[rng.gen_range(0..pool)].push(KernelId(k as u32));
                }
                buckets.retain(|b| !b.is_empty());
                let plan = FusionPlan::new(buckets);
                let got = condensation_order_with(&plan, &exec, &mut scratch)
                    .map(<[usize]>::to_vec)
                    .map_err(|e| match e {
                        FuseError::OrderCycle(a, b) => (a, b),
                        other => panic!("unexpected {other:?}"),
                    });
                assert_eq!(got, sorted_successor_order(&plan, &exec), "{plan:?}");
                plans += 1;
                cyclic += got.is_err() as usize;
            }
        }
        assert_eq!(plans, 512);
        assert!(cyclic > 0 && cyclic < plans, "{cyclic} of {plans} cyclic");
    }

    #[test]
    fn member_staging_is_merged() {
        let mut p = program();
        // Give k0 a pre-existing staging entry for A.
        p.kernels[0].staging.push(Staging {
            array: kfuse_ir::ArrayId(0),
            halo: 2,
            medium: StagingMedium::Smem,
        });
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1), KernelId(2)],
            vec![KernelId(3)],
        ]);
        let ctx = context(&p);
        let specs = ctx.validate(&plan).unwrap();
        let f = apply_plan(&p, &ctx.info, &ctx.exec, &plan, &specs).unwrap();
        let fused = &f.kernels[0];
        let st_a = fused
            .staging
            .iter()
            .find(|s| s.array == kfuse_ir::ArrayId(0))
            .expect("A staging preserved");
        assert_eq!(st_a.halo, 2);
    }
}
