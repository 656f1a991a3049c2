//! Fusion plans and the constraint system of Fig. 4.
//!
//! A [`FusionPlan`] is an m-partition of the original kernel set; the
//! [`PlanContext`] checks every constraint of the paper's canonical form:
//!
//! * (1.2)/(1.4) — partition validity (each kernel in exactly one group);
//! * (1.3) — path closure in the order-of-execution DAG;
//! * (1.5) — degree of kinship > 0 within every group;
//! * (1.6) — SMEM capacity per SMX;
//! * (1.7) — registers per thread;
//! * (1.1) — profitability: each fused kernel's projected runtime must
//!   beat its *original sum* (checked against a chosen [`PerfModel`]).

use crate::batch::{synthesize_batch, BatchScratch, BatchView, LANES};
use crate::exec_order::ExecOrderGraph;
use crate::fingerprint::ProgramIdentity;
use crate::fuse::{condensation_order_with, CondensationScratch};
use crate::kinship::ShareGraph;
use crate::metadata::ProgramInfo;
use crate::model::PerfModel;
use crate::spec::GroupSpec;
use crate::synth::SynthTables;
use crate::util::vec_bytes;
use kfuse_ir::KernelId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// An m-partition of the original kernels into prospective new kernels.
/// Singleton groups are kernels left unfused.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusionPlan {
    /// The groups; order is irrelevant to semantics but preserved.
    pub groups: Vec<Vec<KernelId>>,
}

impl FusionPlan {
    /// The identity plan: every kernel in its own group.
    pub fn identity(n_kernels: usize) -> Self {
        FusionPlan {
            groups: (0..n_kernels).map(|i| vec![KernelId(i as u32)]).collect(),
        }
    }

    /// Build from groups, normalizing member order within groups and group
    /// order by first member.
    pub fn new(mut groups: Vec<Vec<KernelId>>) -> Self {
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_by_key(|g| g.first().copied());
        FusionPlan { groups }
    }

    /// Build from groups already in normalized form: members sorted within
    /// each group, groups sorted by first member. Skips the re-sort of
    /// [`FusionPlan::new`] — the chromosome→plan conversion on the HGGA hot
    /// path maintains this invariant structurally.
    pub fn from_sorted_groups(groups: Vec<Vec<KernelId>>) -> Self {
        debug_assert!(
            groups.iter().all(|g| g.windows(2).all(|w| w[0] < w[1]))
                && groups.windows(2).all(|w| w[0].first() < w[1].first()),
            "groups must be normalized (sorted members, groups by first member)"
        );
        FusionPlan { groups }
    }

    /// Number of kernels fused into groups of ≥2 members.
    pub fn fused_kernel_count(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.len() >= 2)
            .map(Vec::len)
            .sum()
    }

    /// Number of multi-member groups (new kernels).
    pub fn new_kernel_count(&self) -> usize {
        self.groups.iter().filter(|g| g.len() >= 2).count()
    }
}

/// A constraint violation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The groups are not a partition of `0..n`.
    NotPartition {
        /// A kernel appearing zero or several times (first found).
        kernel: KernelId,
    },
    /// A group has no members: the parts of a partition are non-empty.
    EmptyGroup {
        /// Index of the empty group.
        group: usize,
    },
    /// Constraint 1.3: a kernel outside the group lies on a dependency
    /// path between two members.
    PathClosure {
        /// Index of the offending group.
        group: usize,
        /// The sandwiched outside kernel.
        violator: KernelId,
    },
    /// Constraint 1.5: members with zero degree of kinship.
    Kinship {
        /// Index of the offending group.
        group: usize,
    },
    /// Members lie on opposite sides of a host synchronization point
    /// (PCIe transfer / CPU-side work, §II-C).
    SyncSplit {
        /// Index of the offending group.
        group: usize,
    },
    /// Members issue into different CUDA streams (§II-C; fusing them would
    /// serialize intentionally concurrent work).
    StreamSplit {
        /// Index of the offending group.
        group: usize,
    },
    /// Constraint 1.6: SMEM demand exceeds per-SMX capacity.
    SmemOverflow {
        /// Index of the offending group.
        group: usize,
        /// Bytes demanded (with padding).
        bytes: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// Constraint 1.7: projected registers exceed the per-thread maximum.
    RegOverflow {
        /// Index of the offending group.
        group: usize,
        /// Projected registers per thread.
        regs: u32,
    },
    /// Constraint 1.1: the fused kernel is projected slower than its
    /// original sum.
    Unprofitable {
        /// Index of the offending group.
        group: usize,
        /// Projected runtime (s).
        projected: f64,
        /// Original sum (s).
        original_sum: f64,
    },
    /// The groups' condensation has a dependency cycle: no launch order
    /// realizes the plan.
    CondensationCycle,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NotPartition { kernel } => {
                write!(f, "plan is not a partition (kernel {kernel})")
            }
            PlanError::EmptyGroup { group } => {
                write!(f, "plan is not a partition (group {group} is empty)")
            }
            PlanError::PathClosure { group, violator } => {
                write!(
                    f,
                    "group {group} violates path closure: {violator} is sandwiched"
                )
            }
            PlanError::Kinship { group } => write!(f, "group {group} violates kinship"),
            PlanError::SyncSplit { group } => {
                write!(f, "group {group} spans a host synchronization point")
            }
            PlanError::StreamSplit { group } => {
                write!(f, "group {group} spans CUDA streams")
            }
            PlanError::SmemOverflow {
                group,
                bytes,
                capacity,
            } => {
                write!(
                    f,
                    "group {group} needs {bytes} B SMEM > capacity {capacity} B"
                )
            }
            PlanError::RegOverflow { group, regs } => {
                write!(f, "group {group} needs {regs} registers/thread > limit")
            }
            PlanError::Unprofitable {
                group,
                projected,
                original_sum,
            } => write!(
                f,
                "group {group} projected {projected:.3e}s ≥ original sum {original_sum:.3e}s"
            ),
            PlanError::CondensationCycle => {
                write!(f, "the plan's group condensation has a cycle")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The reusable buffers of [`PlanContext::check_and_score`]: the
/// partition marks, a group re-sort buffer, the synthesis lanes and the
/// condensation pass. A check against a scratch warmed on the same
/// program allocates nothing.
#[derive(Default)]
pub struct ScoreScratch {
    seen: Vec<bool>,
    sorted: Vec<KernelId>,
    batch: BatchScratch,
    cond: CondensationScratch,
}

impl ScoreScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Pre-computed context for constraint checks: graphs plus metadata.
pub struct PlanContext {
    /// Metadata of the (relaxed) program.
    pub info: ProgramInfo,
    /// Order-of-execution DAG with reachability.
    pub exec: ExecOrderGraph,
    /// Sharing graph with kinship distances.
    pub share: ShareGraph,
    /// Precomputed SoA synthesis tables the one synthesis sweep reads.
    pub synth: SynthTables,
    /// The relaxed program the context was extracted from, when the
    /// caller has it (the pipeline sets this; hand-built contexts may
    /// not). Debug hooks use it to apply accepted plans and run the
    /// structured codegen analyses on the result.
    pub program: Option<kfuse_ir::Program>,
    /// [`PlanContext::identity`], computed on first use.
    identity: OnceLock<ProgramIdentity>,
}

impl PlanContext {
    /// Build a context from extracted metadata and the relaxed program's
    /// graphs.
    pub fn new(info: ProgramInfo, exec: ExecOrderGraph, share: ShareGraph) -> Self {
        let synth = SynthTables::build(&info);
        PlanContext {
            info,
            exec,
            share,
            synth,
            program: None,
            identity: OnceLock::new(),
        }
    }

    /// The program's cache identity (kernel signatures + fingerprint),
    /// computed once per context and shared by everything that keys on
    /// it: the cache probe, the cache insert, the daemon's response.
    pub fn identity(&self) -> &ProgramIdentity {
        self.identity
            .get_or_init(|| ProgramIdentity::of(&self.info))
    }

    /// Attach the relaxed program (builder-style), enabling the debug
    /// codegen-analysis hook on accepted plans.
    pub fn with_program(mut self, p: kfuse_ir::Program) -> Self {
        self.program = Some(p);
        self
    }

    /// Number of kernels.
    pub fn n_kernels(&self) -> usize {
        self.info.kernels.len()
    }

    /// Heap bytes of the planning tables: metadata, both graphs, the
    /// synthesis tables and the identity once computed. Capacities, not
    /// allocator footprint. The attached relaxed program is not counted.
    pub fn heap_bytes(&self) -> usize {
        self.info.heap_bytes()
            + self.exec.heap_bytes()
            + self.share.heap_bytes()
            + self.synth.heap_bytes()
            + self
                .identity
                .get()
                .map_or(0, |id| vec_bytes(&id.signatures))
    }

    /// Check the constraints a group can violate on its own (sync/stream
    /// splits, 1.3, 1.5, 1.6, 1.7) and return its synthesized spec, owned.
    /// `group_idx` is only used for error reporting. Convenience form of
    /// [`PlanContext::check_group_with`] for one-off callers; loops should
    /// hold a scratch and call that.
    pub fn check_group(
        &self,
        group: &[KernelId],
        group_idx: usize,
    ) -> Result<GroupSpec, PlanError> {
        self.check_group_with(group, group_idx, &mut BatchScratch::new())
            .map(|view| view.lane_spec(0))
    }

    /// The *structural* constraints alone (sync/stream splits, kinship,
    /// path closure), using the scratch's reusable bitsets: the front half
    /// of [`PlanContext::check_group_with`].
    pub fn check_group_structure(
        &self,
        group: &[KernelId],
        group_idx: usize,
        scratch: &mut BatchScratch,
    ) -> Result<(), PlanError> {
        if group.len() < 2 {
            return Ok(());
        }
        // Host synchronization points split the program into epochs no
        // fusion may span.
        let e0 = self.info.epochs[group[0].index()];
        if group.iter().any(|k| self.info.epochs[k.index()] != e0) {
            return Err(PlanError::SyncSplit { group: group_idx });
        }
        // Streams: fusing across streams serializes concurrency.
        let s0 = self.info.streams[group[0].index()];
        if group.iter().any(|k| self.info.streams[k.index()] != s0) {
            return Err(PlanError::StreamSplit { group: group_idx });
        }
        // 1.5 kinship.
        if !self.share.group_connected(group.iter().copied()) {
            return Err(PlanError::Kinship { group: group_idx });
        }
        // 1.3 path closure.
        scratch.group_bits.reset(self.n_kernels());
        for &k in group {
            scratch.group_bits.insert(k.index());
        }
        if let Some(v) = self
            .exec
            .path_closure_violation_with(&scratch.group_bits, &mut scratch.reach)
        {
            return Err(PlanError::PathClosure {
                group: group_idx,
                violator: v,
            });
        }
        Ok(())
    }

    /// The capacity constraints (1.6, 1.7) over lane `lane` of a
    /// synthesized batch — the back half of
    /// [`PlanContext::check_group_with`], and the limits
    /// [`crate::batch::score_into`] applies to every lane: SMEM first,
    /// then registers.
    pub fn check_lane_limits(
        &self,
        view: &BatchView<'_>,
        lane: usize,
        group_idx: usize,
    ) -> Result<(), PlanError> {
        // Active-constraint pruning (§III-C): capacity checks only matter
        // for groups that actually stage pivots.
        let bytes = view.smem_bytes(lane);
        if bytes > 0 {
            let capacity = u64::from(self.info.gpu.smem_per_smx);
            // 1.6 — a single block's SMEM demand must fit an SMX.
            if bytes > capacity {
                return Err(PlanError::SmemOverflow {
                    group: group_idx,
                    bytes,
                    capacity,
                });
            }
        }
        // 1.7.
        let regs = view.projected_regs(lane);
        if regs > self.info.gpu.max_regs_per_thread {
            return Err(PlanError::RegOverflow {
                group: group_idx,
                regs,
            });
        }
        Ok(())
    }

    /// Every constraint a group can violate on its own, in the order
    /// errors are reported: structural checks, synthesis of the group as
    /// a one-lane batch into `scratch`, capacity checks. Allocation-free
    /// once `scratch` is warm; the view (its lane 0) borrows it until the
    /// next call.
    pub fn check_group_with<'s>(
        &'s self,
        group: &[KernelId],
        group_idx: usize,
        scratch: &'s mut BatchScratch,
    ) -> Result<BatchView<'s>, PlanError> {
        self.check_group_structure(group, group_idx, scratch)?;
        let view = synthesize_batch(&self.synth, &self.info, &[group], scratch);
        self.check_lane_limits(&view, 0, group_idx)?;
        Ok(view)
    }

    /// Check profitability (1.1) of a multi-member group under `model`.
    pub fn check_profitable(
        &self,
        spec: &GroupSpec,
        model: &dyn PerfModel,
        group_idx: usize,
    ) -> Result<f64, PlanError> {
        let projected = model.project(&self.info, spec);
        if spec.members.len() < 2 {
            return Ok(projected);
        }
        let original_sum = self.info.original_sum(&spec.members);
        if projected >= original_sum {
            return Err(PlanError::Unprofitable {
                group: group_idx,
                projected,
                original_sum,
            });
        }
        Ok(projected)
    }

    /// Partition validity (1.2/1.4): every kernel in exactly one group,
    /// and no group empty. `seen` is scratch for the kernel marks.
    fn check_partition(&self, plan: &FusionPlan, seen: &mut Vec<bool>) -> Result<(), PlanError> {
        let n = self.n_kernels();
        seen.clear();
        seen.resize(n, false);
        for (gi, g) in plan.groups.iter().enumerate() {
            if g.is_empty() {
                return Err(PlanError::EmptyGroup { group: gi });
            }
            for &k in g {
                if k.index() >= n || seen[k.index()] {
                    return Err(PlanError::NotPartition { kernel: k });
                }
                seen[k.index()] = true;
            }
        }
        match seen.iter().position(|&s| !s) {
            Some(missing) => Err(PlanError::NotPartition {
                kernel: KernelId(missing as u32),
            }),
            None => Ok(()),
        }
    }

    /// Validate an entire plan: partition validity plus the structural
    /// constraints of every group. Returns the synthesized specs.
    pub fn validate(&self, plan: &FusionPlan) -> Result<Vec<GroupSpec>, PlanError> {
        self.check_partition(plan, &mut Vec::new())?;
        let mut scratch = BatchScratch::new();
        plan.groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                self.check_group_with(g, gi, &mut scratch)
                    .map(|view| view.lane_spec(0))
            })
            .collect()
    }

    /// Check and score a plan in one pass, materializing no spec: the
    /// partition check, then per group [`PlanContext::check_group_with`],
    /// the lane's `project_batch` and the profitability gate (1.1), the
    /// sum in group order, and the condensation's acyclicity.
    ///
    /// It accepts exactly the plans [`PlanContext::validate`] accepts whose
    /// memoized search objective is finite, and returns that objective bit
    /// for bit: each group is scored as the search scores it (a one-lane
    /// [`crate::batch::score_into`], members sorted) and the sum is taken
    /// in the same order. A group whose projection is not finite is
    /// [`PlanError::Unprofitable`].
    ///
    /// The buffers are the caller's: one that checks the same program
    /// again (the daemon, for its kept contexts) keeps one
    /// [`ScoreScratch`] beside it.
    pub fn check_and_score(
        &self,
        plan: &FusionPlan,
        model: &dyn PerfModel,
        scratch: &mut ScoreScratch,
    ) -> Result<f64, PlanError> {
        let ScoreScratch {
            seen,
            sorted,
            batch,
            cond,
        } = scratch;
        self.check_partition(plan, seen)?;
        let mut times = [f64::INFINITY; LANES];
        let mut total = 0.0;
        for (gi, g) in plan.groups.iter().enumerate() {
            let g = if g.windows(2).all(|w| w[0] < w[1]) {
                g.as_slice()
            } else {
                sorted.clear();
                sorted.extend_from_slice(g);
                sorted.sort_unstable();
                sorted.as_slice()
            };
            let view = self.check_group_with(g, gi, batch)?;
            model.project_batch(&self.info, &view, &mut times);
            let projected = times[0];
            let original_sum = self.info.original_sum(g);
            if !projected.is_finite() || (g.len() >= 2 && projected >= original_sum) {
                return Err(PlanError::Unprofitable {
                    group: gi,
                    projected,
                    original_sum,
                });
            }
            total += projected;
        }
        if plan.groups.iter().any(|g| g.len() >= 2)
            && condensation_order_with(plan, &self.exec, cond).is_err()
        {
            return Err(PlanError::CondensationCycle);
        }
        Ok(total)
    }

    /// The search objective (Eq. 1): total projected runtime of the plan
    /// under `model`. Infeasible groups contribute [`f64::INFINITY`].
    pub fn objective(&self, plan: &FusionPlan, model: &dyn PerfModel) -> f64 {
        let mut scratch = BatchScratch::new();
        plan.groups
            .iter()
            .enumerate()
            .map(|(gi, g)| match self.check_group_with(g, gi, &mut scratch) {
                Ok(view) => {
                    let t = model.project(&self.info, &view.lane_spec(0));
                    if g.len() >= 2 && t >= self.info.original_sum(g) {
                        // Constraint 1.1: unprofitable groups are infeasible;
                        // charging the original sum would hide the violation,
                        // so penalize.
                        f64::INFINITY
                    } else {
                        t
                    }
                }
                Err(_) => f64::INFINITY,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::DependencyGraph;
    use crate::model::ProposedModel;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::{Expr, Program};

    /// k0→k1→k3 chain plus independent k2; two sharing components
    /// ({k0,k1,k3} via A/B/C, {k2} alone).
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        let e = pb.array("E");
        let x = pb.array("X");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::load(b, Offset::new(1, 0, 0)))
            .build();
        pb.kernel("k2")
            .write(x, Expr::at(e) * Expr::lit(2.0))
            .build();
        pb.kernel("k3").write(d, Expr::at(c)).build();
        pb.build()
    }

    fn context() -> PlanContext {
        let p = program();
        let info = ProgramInfo::extract(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let exec = ExecOrderGraph::build(&p);
        let dep = DependencyGraph::build(&p);
        let share = ShareGraph::build(&dep, p.kernels.len());
        PlanContext::new(info, exec, share)
    }

    #[test]
    fn identity_plan_is_valid() {
        let ctx = context();
        let plan = FusionPlan::identity(4);
        assert!(ctx.validate(&plan).is_ok());
        assert_eq!(plan.new_kernel_count(), 0);
    }

    #[test]
    fn partition_violations_detected() {
        let ctx = context();
        // k3 missing.
        let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(1)], vec![KernelId(2)]]);
        assert!(matches!(
            ctx.validate(&plan),
            Err(PlanError::NotPartition { .. })
        ));
        // k0 duplicated.
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1)],
            vec![KernelId(0), KernelId(2)],
            vec![KernelId(3)],
        ]);
        assert!(matches!(
            ctx.validate(&plan),
            Err(PlanError::NotPartition { .. })
        ));
        // Every kernel once, but an empty group beside them.
        let mut plan = FusionPlan::identity(4);
        plan.groups.push(Vec::new());
        let err = PlanError::EmptyGroup { group: 4 };
        assert_eq!(ctx.validate(&plan).unwrap_err(), err);
        let model = ProposedModel::default();
        let scratch = &mut ScoreScratch::new();
        assert_eq!(ctx.check_and_score(&plan, &model, scratch), Err(err));
    }

    #[test]
    fn path_closure_enforced() {
        let ctx = context();
        // {k0, k3} sandwiches k1.
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(3)],
            vec![KernelId(1)],
            vec![KernelId(2)],
        ]);
        match ctx.validate(&plan) {
            Err(PlanError::PathClosure { violator, .. }) => {
                assert_eq!(violator, KernelId(1));
            }
            other => panic!("expected path-closure violation, got {other:?}"),
        }
        // Including k1 fixes it.
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1), KernelId(3)],
            vec![KernelId(2)],
        ]);
        assert!(ctx.validate(&plan).is_ok());
    }

    #[test]
    fn kinship_enforced() {
        let ctx = context();
        // k2 shares no array with k0.
        let plan = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(2)],
            vec![KernelId(1)],
            vec![KernelId(3)],
        ]);
        assert!(matches!(
            ctx.validate(&plan),
            Err(PlanError::Kinship { .. })
        ));
    }

    #[test]
    fn objective_penalizes_infeasible_groups() {
        let ctx = context();
        let model = ProposedModel::default();
        let bad = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(3)], // sandwiches k1
            vec![KernelId(1)],
            vec![KernelId(2)],
        ]);
        assert!(ctx.objective(&bad, &model).is_infinite());
        let good = FusionPlan::identity(4);
        assert!(ctx.objective(&good, &model).is_finite());
    }

    #[test]
    fn fused_plan_objective_beats_identity_when_profitable() {
        let ctx = context();
        let model = ProposedModel::default();
        let fused = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1), KernelId(3)],
            vec![KernelId(2)],
        ]);
        let o_fused = ctx.objective(&fused, &model);
        let o_id = ctx.objective(&FusionPlan::identity(4), &model);
        assert!(o_fused.is_finite());
        assert!(
            o_fused < o_id,
            "fusing the chain should project faster: {o_fused} vs {o_id}"
        );
    }

    #[test]
    fn plan_normalization() {
        let plan = FusionPlan::new(vec![
            vec![KernelId(3), KernelId(1)],
            vec![KernelId(2), KernelId(0)],
        ]);
        assert_eq!(plan.groups[0], vec![KernelId(0), KernelId(2)]);
        assert_eq!(plan.groups[1], vec![KernelId(1), KernelId(3)]);
        assert_eq!(plan.fused_kernel_count(), 4);
    }
}
