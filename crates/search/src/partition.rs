//! Hierarchical partition-first planning.
//!
//! The flat HGGA scales comfortably to the paper's 142-kernel
//! SCALE-LES program but goes superlinear well before the 1k–10k-kernel
//! programs production array codes reach (the regime Kristensen et al.
//! target with cheap partitioning heuristics). This module adds the
//! decomposition layer ROADMAP item 2 calls for:
//!
//! 1. a **partition pass** ([`partition_regions`]) clustering the kernels
//!    into weakly-coupled regions by sharing density — a greedy
//!    modularity-style agglomeration over the array-sharing graph with a
//!    coupling threshold and a max-region-size knob, deterministic for a
//!    given program;
//! 2. **parallel region solves**: each region becomes a self-contained
//!    sub-[`Program`](kfuse_ir::Program) (see [`kfuse_core::subprogram`])
//!    solved by the existing HGGA with its own memo shard and a
//!    splitmix-derived RNG stream, with the greedy plan as the
//!    per-region quality floor;
//! 3. a **boundary-stitching pass** re-opening only inter-region candidate
//!    groups (kernels whose sharing sets cross a cut) and running a
//!    bounded local search over them, so profitable cross-region fusions
//!    the partitioner severed can still be recovered.
//!
//! `PartitionMode::Off` delegates verbatim to the flat solver and is
//! bit-for-bit identical to it; `Auto` stays flat below
//! [`HggaHierSolver::FLAT_THRESHOLD`] kernels. Every accepted group is
//! re-validated against the *global* constraint system (a region-locally
//! feasible group can violate path closure through an outside kernel), so
//! plans pass the independent verifier regardless of how the program was
//! cut.

use crate::eval::Evaluator;
use crate::greedy::GreedySolver;
use crate::hgga::{HggaConfig, HggaSolver};
use kfuse_core::depgraph::DependencyGraph;
use kfuse_core::exec_order::{ExecOrderGraph, SuccStamps};
use kfuse_core::fuse::{condensation_order_with, CondensationScratch};
use kfuse_core::kinship::ShareGraph;
use kfuse_core::metadata::ProgramInfo;
use kfuse_core::model::PerfModel;
use kfuse_core::pipeline::{SolveOutcome, SolveStats, Solver};
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_core::subprogram::extract_region;
use kfuse_ir::KernelId;
use kfuse_obs::{Counter, Gauge, MetricsSnapshot, ObsHandle, SpanId};
use std::time::Instant;

/// How the hierarchical solver decomposes the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMode {
    /// Partition when the program is large enough to benefit
    /// (≥ [`HggaHierSolver::FLAT_THRESHOLD`] kernels), with the default
    /// region-size cap; stay flat below it.
    Auto,
    /// Never partition: delegate to the flat solver (bit-for-bit
    /// identical trajectories).
    Off,
    /// Always partition, with this max-region-size cap (clamped to ≥ 2).
    MaxRegion(usize),
}

impl std::str::FromStr for PartitionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(PartitionMode::Auto),
            "off" => Ok(PartitionMode::Off),
            n => n
                .parse::<usize>()
                .map(PartitionMode::MaxRegion)
                .map_err(|_| {
                    format!("--partition takes auto, off, or a max region size, got `{n}`")
                }),
        }
    }
}

/// Result of the partition pass.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Kernel regions: disjoint, covering, each sorted ascending, ordered
    /// by first member.
    pub regions: Vec<Vec<KernelId>>,
    /// Kernels whose sharing sets cross a region cut, sorted ascending —
    /// the only kernels the stitching pass re-opens.
    pub boundary: Vec<KernelId>,
}

impl Partition {
    /// Region index of every kernel.
    pub fn region_of(&self, n_kernels: usize) -> Vec<u32> {
        let mut of = vec![0u32; n_kernels];
        for (ri, r) in self.regions.iter().enumerate() {
            for k in r {
                of[k.index()] = ri as u32;
            }
        }
        of
    }
}

/// Sharing sets above this cardinality contribute chain edges (consecutive
/// member pairs) instead of all pairs, keeping the coupling graph
/// near-linear in program size.
const DENSE_SET_LIMIT: usize = 16;

/// Cluster the kernels of `ctx` into weakly-coupled regions of at most
/// `max_region` kernels whose pairwise coupling is at least
/// `min_coupling`.
///
/// Coupling between two kernels is the sharing density of the arrays they
/// have in common: each shared array `a` with sharing set `S(a)`
/// contributes `1/(|S(a)|−1)` to every same-epoch, same-stream pair it
/// connects (fusing across epochs or streams is always infeasible, so
/// those pairs carry no useful coupling). Regions are grown by a greedy
/// modularity-style agglomeration: edges are visited in decreasing
/// coupling order (ties broken by kernel id) and merged union-find style
/// while the size cap holds — deterministic for a given program, and
/// O(E log E) overall.
pub fn partition_regions(ctx: &PlanContext, max_region: usize, min_coupling: f64) -> Partition {
    let n = ctx.n_kernels();
    let max_region = max_region.max(2);
    let info = &ctx.info;

    // Array → touching kernels, from the metadata (ids ascending).
    let mut touchers: Vec<Vec<u32>> = vec![Vec::new(); info.n_arrays];
    for (ki, m) in info.kernels.iter().enumerate() {
        for u in &m.uses {
            touchers[u.array.index()].push(ki as u32);
        }
    }

    // Accumulate coupling weights over unordered kernel pairs.
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    for t in &touchers {
        if t.len() < 2 {
            continue;
        }
        let w = 1.0 / (t.len() as f64 - 1.0);
        let mut push = |a: u32, b: u32| {
            let (a, b) = if a < b { (a, b) } else { (b, a) };
            let (ai, bi) = (a as usize, b as usize);
            if info.epochs[ai] == info.epochs[bi] && info.streams[ai] == info.streams[bi] {
                edges.push((a, b, w));
            }
        };
        if t.len() <= DENSE_SET_LIMIT {
            for i in 0..t.len() {
                for j in i + 1..t.len() {
                    push(t[i], t[j]);
                }
            }
        } else {
            for p in t.windows(2) {
                push(p[0], p[1]);
            }
        }
    }
    // Merge duplicate pairs, then order by coupling (desc, ids asc).
    edges.sort_unstable_by_key(|x| (x.0, x.1));
    let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(edges.len());
    for e in edges {
        match merged.last_mut() {
            Some(m) if m.0 == e.0 && m.1 == e.1 => m.2 += e.2,
            _ => merged.push(e),
        }
    }
    merged.sort_by(|x, y| {
        y.2.total_cmp(&x.2)
            .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
    });

    // Union-find agglomeration under the size cap.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut size: Vec<u32> = vec![1; n];
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while parent[r as usize] != r {
            r = parent[r as usize];
        }
        let mut c = x;
        while parent[c as usize] != r {
            let next = parent[c as usize];
            parent[c as usize] = r;
            c = next;
        }
        r
    }
    for &(a, b, w) in &merged {
        if w < min_coupling {
            break;
        }
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb && size[ra as usize] + size[rb as usize] <= max_region as u32 {
            // Root at the smaller id so labels are deterministic.
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[drop as usize] = keep;
            size[keep as usize] += size[drop as usize];
        }
    }

    // Materialize regions ordered by first member.
    let mut by_root: Vec<Vec<KernelId>> = vec![Vec::new(); n];
    for k in 0..n as u32 {
        let r = find(&mut parent, k);
        by_root[r as usize].push(KernelId(k));
    }
    let regions: Vec<Vec<KernelId>> = by_root.into_iter().filter(|r| !r.is_empty()).collect();

    // Boundary kernels: members of any sharing set spanning ≥ 2 regions.
    let mut region_of = vec![0u32; n];
    for (ri, r) in regions.iter().enumerate() {
        for k in r {
            region_of[k.index()] = ri as u32;
        }
    }
    let mut boundary: Vec<KernelId> = Vec::new();
    for t in &touchers {
        if t.len() >= 2
            && t.iter()
                .any(|&k| region_of[k as usize] != region_of[t[0] as usize])
        {
            boundary.extend(t.iter().map(|&k| KernelId(k)));
        }
    }
    boundary.sort_unstable();
    boundary.dedup();

    Partition { regions, boundary }
}

/// One region's contribution to the merged plan.
struct RegionResult {
    /// Groups in global kernel ids.
    groups: Vec<Vec<KernelId>>,
    /// Metrics of every sub-solve that ran for the region — the GA, then
    /// the greedy floor unless skipped — whichever plan won. Empty for a
    /// singleton region. All are folded into the outer registry.
    metrics: Vec<MetricsSnapshot>,
}

/// The hierarchical partition-first solver (`hgga-hier`).
///
/// Wraps the flat [`HggaSolver`] in the decompose → solve-per-region →
/// stitch pipeline described in the module docs. All knobs that shape the
/// per-region evolution live in [`HggaHierSolver::config`] exactly as for
/// the flat solver; the hierarchical path's parallelism is its
/// independent region solves.
#[derive(Debug, Clone)]
pub struct HggaHierSolver {
    /// GA parameters, shared with the flat solver.
    pub config: HggaConfig,
    /// Decomposition mode.
    pub partition: PartitionMode,
}

/// Minimum coupling for an agglomeration merge.
const MIN_COUPLING: f64 = 1e-3;
/// Maximum stitching sweeps over the cross-region candidates.
const STITCH_PASSES: usize = 4;

impl HggaHierSolver {
    /// Programs below this size solve flat under [`PartitionMode::Auto`]:
    /// the flat HGGA is comfortably fast there and global search strictly
    /// dominates a decomposition.
    pub const FLAT_THRESHOLD: usize = 200;

    /// Default max-region-size cap under [`PartitionMode::Auto`].
    pub const DEFAULT_MAX_REGION: usize = 64;

    /// Programs up to this size get a whole-program greedy quality floor
    /// after stitching (greedy's pairwise sweep is quadratic, so the floor
    /// is confined to sizes where it is effectively free).
    pub const GREEDY_FLOOR_LIMIT: usize = 256;

    /// Construct with a seed, [`PartitionMode::Auto`], and default knobs.
    pub fn with_seed(seed: u64) -> Self {
        HggaHierSolver {
            config: HggaConfig {
                seed,
                ..HggaConfig::default()
            },
            partition: PartitionMode::Auto,
        }
    }

    /// The flat solver this one delegates to (and whose trajectories
    /// `PartitionMode::Off` reproduces bit-for-bit).
    fn flat(&self) -> HggaSolver {
        HggaSolver {
            config: self.config.clone(),
        }
    }

    fn solve_hier(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
        max_region: usize,
        deadline: Option<Instant>,
    ) -> SolveOutcome {
        let n = ctx.n_kernels();
        let program = ctx
            .program
            .as_ref()
            .expect("caller checked ctx.program is present");
        let start = Instant::now();
        let ev = Evaluator::observed(ctx, model, obs);
        let mut solve_span = obs.span(SpanId::Solve);
        solve_span.set_arg(0, n as u64);
        solve_span.set_arg(1, 1);

        // 1. Partition pass.
        let part = {
            let t0 = Instant::now();
            let part = partition_regions(ctx, max_region, MIN_COUPLING);
            obs.record_span(
                SpanId::PartitionPass,
                0,
                t0,
                t0.elapsed(),
                [n as u64, part.regions.len() as u64],
            );
            part
        };
        ev.metrics()
            .add(Counter::BoundaryKernels, part.boundary.len() as u64);

        // 2. Parallel region solves. Slots are indexed by region, so the
        // merge order — and with it the whole trajectory — is independent
        // of how the solves are scheduled across threads.
        let mut results: Vec<Option<RegionResult>> = Vec::new();
        results.resize_with(part.regions.len(), || None);
        let seed = self.config.seed;
        let base_cfg = &self.config;
        rayon::scope(|s| {
            for (ri, (slot, region)) in results.iter_mut().zip(&part.regions).enumerate() {
                if region.len() < 2 {
                    *slot = Some(RegionResult {
                        groups: vec![region.clone()],
                        metrics: Vec::new(),
                    });
                    continue;
                }
                s.spawn(move || {
                    let t0 = Instant::now();
                    let r =
                        solve_one_region(program, ctx, model, base_cfg, seed, ri, region, deadline);
                    obs.record_span(
                        SpanId::RegionSolve,
                        ri as u32 + 1,
                        t0,
                        t0.elapsed(),
                        [region.len() as u64, ri as u64],
                    );
                    *slot = Some(r);
                });
            }
        });

        // Merge region plans and fold the sub-solve metrics into the outer
        // registry so `kfuse stats` sees the whole run.
        let mut groups: Vec<Vec<KernelId>> = Vec::new();
        let mut regions_solved = 0u64;
        for r in results.into_iter().flatten() {
            if !r.metrics.is_empty() {
                regions_solved += 1;
            }
            for m in &r.metrics {
                for c in Counter::ALL {
                    ev.metrics().add(c, m.get(c));
                }
            }
            groups.extend(r.groups);
        }
        ev.metrics().add(Counter::RegionsSolved, regions_solved);

        // 3. Global re-validation: a region-locally feasible group can
        // still violate path closure through a kernel outside its region.
        let mut split = 0u64;
        let mut validated: Vec<Vec<KernelId>> = Vec::with_capacity(groups.len());
        for g in groups {
            if g.len() >= 2 && !ev.group(&g).feasible() {
                split += 1;
                validated.extend(g.into_iter().map(|k| vec![k]));
            } else {
                validated.push(g);
            }
        }
        let mut groups = validated;
        groups.sort_by_key(|g| g[0]);

        // Cross-region condensation repair: groups from different regions
        // can be mutually ordered even though each one passes path closure
        // (closure only constrains kernels on actual paths between members,
        // not membership interleavings). Find an actual cycle in the group
        // condensation and split its smallest multi-kernel member into
        // singletons until the plan is acyclic; each split removes one
        // multi-kernel group, so this terminates.
        let mut seen = SuccStamps::default();
        loop {
            let mut group_of = vec![u32::MAX; n];
            for (gi, g) in groups.iter().enumerate() {
                for k in g {
                    group_of[k.index()] = gi as u32;
                }
            }
            let mut succ: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
            for (gi, g) in groups.iter().enumerate() {
                ctx.exec
                    .group_succs_into(g, &group_of, gi as u32, &mut seen, &mut succ[gi]);
                // `find_cycle` walks edges in list order and the victim is
                // chosen from the cycle it reports, so the order is pinned.
                succ[gi].sort_unstable();
            }
            ev.metrics().incr(Counter::CondensationChecks);
            let Some(cycle) = find_cycle(&succ) else {
                break;
            };
            // A cycle among singletons alone is impossible (the kernel
            // exec graph is a DAG), so a multi-kernel victim exists. Break
            // the cheapest fusion: fewest members, ties to the lower group.
            let victim = cycle
                .iter()
                .copied()
                .filter(|&gi| groups[gi].len() >= 2)
                .min_by_key(|&gi| (groups[gi].len(), gi))
                .expect("a condensation cycle must contain a multi-kernel group");
            let g = std::mem::take(&mut groups[victim]);
            groups.extend(g.into_iter().map(|k| vec![k]));
            groups.retain(|g| !g.is_empty());
            groups.sort_by_key(|g| g[0]);
            split += 1;
        }
        ev.metrics().add(Counter::GroupsSplit, split);

        // 4. Boundary stitching.
        self.stitch(ctx, &ev, &part, &mut groups, obs);

        let mut plan = FusionPlan::from_sorted_groups(groups);
        let mut objective = ev.plan(&plan);
        debug_assert!(objective.is_finite(), "hier plan must be globally feasible");

        // Global greedy floor (small programs only — greedy's pairwise
        // sweep is quadratic): a forced decomposition on a small,
        // strongly-coupled program can sever fusions even greedy finds,
        // so never return a plan worse than the polynomial baseline.
        if n <= Self::GREEDY_FLOOR_LIMIT {
            let greedy = GreedySolver.solve(ctx, model);
            let greedy_objective = ev.plan(&greedy.plan);
            if greedy_objective < objective - 1e-15 {
                plan = greedy.plan;
                objective = greedy_objective;
            }
        }

        obs.value(Gauge::BestObjective, objective);
        let (metrics, stats) = ev.finish(objective);
        let stats = SolveStats {
            elapsed: start.elapsed(),
            time_to_best: start.elapsed(),
            ..stats
        };
        SolveOutcome {
            plan,
            objective,
            stats,
            metrics,
        }
    }

    /// Bounded local search over cross-region candidates: each pass first
    /// sweeps the group pairs connected by a cut-crossing sharing set and
    /// commits every feasible, strictly improving, condensation-acyclic
    /// merge; it then sweeps single boundary kernels, moving one across the
    /// cut into a sharing-connected group when the two new groups together
    /// beat the old pair (recovering fusions the partitioner severed in a
    /// shape whole-group merges cannot reach). Deterministic: candidates
    /// are visited in sorted order and commits apply immediately.
    fn stitch(
        &self,
        ctx: &PlanContext,
        ev: &Evaluator<'_>,
        part: &Partition,
        groups: &mut Vec<Vec<KernelId>>,
        obs: ObsHandle<'_>,
    ) {
        let n = ctx.n_kernels();
        let t0 = Instant::now();
        let region_of = part.region_of(n);

        // Arrays whose sharing sets cross a cut, as kernel lists.
        let info = &ctx.info;
        let mut cut_sets: Vec<Vec<u32>> = Vec::new();
        {
            let mut touchers: Vec<Vec<u32>> = vec![Vec::new(); info.n_arrays];
            for (ki, m) in info.kernels.iter().enumerate() {
                for u in &m.uses {
                    touchers[u.array.index()].push(ki as u32);
                }
            }
            for t in touchers {
                if t.len() >= 2
                    && t.iter()
                        .any(|&k| region_of[k as usize] != region_of[t[0] as usize])
                {
                    cut_sets.push(t);
                }
            }
        }

        let mut group_of: Vec<u32> = vec![u32::MAX; n];
        for (gi, g) in groups.iter().enumerate() {
            for k in g {
                group_of[k.index()] = gi as u32;
            }
        }
        let mut times: Vec<f64> = groups.iter().map(|g| ev.group(g).time_s).collect();
        let mut cscratch = CondensationScratch::default();
        let mut candidates_seen = 0u64;
        let mut merges = 0u64;

        for _pass in 0..STITCH_PASSES {
            // Candidate pairs for this sweep, in deterministic order.
            let mut cands: Vec<(u32, u32)> = Vec::new();
            for t in &cut_sets {
                for i in 0..t.len() {
                    for j in i + 1..t.len() {
                        let (a, b) = (t[i] as usize, t[j] as usize);
                        if region_of[a] == region_of[b] {
                            continue; // intra-region pairs were searched by the region solve
                        }
                        let (ga, gb) = (group_of[a], group_of[b]);
                        if ga != gb {
                            cands.push((ga.min(gb), ga.max(gb)));
                        }
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            candidates_seen += cands.len() as u64;

            let mut changed = false;
            for (ga, gb) in cands {
                let (ga, gb) = (ga as usize, gb as usize);
                // A group may have been merged away earlier in the sweep.
                if groups[ga].is_empty() || groups[gb].is_empty() {
                    continue;
                }
                let mut cand: Vec<KernelId> =
                    groups[ga].iter().chain(&groups[gb]).copied().collect();
                cand.sort_unstable();
                let e = ev.group(&cand);
                if !e.feasible() || e.time_s >= times[ga] + times[gb] - 1e-15 {
                    continue;
                }
                // The merge must keep the whole plan's condensation
                // acyclic — pairwise feasibility cannot see cycles formed
                // with a third group.
                let mut trial: Vec<Vec<KernelId>> = groups
                    .iter()
                    .enumerate()
                    .filter(|(i, g)| !g.is_empty() && *i != gb)
                    .map(|(i, g)| if i == ga { cand.clone() } else { g.clone() })
                    .collect();
                trial.sort_by_key(|g| g[0]);
                let trial = FusionPlan::from_sorted_groups(trial);
                ev.metrics().incr(Counter::CondensationChecks);
                if condensation_order_with(&trial, &ctx.exec, &mut cscratch).is_err() {
                    continue;
                }
                for k in &cand {
                    group_of[k.index()] = ga as u32;
                }
                times[ga] = e.time_s;
                times[gb] = 0.0;
                groups[ga] = cand;
                groups[gb] = Vec::new();
                merges += 1;
                changed = true;
            }

            // Boundary-kernel moves: (kernel, target group) pairs over the
            // cut-crossing sharing sets.
            let mut moves: Vec<(u32, u32)> = Vec::new();
            for t in &cut_sets {
                for &a in t {
                    for &b in t {
                        if region_of[a as usize] == region_of[b as usize] {
                            continue;
                        }
                        let (ga, gb) = (group_of[a as usize], group_of[b as usize]);
                        if ga != gb {
                            moves.push((a, gb));
                        }
                    }
                }
            }
            moves.sort_unstable();
            moves.dedup();
            candidates_seen += moves.len() as u64;

            for (k, gb) in moves {
                let (ki, gb) = (k as usize, gb as usize);
                let ga = group_of[ki] as usize;
                if ga == gb || groups[gb].is_empty() {
                    continue; // an earlier commit rehomed the kernel or target
                }
                let mut new_b = groups[gb].clone();
                new_b.push(KernelId(k));
                new_b.sort_unstable();
                let eb = ev.group(&new_b);
                if !eb.feasible() {
                    continue;
                }
                let new_a: Vec<KernelId> = groups[ga]
                    .iter()
                    .copied()
                    .filter(|x| x.index() != ki)
                    .collect();
                let ta = if new_a.is_empty() {
                    0.0
                } else {
                    let ea = ev.group(&new_a);
                    if !ea.feasible() {
                        continue;
                    }
                    ea.time_s
                };
                if eb.time_s + ta >= times[ga] + times[gb] - 1e-15 {
                    continue;
                }
                let mut trial: Vec<Vec<KernelId>> = groups
                    .iter()
                    .enumerate()
                    .filter(|(i, g)| !g.is_empty() && *i != ga && *i != gb)
                    .map(|(_, g)| g.clone())
                    .collect();
                if !new_a.is_empty() {
                    trial.push(new_a.clone());
                }
                trial.push(new_b.clone());
                trial.sort_by_key(|g| g[0]);
                ev.metrics().incr(Counter::CondensationChecks);
                let trial = FusionPlan::from_sorted_groups(trial);
                if condensation_order_with(&trial, &ctx.exec, &mut cscratch).is_err() {
                    continue;
                }
                group_of[ki] = gb as u32;
                times[gb] = eb.time_s;
                groups[gb] = new_b;
                times[ga] = ta;
                groups[ga] = new_a;
                merges += 1;
                changed = true;
            }

            if !changed {
                break;
            }
        }

        groups.retain(|g| !g.is_empty());
        groups.sort_by_key(|g| g[0]);
        ev.metrics().add(Counter::StitchMerges, merges);
        obs.record_span(
            SpanId::StitchPass,
            0,
            t0,
            t0.elapsed(),
            [candidates_seen, merges],
        );
    }
}

/// Solve one region: extract the sub-program, build its context, run the
/// HGGA with a region-derived RNG stream under the solve's `deadline`, and
/// keep the greedy plan instead if it scores better (the region's quality
/// floor). Returns groups in global kernel ids.
#[allow(clippy::too_many_arguments)]
fn solve_one_region(
    program: &kfuse_ir::Program,
    ctx: &PlanContext,
    model: &dyn PerfModel,
    base_cfg: &HggaConfig,
    seed: u64,
    region_idx: usize,
    region: &[KernelId],
    deadline: Option<Instant>,
) -> RegionResult {
    let (sub, map) = extract_region(program, region);
    let info = ProgramInfo::extract(&sub, &ctx.info.gpu, ctx.info.precision);
    let exec = ExecOrderGraph::build(&sub);
    let dep = DependencyGraph::build(&sub);
    let share = ShareGraph::build(&dep, sub.kernels.len());
    let sub_ctx = PlanContext::new(info, exec, share).with_program(sub);

    let solver = HggaSolver {
        config: HggaConfig {
            seed: region_seed(seed, region_idx as u64),
            ..base_cfg.clone()
        },
    };
    let out = solver.solve_controlled(&sub_ctx, model, ObsHandle::disabled(), deadline);
    let greedy = GreedySolver.solve(&sub_ctx, model);
    let plan = if greedy.objective < out.objective - 1e-15 {
        greedy.plan
    } else {
        out.plan
    };
    RegionResult {
        groups: plan.groups.iter().map(|g| map.to_global(g)).collect(),
        metrics: vec![out.metrics, greedy.metrics],
    }
}

/// Find a directed cycle in a successor-list digraph, returned as the node
/// sequence along the cycle, or `None` if the graph is acyclic. Iterative
/// coloring DFS visiting nodes and edges in index order, so the reported
/// cycle is deterministic.
fn find_cycle(succ: &[Vec<u32>]) -> Option<Vec<usize>> {
    let n = succ.len();
    let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, next edge index)
    let mut path: Vec<usize> = Vec::new();
    for s in 0..n {
        if color[s] != 0 {
            continue;
        }
        color[s] = 1;
        stack.push((s, 0));
        path.push(s);
        while let Some(top) = stack.last_mut() {
            let u = top.0;
            if top.1 < succ[u].len() {
                let v = succ[u][top.1] as usize;
                top.1 += 1;
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0));
                        path.push(v);
                    }
                    1 => {
                        let pos = path
                            .iter()
                            .position(|&x| x == v)
                            .expect("gray node is on the DFS path");
                        return Some(path[pos..].to_vec());
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

/// Splitmix-style per-region seed stream: each region solve draws from its
/// own stream, fully determined by the run seed and the region index.
fn region_seed(seed: u64, region: u64) -> u64 {
    let mut z = seed ^ (region.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= 0xA5A5_5A5A_1234_5678;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Solver for HggaHierSolver {
    fn name(&self) -> &str {
        "hgga-hier"
    }

    fn solve_observed(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
    ) -> SolveOutcome {
        self.solve_controlled(ctx, model, obs, None)
    }
}

impl HggaHierSolver {
    /// Effective region-size cap for a program of `n` kernels, or `None`
    /// when this solver configuration would solve it flat.
    fn effective_max_region(&self, n: usize) -> Option<usize> {
        match self.partition {
            PartitionMode::Off => None,
            PartitionMode::Auto if n < Self::FLAT_THRESHOLD => None,
            PartitionMode::Auto => Some(Self::DEFAULT_MAX_REGION),
            PartitionMode::MaxRegion(m) => Some(m.max(2)),
        }
    }

    /// [`Solver::solve_observed`] under a wall-clock `deadline`, threaded
    /// into the flat solve or every region solve. `None` is the plain
    /// solve, bit for bit. Programs up to [`Self::GREEDY_FLOOR_LIMIT`]
    /// never come back worse than greedy: the hierarchical path floors
    /// every solve, the flat path a budgeted one, which may have stopped
    /// before the GA caught the polynomial baseline.
    pub fn solve_controlled(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
        deadline: Option<Instant>,
    ) -> SolveOutcome {
        let n = ctx.n_kernels();
        match self.effective_max_region(n) {
            // Region extraction needs the relaxed program; contexts built
            // without one solve flat.
            Some(m) if ctx.program.is_some() => self.solve_hier(ctx, model, obs, m, deadline),
            // Flat delegation: the flat solver's trajectory, bit for bit.
            _ => {
                let mut out = self.flat().solve_controlled(ctx, model, obs, deadline);
                if deadline.is_some() && n <= Self::GREEDY_FLOOR_LIMIT {
                    let greedy = GreedySolver.solve(ctx, model);
                    if greedy.objective < out.objective - 1e-15 {
                        out.plan = greedy.plan;
                        out.objective = greedy.objective;
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::model::ProposedModel;
    use kfuse_core::pipeline;
    use kfuse_gpu::GpuSpec;

    fn prepared(p: kfuse_ir::Program) -> PlanContext {
        let gpu = GpuSpec::k20x();
        let (_, ctx) = pipeline::prepare(&p, &gpu, gpu.default_precision());
        ctx
    }

    fn quick_config(seed: u64) -> HggaConfig {
        HggaConfig {
            population: 24,
            max_generations: 30,
            stall_generations: 10,
            seed,
            ..HggaConfig::default()
        }
    }

    #[test]
    fn partition_covers_all_kernels_disjointly() {
        let ctx = prepared(kfuse_workloads::synth::clustered(4, 15, 0.3));
        let part = partition_regions(&ctx, 20, 1e-3);
        let mut seen = vec![false; ctx.n_kernels()];
        for r in &part.regions {
            assert!(!r.is_empty());
            assert!(r.windows(2).all(|w| w[0] < w[1]), "regions sorted");
            assert!(r.len() <= 20, "size cap respected: {}", r.len());
            for k in r {
                assert!(!seen[k.index()], "kernel {k} in two regions");
                seen[k.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "partition must cover all kernels");
        assert!(
            part.regions.len() >= 2,
            "coupled program should still split"
        );
    }

    #[test]
    fn partition_is_deterministic() {
        let ctx = prepared(kfuse_workloads::synth::clustered(4, 15, 0.3));
        let a = partition_regions(&ctx, 16, 1e-3);
        let b = partition_regions(&ctx, 16, 1e-3);
        assert_eq!(a.regions, b.regions);
        assert_eq!(a.boundary, b.boundary);
    }

    #[test]
    fn boundary_kernels_touch_cut_crossing_arrays() {
        let ctx = prepared(kfuse_workloads::synth::clustered(4, 15, 0.5));
        let part = partition_regions(&ctx, 16, 1e-3);
        let region_of = part.region_of(ctx.n_kernels());
        // Every boundary kernel shares an array with another region.
        for &k in &part.boundary {
            let m = ctx.info.meta(k);
            let crosses = m.uses.iter().any(|u| {
                ctx.info.kernels.iter().enumerate().any(|(o, om)| {
                    region_of[o] != region_of[k.index()] && om.use_of(u.array).is_some()
                })
            });
            assert!(crosses, "kernel {k} marked boundary without a cut array");
        }
    }

    #[test]
    fn hier_plans_are_feasible_and_deterministic() {
        let ctx = prepared(kfuse_workloads::synth::clustered(4, 15, 0.3));
        let model = ProposedModel::default();
        let mut solver = HggaHierSolver::with_seed(7);
        solver.config = quick_config(7);
        solver.partition = PartitionMode::MaxRegion(16);
        let a = solver.solve(&ctx, &model);
        let b = solver.solve(&ctx, &model);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.objective, b.objective);
        assert!(ctx.validate(&a.plan).is_ok(), "plan must validate globally");
        assert!(a.objective.is_finite());
    }

    #[test]
    fn partition_off_delegates_to_flat_bit_for_bit() {
        let ctx = prepared(kfuse_workloads::synth::scaling(30));
        let model = ProposedModel::default();
        let mut hier = HggaHierSolver::with_seed(17);
        hier.config = quick_config(17);
        hier.partition = PartitionMode::Off;
        let flat = HggaSolver {
            config: quick_config(17),
        };
        let a = hier.solve(&ctx, &model);
        let b = flat.solve(&ctx, &model);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }

    #[test]
    fn region_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for r in 0..64 {
            assert!(
                seen.insert(region_seed(0xC0FFEE, r)),
                "region seed collision"
            );
        }
    }
}
