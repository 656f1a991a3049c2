//! The Hybrid Grouping Genetic Algorithm (§III-C).
//!
//! Follows Falkenauer's grouping GA: chromosomes are variable-length lists
//! of *groups* (prospective new kernels), and the genetic operators act on
//! whole groups so that crossover transmits meaningful building blocks —
//! a good fusion discovered in one individual survives intact in its
//! offspring. The paper's adaptation adds multi-dependency awareness: every
//! individual is repaired to satisfy the full constraint system (path
//! closure 1.3, kinship 1.5, capacity 1.6/1.7, profitability 1.1, and
//! condensation acyclicity) before it enters the population, so infeasible
//! solutions never "pollute the search population".
//!
//! The inner loop runs on the flat [`Chromosome`] representation
//! ([`crate::chromo`]): one contiguous member arena, per-group cached
//! [`GroupEval`]s; sealing checks the condensation with the one Kahn pass
//! in `kfuse_core::fuse`, over the chromosome itself.
//! Operators apply their edits in place, carry the evaluations of the
//! groups they probed, and [`Chromosome::finalize`] repairs + rescores only
//! what changed — no per-offspring `Vec<Vec<KernelId>>` clones, no
//! from-scratch plan sums. The trajectory is pinned bit for bit by this
//! module's tests, against plan, objective and generation counts recorded
//! from the `Vec<Vec<KernelId>>` operators this loop replaced: every RNG
//! draw, probe decision and transient group order below is load-bearing.
//!
//! [`FusionPlan`] stays the boundary type: solver output and verifier
//! input convert at the edges via [`Chromosome::to_plan`].
//!
//! The GA is one population evolved by one loop. Parallelism lives one
//! level up, in the hierarchical solver's independent region solves
//! ([`crate::partition`]), as the paper parallelized evaluation rather
//! than populations.

use crate::chromo::{Chromosome, OpScratch};
use crate::eval::{Evaluator, GroupEval};
use kfuse_core::model::PerfModel;
use kfuse_core::pipeline::{SolveOutcome, SolveStats, Solver};
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_ir::KernelId;
use kfuse_obs::{Counter, Gauge, ObsHandle, SpanId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// HGGA hyper-parameters. Defaults follow Table VI (population 100) with
/// the stall-based stop criterion described in §VI-C1.
#[derive(Debug, Clone)]
pub struct HggaConfig {
    /// Population size `M`.
    pub population: usize,
    /// Hard cap on generations.
    pub max_generations: u32,
    /// Stop after this many generations without improvement.
    pub stall_generations: u32,
    /// Probability of applying the hill-climbing local-improvement step to
    /// an offspring (the "hybrid" of Falkenauer's HGGA).
    pub local_search_rate: f64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

/// Tournament size for selection.
const TOURNAMENT: usize = 3;
/// Probability of crossover (else the fitter parent is cloned).
const CROSSOVER_RATE: f64 = 0.85;
/// Probability of mutating each offspring.
const MUTATION_RATE: f64 = 0.35;
/// Elites copied unchanged into the next generation.
const ELITISM: usize = 2;

impl Default for HggaConfig {
    fn default() -> Self {
        HggaConfig {
            population: 100,
            max_generations: 2000,
            stall_generations: 60,
            local_search_rate: 0.3,
            seed: 0xC0FFEE,
        }
    }
}

/// The HGGA solver.
#[derive(Debug, Clone, Default)]
pub struct HggaSolver {
    /// Hyper-parameters.
    pub config: HggaConfig,
}

impl HggaSolver {
    /// Solver with a specific seed (used to run the paper's 10 repeats).
    pub fn with_seed(seed: u64) -> Self {
        HggaSolver {
            config: HggaConfig {
                seed,
                ..HggaConfig::default()
            },
        }
    }
}

/// Debug-build cross-check: every chromosome accepted as a new global best
/// is re-validated by the independent `kfuse-verify` constraint checker,
/// so an evaluator bug cannot silently promote an infeasible plan.
/// Compiles to nothing in release builds — search speed is unaffected.
#[cfg(debug_assertions)]
fn debug_verify_best(ctx: &PlanContext, model: &dyn PerfModel, plan: &FusionPlan, cost: f64) {
    // An infinite cost marks a legitimately infeasible placeholder (e.g.
    // an identity plan whose singleton kernels already overflow SMEM);
    // those are never *accepted*, only carried until something better wins.
    if !cost.is_finite() {
        return;
    }
    let report = kfuse_verify::check_plan(&ctx.info, plan, Some(model));
    assert!(
        report.is_clean(),
        "HGGA accepted a plan the independent verifier rejects (cost {cost}):\n{}",
        report.render_human()
    );
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn debug_verify_best(_: &PlanContext, _: &dyn PerfModel, _: &FusionPlan, _: f64) {}

/// Debug-build cross-check on the *final* accepted plan: apply it to the
/// relaxed program, lower the fused result to the structured GPU module
/// IR, and run the `kfuse-verify` analysis passes (barrier-interval
/// races, barrier divergence, symbolic bounds). Sits alongside
/// [`debug_verify_best`] but runs once per solve — codegen plus module
/// analysis is far heavier than a constraint re-check, so doing it on
/// every improvement would dominate debug-mode test time. Skipped when
/// the context was hand-built without its source program.
#[cfg(debug_assertions)]
fn debug_analyze_best(ctx: &PlanContext, plan: &FusionPlan, cost: f64) {
    if !cost.is_finite() {
        return;
    }
    let Some(program) = &ctx.program else {
        return;
    };
    let Ok(specs) = ctx.validate(plan) else {
        // An invalid best is caught loudly by debug_verify_best.
        return;
    };
    let fused = match kfuse_core::fuse::apply_plan(program, &ctx.info, &ctx.exec, plan, &specs) {
        Ok(p) => p,
        Err(_) => return,
    };
    let module = kfuse_codegen::build_module(&fused, &kfuse_codegen::CodegenOptions::default());
    let report = kfuse_verify::analyze_module(&module);
    assert!(
        report.is_clean(),
        "HGGA accepted a plan whose generated module fails static analysis (cost {cost}):\n{}",
        report.render_human()
    );
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn debug_analyze_best(_: &PlanContext, _: &FusionPlan, _: f64) {}

/// Debug-build cross-check of the delta objective: a sealed offspring's
/// incrementally maintained cost must equal a from-scratch
/// [`Evaluator::plan`] on the converted plan, bit for bit.
#[cfg(debug_assertions)]
fn debug_check_sealed(ev: &Evaluator<'_>, ch: &Chromosome) {
    let full = ev.plan(&ch.to_plan());
    assert!(
        full.total_cmp(&ch.cost()).is_eq(),
        "delta cost {} diverged from full evaluation {full}",
        ch.cost()
    );
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn debug_check_sealed(_: &Evaluator<'_>, _: &Chromosome) {}

impl Solver for HggaSolver {
    fn name(&self) -> &str {
        "hgga"
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

impl HggaSolver {
    /// [`Solver::solve_observed`] under a wall-clock `deadline` (the
    /// `--budget-ms` anytime mode): the generation loop returns
    /// best-so-far at the first boundary past it. `None` is the plain
    /// solve, bit for bit — it reads no clock and draws nothing extra.
    pub fn solve_controlled(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
        deadline: Option<Instant>,
    ) -> SolveOutcome {
        let cfg = &self.config;
        let ev = Evaluator::observed(ctx, model, obs);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut scratch = OpScratch::new();
        let start = Instant::now();
        let mut solve_span = obs.span(SpanId::Solve);
        solve_span.set_arg(0, ctx.n_kernels() as u64);

        // Initial population: randomized constructive merges.
        let mut pop: Vec<Chromosome> = {
            let mut init_span = obs.span(SpanId::InitialPopulation);
            init_span.set_arg(0, cfg.population as u64);
            (0..cfg.population)
                .map(|_| random_chromosome(&ev, &mut rng, &mut scratch))
                .collect()
        };
        pop.sort_by(|a, b| a.cost().total_cmp(&b.cost()));

        let mut best = pop[0].to_plan();
        let mut best_cost = pop[0].cost();
        obs.value(Gauge::BestObjective, best_cost);
        let mut best_gen = 0u32;
        let mut time_to_best = start.elapsed();
        let mut stall = 0u32;
        let mut generations = 0u32;

        for gen in 1..=cfg.max_generations {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            generations = gen;
            {
                let mut gen_span = obs.span(SpanId::Generation);
                gen_span.set_arg(0, gen as u64);
                step_generation(&ev, cfg, &mut pop, &mut rng, &mut scratch, deadline);
            }
            ev.count(Counter::Generations, 1);
            obs.value(Gauge::GenerationBest, pop[0].cost());

            if pop[0].cost() < best_cost - 1e-15 {
                best_cost = pop[0].cost();
                best = pop[0].to_plan();
                debug_verify_best(ctx, model, &best, best_cost);
                ev.count(Counter::BestImprovements, 1);
                obs.value(Gauge::BestObjective, best_cost);
                best_gen = gen;
                time_to_best = start.elapsed();
                stall = 0;
            } else {
                stall += 1;
                if stall >= cfg.stall_generations {
                    break;
                }
            }
        }

        debug_analyze_best(ctx, &best, best_cost);
        let (metrics, stats) = ev.finish(best_cost);
        let stats = SolveStats {
            elapsed: start.elapsed(),
            time_to_best,
            best_generation: best_gen,
            generations,
            ..stats
        };
        SolveOutcome {
            plan: best,
            objective: best_cost,
            stats,
            metrics,
        }
    }
}

/// Breed one generation: elites survive, the rest come from tournament
/// selection → crossover → mutation → local search. Offspring arrive
/// already sealed (finalized + scored incrementally), so this single
/// helper replaces the old separate parallel/serial `evaluate` paths.
///
/// With a `deadline`, breeding stops between offspring once the clock
/// runs out (a truncated generation still sorts and replaces, so the best
/// individual bred so far survives into the returned population). Without
/// one — the cold path — the clock is never read and the RNG stream is
/// untouched by the check.
fn step_generation(
    ev: &Evaluator<'_>,
    cfg: &HggaConfig,
    pop: &mut Vec<Chromosome>,
    rng: &mut SmallRng,
    scratch: &mut OpScratch,
    deadline: Option<Instant>,
) {
    let mut offspring: Vec<Chromosome> = Vec::with_capacity(cfg.population);
    // Elites survive unchanged.
    for e in pop.iter().take(ELITISM) {
        offspring.push(e.clone());
    }
    while offspring.len() < cfg.population {
        if !offspring.is_empty() && deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let pa = tournament(pop, rng);
        let pb = tournament(pop, rng);
        let mut child = if rng.gen_bool(CROSSOVER_RATE) {
            crossover(ev, &pop[pa], &pop[pb], rng, scratch)
        } else {
            pop[pa.min(pb)].clone()
        };
        if rng.gen_bool(MUTATION_RATE) {
            child = mutate(ev, child, rng, scratch);
        }
        if rng.gen_bool(cfg.local_search_rate) {
            child = local_search(ev, child, rng, scratch);
        }
        debug_check_sealed(ev, &child);
        offspring.push(child);
    }
    offspring.sort_by(|a, b| a.cost().total_cmp(&b.cost()));
    *pop = offspring;
}

fn tournament(pop: &[Chromosome], rng: &mut SmallRng) -> usize {
    (0..TOURNAMENT)
        .map(|_| rng.gen_range(0..pop.len()))
        .min_by(|&a, &b| pop[a].cost().total_cmp(&pop[b].cost()))
        .unwrap()
}

/// Build a random feasible chromosome by constructive merging from the
/// identity: up to `2n` draws of a kernel and one of its sharing
/// neighbours, merging their groups when the union is feasible.
pub fn random_chromosome(
    ev: &Evaluator<'_>,
    rng: &mut SmallRng,
    scratch: &mut OpScratch,
) -> Chromosome {
    let ctx = ev.ctx;
    let n = ctx.n_kernels();
    let mut ch = Chromosome::identity(ev);

    let attempts = 2 * n;
    for _ in 0..attempts {
        let k = rng.gen_range(0..n);
        let neigh = ctx.share.neighbors(KernelId(k as u32));
        if neigh.is_empty() {
            continue;
        }
        let m = neigh[rng.gen_range(0..neigh.len())] as usize;
        let (ga, gb) = (
            ch.slot_of(KernelId(k as u32)),
            ch.slot_of(KernelId(m as u32)),
        );
        if ga == gb {
            continue;
        }
        scratch.probe.clear();
        scratch.probe.extend_from_slice(ch.slot_members(ga));
        scratch.probe.extend_from_slice(ch.slot_members(gb));
        let e = ev.group(&scratch.probe);
        if e.feasible() {
            let (i, j) = (ch.position_of_slot(ga), ch.position_of_slot(gb));
            ch.merge_into(i, j, e);
        }
    }
    ch.finalize(ev, scratch);
    ch
}

/// Falkenauer group crossover: inject a selection of B's groups into A,
/// evict intersecting groups, first-fit the orphans, repair.
pub fn crossover(
    ev: &Evaluator<'_>,
    a: &Chromosome,
    b: &Chromosome,
    rng: &mut SmallRng,
    scratch: &mut OpScratch,
) -> Chromosome {
    // Donor groups: B's multi-member slots, in normalized plan order.
    scratch.donors.clear();
    for pos in 0..b.group_count() {
        if b.members_at(pos).len() >= 2 {
            scratch.donors.push(b.slot_id_at(pos));
        }
    }
    if scratch.donors.is_empty() {
        return a.clone();
    }
    // Inject 1..=ceil(half) random donor groups (selection order matters:
    // the injected groups land at the child's tail in this order).
    let count = rng.gen_range(1..=scratch.donors.len().div_ceil(2));
    let donors = std::mem::take(&mut scratch.donors);
    scratch.chosen.clear();
    scratch
        .chosen
        .extend(donors.choose_multiple(rng, count).copied());
    scratch.donors = donors;

    // Donor groups come from one partition, so they are disjoint by
    // construction; only overlaps with the recipient's groups need
    // resolving (evict the intersecting groups, re-seat their orphans).
    scratch.injected.clear();
    scratch.injected.resize(a.n_kernels(), false);
    for &sid in &scratch.chosen {
        for &k in b.slot_members(sid) {
            scratch.injected[k.index()] = true;
        }
    }

    let mut child = a.clone();
    scratch.orphans.clear();
    let recipient_groups = child.group_count();
    for pos in 0..recipient_groups {
        let hit = child
            .members_at(pos)
            .iter()
            .any(|k| scratch.injected[k.index()]);
        if hit {
            scratch.orphans.extend(
                child
                    .members_at(pos)
                    .iter()
                    .filter(|k| !scratch.injected[k.index()]),
            );
            child.kill_group(pos);
        }
    }
    child.compact_order();
    for &sid in &scratch.chosen {
        let eval = b.slot_eval(sid).expect("finalized donor has a known eval");
        child.push_group(b.slot_members(sid), Some(eval));
    }

    let mut orphans = std::mem::take(&mut scratch.orphans);
    first_fit(ev, &mut child, &mut orphans, rng, scratch);
    scratch.orphans = orphans;
    child.finalize(ev, scratch);
    child
}

/// Mutation: bipartition, eliminate, merge, or move one kernel.
pub fn mutate(
    ev: &Evaluator<'_>,
    mut ch: Chromosome,
    rng: &mut SmallRng,
    scratch: &mut OpScratch,
) -> Chromosome {
    match rng.gen_range(0..4u8) {
        3 => {
            // Bipartition a random multi-member group: the only operator
            // that can escape a mega-group local optimum whose improvement
            // requires a coordinated split.
            scratch.multi.clear();
            scratch
                .multi
                .extend((0..ch.group_count()).filter(|&p| ch.members_at(p).len() >= 3));
            if let Some(&gi) = scratch.multi.as_slice().choose(rng) {
                scratch.split_a.clear();
                scratch.split_b.clear();
                for &m in ch.members_at(gi) {
                    if rng.gen_bool(0.5) {
                        scratch.split_a.push(m);
                    } else {
                        scratch.split_b.push(m);
                    }
                }
                if !scratch.split_a.is_empty() && !scratch.split_b.is_empty() {
                    // Halves were not probed (the legacy operator did not
                    // either); finalize resolves them.
                    ch.replace_members(gi, &scratch.split_a, None);
                    ch.push_group(&scratch.split_b, None);
                }
            }
        }
        0 => {
            // Eliminate a random multi-member group, scatter its members.
            scratch.multi.clear();
            scratch
                .multi
                .extend((0..ch.group_count()).filter(|&p| ch.members_at(p).len() >= 2));
            if let Some(&gi) = scratch.multi.as_slice().choose(rng) {
                let mut orphans = std::mem::take(&mut scratch.orphans);
                orphans.clear();
                ch.remove_group_at(gi, &mut orphans);
                first_fit(ev, &mut ch, &mut orphans, rng, scratch);
                scratch.orphans = orphans;
            }
        }
        1 => {
            // Merge two random groups.
            if ch.group_count() >= 2 {
                let gi = rng.gen_range(0..ch.group_count());
                let gj = rng.gen_range(0..ch.group_count());
                if gi != gj {
                    scratch.probe.clear();
                    scratch.probe.extend_from_slice(ch.members_at(gi));
                    scratch.probe.extend_from_slice(ch.members_at(gj));
                    let e = ev.group(&scratch.probe);
                    if e.feasible() {
                        ch.merge_append(gi, gj, e);
                    }
                }
            }
        }
        _ => {
            // Move one kernel to another group. The `choose` happens before
            // the population-size guard — tuple evaluation order is part of
            // the pinned RNG stream.
            scratch.multi.clear();
            scratch
                .multi
                .extend((0..ch.group_count()).filter(|&p| ch.members_at(p).len() >= 2));
            let pick = scratch.multi.as_slice().choose(rng).copied();
            if let (Some(gi), true) = (pick, ch.group_count() >= 2) {
                let vi = rng.gen_range(0..ch.members_at(gi).len());
                let k = ch.members_at(gi)[vi];
                let gj = rng.gen_range(0..ch.group_count());
                if gj != gi {
                    // Grown target and shrunk source scored as one
                    // two-lane batch. The legacy operator skipped the
                    // source probe when the target failed; probing it
                    // anyway costs a shared lane sweep and cannot change
                    // the accept decision (evaluations are pure).
                    scratch.cands.clear();
                    scratch.cands.extend_members(ch.members_at(gj));
                    scratch.cands.push_member(k);
                    scratch.cands.seal();
                    let src_len = ch.members_at(gi).len() - 1;
                    if src_len > 0 {
                        for (x, &m) in ch.members_at(gi).iter().enumerate() {
                            if x != vi {
                                scratch.cands.push_member(m);
                            }
                        }
                        scratch.cands.seal();
                    }
                    ev.group_batch(&scratch.cands, &mut scratch.bevals);
                    let target = scratch.bevals[0];
                    let source = (target.feasible() && src_len > 0).then(|| scratch.bevals[1]);
                    let ok =
                        target.feasible() && (src_len == 0 || source.is_some_and(|e| e.feasible()));
                    if ok {
                        ch.push_member(gj, k, target);
                        ch.remove_member(gi, vi, source);
                    }
                }
            }
        }
    }
    ch.finalize(ev, scratch);
    ch
}

/// One sampled local-search action with the evaluations it probed.
enum Act {
    Merge(usize, usize, GroupEval),
    Move(usize, usize, usize, GroupEval, GroupEval),
}

/// Falkenauer's local-improvement step: greedy best-of-sample moves
/// (pairwise merges and single-kernel transfers) applied while they reduce
/// the summed group cost. Bounded per invocation so the GA stays the
/// driver and the hill climber the polisher. Group costs are read from the
/// chromosome's cached evaluations — no per-pass cost re-collection — and
/// the winning action is applied in place in the arena.
///
/// Candidate moves are *batched*: each sampling phase generates its
/// samples with the exact RNG draws of the one-at-a-time loop (the
/// chromosome is untouched while sampling, so the draws see identical
/// state), queues the implied groups in a [`kfuse_core::batch::CandidateBatch`],
/// scores them lane-per-candidate in one flush, and then replays the
/// winner selection in sample order with identical float comparisons —
/// the chosen action, and therefore the trajectory, is bit-for-bit that
/// of the scalar loop.
pub fn local_search(
    ev: &Evaluator<'_>,
    mut ch: Chromosome,
    rng: &mut SmallRng,
    scratch: &mut OpScratch,
) -> Chromosome {
    let cost_at = |ch: &Chromosome, pos: usize| -> f64 {
        ch.eval_at(pos)
            .expect("local_search input is sealed")
            .time_s
    };
    for _pass in 0..4 {
        let glen = ch.group_count();
        // Improving bipartitions first: sample random splits of larger
        // groups and take the best one found. Descriptor: [gi, ca, _, _, _]
        // with the halves at candidates ca and ca+1.
        scratch.cands.clear();
        scratch.descs.clear();
        for _ in 0..12 {
            let gi = rng.gen_range(0..glen);
            if ch.members_at(gi).len() < 3 {
                continue;
            }
            scratch.split_a.clear();
            scratch.split_b.clear();
            for &m in ch.members_at(gi) {
                if rng.gen_bool(0.5) {
                    scratch.split_a.push(m);
                } else {
                    scratch.split_b.push(m);
                }
            }
            if scratch.split_a.is_empty() || scratch.split_b.is_empty() {
                continue;
            }
            let ca = scratch.cands.push(&scratch.split_a);
            scratch.cands.push(&scratch.split_b);
            scratch.descs.push([gi as u32, ca as u32, 0, 0, 0]);
        }
        ev.group_batch(&scratch.cands, &mut scratch.bevals);
        let mut best_split: Option<(f64, usize, usize, GroupEval, GroupEval)> = None;
        for d in &scratch.descs {
            let (gi, ca) = (d[0] as usize, d[1] as usize);
            let (ea, eb) = (scratch.bevals[ca], scratch.bevals[ca + 1]);
            if ea.time_s.is_finite() && eb.time_s.is_finite() {
                let gain = cost_at(&ch, gi) - ea.time_s - eb.time_s;
                if gain > 1e-15 && best_split.as_ref().is_none_or(|(g, ..)| gain > *g) {
                    best_split = Some((gain, gi, ca, ea, eb));
                }
            }
        }
        if let Some((_, gi, ca, ea, eb)) = best_split {
            ch.replace_members(gi, scratch.cands.group(ca), Some(ea));
            ch.push_group(scratch.cands.group(ca + 1), Some(eb));
            continue;
        }

        // Merge/move samples. Descriptors: [0, i, j, _, c] for a merge of
        // i and j at candidate c; [1, i, j, vi, c] for a move with the
        // shrunk source at c and the grown target at c+1 (source first:
        // the probe order is part of the pinned trajectory).
        scratch.cands.clear();
        scratch.descs.clear();
        let samples = 48.min(glen * glen);
        for _ in 0..samples {
            let i = rng.gen_range(0..glen);
            let j = rng.gen_range(0..glen);
            if i == j {
                continue;
            }
            if rng.gen_bool(0.5) {
                scratch.cands.extend_members(ch.members_at(i));
                scratch.cands.extend_members(ch.members_at(j));
                let c = scratch.cands.seal();
                scratch.descs.push([0, i as u32, j as u32, 0, c as u32]);
            } else if ch.members_at(i).len() >= 2 {
                let vi = rng.gen_range(0..ch.members_at(i).len());
                let k = ch.members_at(i)[vi];
                for (x, &m) in ch.members_at(i).iter().enumerate() {
                    if x != vi {
                        scratch.cands.push_member(m);
                    }
                }
                let c = scratch.cands.seal();
                scratch.cands.extend_members(ch.members_at(j));
                scratch.cands.push_member(k);
                scratch.cands.seal();
                scratch
                    .descs
                    .push([1, i as u32, j as u32, vi as u32, c as u32]);
            }
        }
        ev.group_batch(&scratch.cands, &mut scratch.bevals);
        let mut best: Option<(f64, Act)> = None;
        for d in &scratch.descs {
            let (i, j, c) = (d[1] as usize, d[2] as usize, d[4] as usize);
            if d[0] == 0 {
                let e = scratch.bevals[c];
                if e.time_s.is_finite() {
                    let gain = cost_at(&ch, i) + cost_at(&ch, j) - e.time_s;
                    if gain > 1e-15 && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                        best = Some((gain, Act::Merge(i, j, e)));
                    }
                }
            } else {
                let vi = d[3] as usize;
                let (es, et) = (scratch.bevals[c], scratch.bevals[c + 1]);
                if es.time_s.is_finite() && et.time_s.is_finite() {
                    let gain = cost_at(&ch, i) + cost_at(&ch, j) - es.time_s - et.time_s;
                    if gain > 1e-15 && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                        best = Some((gain, Act::Move(i, j, vi, es, et)));
                    }
                }
            }
        }
        match best {
            Some((_, Act::Merge(i, j, e))) => {
                ch.merge_into(i, j, e);
            }
            Some((_, Act::Move(i, j, vi, es, et))) => {
                let k = ch.members_at(i)[vi];
                ch.push_member(j, k, et);
                ch.remove_member(i, vi, Some(es));
            }
            None => break,
        }
    }
    ch.finalize(ev, scratch);
    ch
}

/// Insert orphans into existing feasible groups, else as singletons.
///
/// Each orphan draws a bounded (8-host) random sample of the groups and is
/// seated in the first feasible host in sample order. The probing is *decisive*:
/// `sample[0]` is scored alone — it seats the orphan four times in five —
/// and only when it is infeasible is the rest of the sample scored, as one
/// lane batch. Evaluations are pure, so probing past the seat could never
/// change it; it only filled the memo with groups nobody reads.
/// Placements change membership, so batching stays within one orphan.
fn first_fit(
    ev: &Evaluator<'_>,
    ch: &mut Chromosome,
    orphans: &mut [KernelId],
    rng: &mut SmallRng,
    scratch: &mut OpScratch,
) {
    orphans.shuffle(rng);
    for &k in orphans.iter() {
        let mut idxs = std::mem::take(&mut scratch.idxs);
        idxs.clear();
        idxs.extend(0..ch.group_count());
        idxs.shuffle(rng);
        let sample = &idxs[..idxs.len().min(8)];
        let mut seat = None;
        if let Some((&first, rest)) = sample.split_first() {
            scratch.probe.clear();
            scratch.probe.extend_from_slice(ch.members_at(first));
            scratch.probe.push(k);
            let e = ev.group(&scratch.probe);
            if e.feasible() {
                seat = Some((first, e));
            } else {
                scratch.cands.clear();
                for &gi in rest {
                    scratch.cands.extend_members(ch.members_at(gi));
                    scratch.cands.push_member(k);
                    scratch.cands.seal();
                }
                ev.group_batch(&scratch.cands, &mut scratch.bevals);
                seat = rest
                    .iter()
                    .zip(&scratch.bevals)
                    .find(|(_, e)| e.feasible())
                    .map(|(&gi, &e)| (gi, e));
            }
        }
        match seat {
            Some((gi, e)) => ch.push_member(gi, k, e),
            None => {
                ch.push_group(&[k], Some(ev.singleton(k)));
            }
        }
        scratch.idxs = idxs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::fuse::condensation_order;
    use kfuse_core::model::ProposedModel;
    use kfuse_core::pipeline::prepare;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::{Expr, Program};

    /// Six kernels over a shared input with two dependency chains.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [256, 128, 8]);
        let a = pb.array("A");
        let [b, c, d, e, f, g] = pb.arrays(["B", "C", "D", "E", "F", "G"]);
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::load(b, Offset::new(1, 0, 0)) * Expr::lit(2.0))
            .build();
        pb.kernel("k2")
            .write(d, Expr::at(a) - Expr::lit(3.0))
            .build();
        pb.kernel("k3").write(e, Expr::at(d) + Expr::at(a)).build();
        pb.kernel("k4").write(f, Expr::at(c) + Expr::at(e)).build();
        pb.kernel("k5")
            .write(g, Expr::at(a) * Expr::lit(0.5))
            .build();
        pb.build()
    }

    fn quick_config(seed: u64) -> HggaConfig {
        HggaConfig {
            population: 30,
            max_generations: 60,
            stall_generations: 15,
            seed,
            ..HggaConfig::default()
        }
    }

    #[test]
    fn hgga_beats_identity_plan() {
        let (_, ctx) = prepare(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let solver = HggaSolver {
            config: quick_config(7),
        };
        let out = solver.solve(&ctx, &model);
        let ev = Evaluator::new(&ctx, &model);
        let id_cost = ev.plan(&FusionPlan::identity(6));
        assert!(out.objective.is_finite());
        assert!(
            out.objective < id_cost,
            "HGGA {} vs identity {id_cost}",
            out.objective
        );
        // Result must validate and fuse at least one pair.
        assert!(ctx.validate(&out.plan).is_ok());
        assert!(out.plan.new_kernel_count() >= 1);
    }

    #[test]
    fn hgga_is_deterministic_per_seed() {
        let (_, ctx) = prepare(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let s1 = HggaSolver {
            config: quick_config(42),
        }
        .solve(&ctx, &model);
        let s2 = HggaSolver {
            config: quick_config(42),
        }
        .solve(&ctx, &model);
        assert_eq!(s1.plan, s2.plan);
        assert_eq!(s1.objective, s2.objective);
    }

    #[test]
    fn stats_are_populated() {
        let (_, ctx) = prepare(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let out = HggaSolver {
            config: quick_config(3),
        }
        .solve(&ctx, &model);
        assert!(out.stats.generations >= 1);
        assert!(out.stats.evaluations >= 1);
        assert!(out.stats.elapsed >= out.stats.time_to_best);
    }

    #[test]
    fn all_returned_plans_are_feasible_across_seeds() {
        let (_, ctx) = prepare(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        for seed in 0..5 {
            let out = HggaSolver {
                config: quick_config(seed),
            }
            .solve(&ctx, &model);
            assert!(ctx.validate(&out.plan).is_ok(), "seed {seed}");
            assert!(
                condensation_order(&out.plan, &ctx.exec).is_ok(),
                "seed {seed} cycle"
            );
        }
    }

    /// `(seed, plan, objective bits, generations, best generation)`; the
    /// plan is FNV-1a of its compact JSON.
    type Trajectory = (u64, u64, u64, u32, u32);

    fn plan_digest(plan: &FusionPlan) -> u64 {
        let json = serde_json::to_string(plan).unwrap();
        json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Solve `ctx` once per golden row, with `config(seed)`, and require
    /// the row back bit for bit. The rows were recorded from the
    /// `Vec<Vec<KernelId>>` GA loop that preceded the flat chromosome,
    /// before that loop was deleted: a mismatch means the trajectory changed.
    fn assert_trajectories(
        ctx: &PlanContext,
        config: impl Fn(u64) -> HggaConfig,
        golden: &[Trajectory],
    ) {
        let model = ProposedModel::default();
        let actual: Vec<Trajectory> = golden
            .iter()
            .map(|&(seed, ..)| {
                let out = HggaSolver {
                    config: config(seed),
                }
                .solve(ctx, &model);
                (
                    seed,
                    plan_digest(&out.plan),
                    out.objective.to_bits(),
                    out.stats.generations,
                    out.stats.best_generation,
                )
            })
            .collect();
        if actual != golden {
            for (seed, plan, objective, generations, best) in &actual {
                eprintln!("    ({seed}, {plan:#018x}, {objective:#018x}, {generations}, {best}),");
            }
            panic!("the GA trajectory changed: the rows above are what this tree produces");
        }
    }

    #[test]
    fn toy_program_trajectories_match_recorded_rows() {
        let (_, ctx) = prepare(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        #[rustfmt::skip]
        const GOLDEN: &[Trajectory] = &[
            (7, 0x75bc995bfeb65ac6, 0x3f164c06d574c299, 15, 0),
            (42, 0x75bc995bfeb65ac6, 0x3f164c06d574c299, 15, 0),
            (1234, 0x75bc995bfeb65ac6, 0x3f164c06d574c299, 15, 0),
        ];
        assert_trajectories(&ctx, quick_config, GOLDEN);
    }

    #[test]
    fn flat_solver_matches_reference_on_synthetic_workload() {
        // Same pin as above, on a machine-generated 24-kernel program: the
        // recorded trajectories carry real dependency/cycle pressure, not
        // just the 6-kernel toy's.
        let cfg = kfuse_workloads::synth::SynthConfig {
            kernels: 24,
            ..Default::default()
        };
        let p = kfuse_workloads::synth::generate(&cfg);
        let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        #[rustfmt::skip]
        const SYNTH24: &[Trajectory] = &[
            (1, 0x09e7c773cf08a155, 0x3f55d4c6533eed61, 29, 14),
            (9, 0x5ee5373a126d6911, 0x3f559424b78d8068, 27, 12),
        ];
        assert_trajectories(&ctx, quick_config, SYNTH24);

        // One case at the size where `first_fit` samples 8 of many hosts
        // (60 kernels, the Table VI population): the decisive probe order
        // must seat every orphan where the one-at-a-time loop did.
        let p = kfuse_workloads::synth::scaling(60);
        let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let config = |seed| HggaConfig {
            population: 100,
            max_generations: 8,
            stall_generations: 8,
            seed,
            ..HggaConfig::default()
        };
        #[rustfmt::skip]
        const SCALING60: &[Trajectory] = &[
            (5, 0x3466abc92ccf38bf, 0x3f089d9b62217fe8, 8, 4),
        ];
        assert_trajectories(&ctx, config, SCALING60);
    }

    #[test]
    fn first_fit_probes_decisively_and_seats_like_the_reference() {
        let p = kfuse_workloads::synth::scaling(60);
        let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        // A second memo answers "which host is feasible?" without
        // disturbing the probe counts under test.
        let oracle = Evaluator::new(&ctx, &model);
        let mut scratch = OpScratch::new();
        let mut rng = SmallRng::seed_from_u64(77);
        let (mut seated_first, mut seated_later, mut unseated) = (0, 0, 0);
        // Hosts from two populations: fresh constructive chromosomes (many
        // small hosts, the first one usually fits) and an evolved plan
        // (few large hosts, it usually does not).
        let evolved = HggaSolver {
            config: HggaConfig {
                max_generations: 10,
                ..quick_config(3)
            },
        }
        .solve(&ctx, &model)
        .plan;
        for trial in 0..240 {
            let mut ch = if trial % 2 == 0 {
                random_chromosome(&ev, &mut rng, &mut scratch)
            } else {
                let mut ch = Chromosome::from_plan(&evolved, &ev);
                ch.finalize(&ev, &mut scratch);
                ch
            };
            // Orphan one kernel of a multi-member group (its remainder is
            // left unscored, as after crossover's evictions).
            let Some(gi) = (0..ch.group_count())
                .filter(|&g| ch.members_at(g).len() >= 2)
                .nth(trial / 2 % 6)
            else {
                continue;
            };
            let k = ch.members_at(gi)[0];
            let rest = ch.members_at(gi)[1..].to_vec();
            ch.replace_members(gi, &rest, None);
            let mut groups: Vec<Vec<KernelId>> = (0..ch.group_count())
                .map(|g| ch.members_at(g).to_vec())
                .collect();

            // Replay the draws to learn the sample before the call.
            let mut replay = rng.clone();
            [k].shuffle(&mut replay);
            let mut idxs: Vec<usize> = (0..groups.len()).collect();
            idxs.shuffle(&mut replay);
            let sample = &idxs[..idxs.len().min(8)];
            // The definition: the orphan joins the first host in sample
            // order whose union with it is feasible, else stays alone.
            let seat = sample.iter().copied().find(|&gi| {
                let mut union = groups[gi].clone();
                union.push(k);
                oracle.group(&union).feasible()
            });
            let first = groups[sample[0]].clone();
            match seat {
                Some(gi) => groups[gi].push(k),
                None => groups.push(vec![k]),
            }

            let before = ev.metrics().get(Counter::MemoProbes);
            first_fit(&ev, &mut ch, &mut [k], &mut rng, &mut scratch);
            let probes = ev.metrics().get(Counter::MemoProbes) - before;

            let host = ch.slot_members(ch.slot_of(k));
            if seat == Some(sample[0]) {
                assert_eq!(probes, 1, "a feasible first host needs one probe");
                assert_eq!(host[..host.len() - 1], first[..]);
                seated_first += 1;
            } else {
                assert_eq!(probes, sample.len() as u64);
                if host.len() > 1 {
                    seated_later += 1;
                } else {
                    unseated += 1;
                }
            }
            let got: Vec<Vec<KernelId>> = (0..ch.group_count())
                .map(|g| ch.members_at(g).to_vec())
                .collect();
            assert_eq!(FusionPlan::new(got), FusionPlan::new(groups));
            assert_eq!(rng, replay, "exactly the replayed draws");
        }
        assert!(
            seated_first > 0 && seated_later + unseated > 0,
            "both branches must run: {seated_first} / {seated_later} / {unseated}"
        );
    }
}
