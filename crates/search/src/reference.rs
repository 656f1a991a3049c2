//! Reference (pre-delta) HGGA operators over `Vec<Vec<KernelId>>` plans.
//!
//! These are the genetic operators and the single-population solver loop
//! exactly as they stood before the flat-chromosome rework ([`crate::chromo`]).
//! They are kept, unmodified, as the **pinning oracle**: the production
//! solver must reproduce this code's trajectory bit for bit for any seed
//! (the `single_island_reproduces_pre_island_solver_exactly` and
//! reference-match tests in [`crate::hgga`] diff against
//! [`reference::solve`](solve)). Every RNG draw, probe order and
//! transient group order below is therefore load-bearing; do not "clean
//! up" this module. The flat representation's speed against this
//! clone-heavy original was measured once (EXPERIMENTS.md, *Historical
//! measurements*) and is not re-measured.

use crate::eval::Evaluator;
use kfuse_core::fuse::condensation_order;
use kfuse_core::model::PerfModel;
use kfuse_core::pipeline::{SolveOutcome, SolveStats};
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_ir::KernelId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::Instant;

use crate::hgga::{HggaConfig, CROSSOVER_RATE, ELITISM, MUTATION_RATE, TOURNAMENT};

/// A plan with its cached objective.
#[derive(Clone)]
pub struct Individual {
    /// The (repaired, feasible-or-identity) plan.
    pub plan: FusionPlan,
    /// `Evaluator::plan` objective.
    pub cost: f64,
}

/// Score plans in parallel with rayon.
pub fn evaluate(ev: &Evaluator<'_>, plans: Vec<FusionPlan>) -> Vec<Individual> {
    plans
        .into_par_iter()
        .map(|plan| {
            let cost = ev.plan(&plan);
            Individual { plan, cost }
        })
        .collect()
}

/// Tournament selection: best of `k` uniform draws.
pub fn tournament(pop: &[Individual], k: usize, rng: &mut SmallRng) -> usize {
    (0..k.max(1))
        .map(|_| rng.gen_range(0..pop.len()))
        .min_by(|&a, &b| pop[a].cost.total_cmp(&pop[b].cost))
        .unwrap()
}

/// Build a random feasible plan by constructive merging from the identity.
pub fn random_plan(ctx: &PlanContext, ev: &Evaluator<'_>, rng: &mut SmallRng) -> FusionPlan {
    let n = ctx.n_kernels();
    let mut group_of: Vec<usize> = (0..n).collect();
    let mut groups: Vec<Vec<KernelId>> = (0..n).map(|i| vec![KernelId(i as u32)]).collect();

    let attempts = 2 * n;
    for _ in 0..attempts {
        let k = rng.gen_range(0..n);
        let neigh = ctx.share.neighbors(KernelId(k as u32));
        if neigh.is_empty() {
            continue;
        }
        let m = neigh[rng.gen_range(0..neigh.len())] as usize;
        let (ga, gb) = (group_of[k], group_of[m]);
        if ga == gb || groups[ga].is_empty() || groups[gb].is_empty() {
            continue;
        }
        let mut merged = groups[ga].clone();
        merged.extend_from_slice(&groups[gb]);
        if ev.feasible(&merged) {
            for &kid in &groups[gb] {
                group_of[kid.index()] = ga;
            }
            groups[ga] = merged;
            groups[gb].clear();
        }
    }
    let plan = FusionPlan::new(groups.into_iter().filter(|g| !g.is_empty()).collect());
    repair(ctx, ev, plan, rng)
}

/// Falkenauer group crossover: inject a selection of B's groups into A,
/// evict intersecting groups, first-fit the orphans, repair.
pub fn crossover(
    ctx: &PlanContext,
    ev: &Evaluator<'_>,
    a: &FusionPlan,
    b: &FusionPlan,
    rng: &mut SmallRng,
) -> FusionPlan {
    let donors: Vec<&Vec<KernelId>> = b.groups.iter().filter(|g| g.len() >= 2).collect();
    if donors.is_empty() {
        return a.clone();
    }
    // Inject 1..=ceil(half) random donor groups.
    let count = rng.gen_range(1..=donors.len().div_ceil(2));
    let mut chosen: Vec<Vec<KernelId>> = donors
        .choose_multiple(rng, count)
        .map(|g| (*g).clone())
        .collect();
    // Donor groups come from one partition, so they are disjoint by
    // construction; only overlaps with the recipient's groups need
    // resolving (evict the intersecting groups, re-seat their orphans).
    let injected: std::collections::HashSet<KernelId> = chosen.iter().flatten().copied().collect();

    let mut child: Vec<Vec<KernelId>> = Vec::new();
    let mut orphans: Vec<KernelId> = Vec::new();
    for g in &a.groups {
        if g.iter().any(|k| injected.contains(k)) {
            orphans.extend(g.iter().filter(|k| !injected.contains(k)));
        } else {
            child.push(g.clone());
        }
    }
    child.append(&mut chosen);

    first_fit(ev, &mut child, orphans, rng);
    repair(ctx, ev, FusionPlan::new(child), rng)
}

/// Mutation: bipartition, eliminate, merge, or move one kernel.
pub fn mutate(
    ctx: &PlanContext,
    ev: &Evaluator<'_>,
    plan: &FusionPlan,
    rng: &mut SmallRng,
) -> FusionPlan {
    let mut groups = plan.groups.clone();
    match rng.gen_range(0..4u8) {
        3 => {
            // Bipartition a random multi-member group: the only operator
            // that can escape a mega-group local optimum whose improvement
            // requires a coordinated split.
            let multi: Vec<usize> = groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.len() >= 3)
                .map(|(i, _)| i)
                .collect();
            if let Some(&gi) = multi.as_slice().choose(rng) {
                let members = groups[gi].clone();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                for &m in &members {
                    if rng.gen_bool(0.5) {
                        a.push(m);
                    } else {
                        b.push(m);
                    }
                }
                if !a.is_empty() && !b.is_empty() {
                    groups[gi] = a;
                    groups.push(b);
                }
            }
        }
        0 => {
            // Eliminate a random multi-member group, scatter its members.
            let multi: Vec<usize> = groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.len() >= 2)
                .map(|(i, _)| i)
                .collect();
            if let Some(&gi) = multi.as_slice().choose(rng) {
                let orphans = groups.remove(gi);
                first_fit(ev, &mut groups, orphans, rng);
            }
        }
        1 => {
            // Merge two random groups.
            if groups.len() >= 2 {
                let gi = rng.gen_range(0..groups.len());
                let gj = rng.gen_range(0..groups.len());
                if gi != gj {
                    let mut merged = groups[gi].clone();
                    merged.extend_from_slice(&groups[gj]);
                    if ev.feasible(&merged) {
                        let (lo, hi) = (gi.min(gj), gi.max(gj));
                        groups.remove(hi);
                        groups.remove(lo);
                        groups.push(merged);
                    }
                }
            }
        }
        _ => {
            // Move one kernel to another group.
            let from: Vec<usize> = groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.len() >= 2)
                .map(|(i, _)| i)
                .collect();
            if let (Some(&gi), true) = (from.as_slice().choose(rng), groups.len() >= 2) {
                let vi = rng.gen_range(0..groups[gi].len());
                let k = groups[gi][vi];
                let gj = rng.gen_range(0..groups.len());
                if gj != gi {
                    let mut target = groups[gj].clone();
                    target.push(k);
                    let mut source = groups[gi].clone();
                    source.remove(vi);
                    if ev.feasible(&target) && (source.is_empty() || ev.feasible(&source)) {
                        groups[gj] = target;
                        if source.is_empty() {
                            groups.remove(gi);
                        } else {
                            groups[gi] = source;
                        }
                    }
                }
            }
        }
    }
    repair(ctx, ev, FusionPlan::new(groups), rng)
}

/// Falkenauer's local-improvement step: greedy best-of-sample moves
/// (pairwise merges and single-kernel transfers) applied while they reduce
/// the summed group cost. Bounded per invocation so the GA stays the
/// driver and the hill climber the polisher.
pub fn local_search(
    ctx: &PlanContext,
    ev: &Evaluator<'_>,
    plan: FusionPlan,
    rng: &mut SmallRng,
) -> FusionPlan {
    let mut groups = plan.groups;
    for _pass in 0..4 {
        let costs: Vec<f64> = groups.iter().map(|g| ev.group(g).time_s).collect();
        // Improving bipartitions first: sample random splits of larger
        // groups and take the best one found.
        let mut best_split: Option<(f64, usize, Vec<KernelId>, Vec<KernelId>)> = None;
        for _ in 0..12 {
            let gi = rng.gen_range(0..groups.len());
            if groups[gi].len() < 3 {
                continue;
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for &m in &groups[gi] {
                if rng.gen_bool(0.5) {
                    a.push(m);
                } else {
                    b.push(m);
                }
            }
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ta, tb) = (ev.group(&a).time_s, ev.group(&b).time_s);
            if ta.is_finite() && tb.is_finite() {
                let gain = costs[gi] - ta - tb;
                if gain > 1e-15 && best_split.as_ref().is_none_or(|(g, ..)| gain > *g) {
                    best_split = Some((gain, gi, a, b));
                }
            }
        }
        if let Some((_, gi, a, b)) = best_split {
            groups[gi] = a;
            groups.push(b);
            continue;
        }

        let mut best: Option<(f64, usize, usize, Option<usize>)> = None; // (gain, i, j, moved idx)
        let samples = 48.min(groups.len() * groups.len());
        for _ in 0..samples {
            let i = rng.gen_range(0..groups.len());
            let j = rng.gen_range(0..groups.len());
            if i == j {
                continue;
            }
            if rng.gen_bool(0.5) {
                // Merge i and j.
                let mut merged = groups[i].clone();
                merged.extend_from_slice(&groups[j]);
                let t = ev.group(&merged).time_s;
                if t.is_finite() {
                    let gain = costs[i] + costs[j] - t;
                    if gain > 1e-15 && best.is_none_or(|(g, ..)| gain > g) {
                        best = Some((gain, i, j, None));
                    }
                }
            } else if groups[i].len() >= 2 {
                // Move one kernel i→j.
                let vi = rng.gen_range(0..groups[i].len());
                let k = groups[i][vi];
                let mut target = groups[j].clone();
                target.push(k);
                let mut source = groups[i].clone();
                source.remove(vi);
                let ts = if source.is_empty() {
                    0.0
                } else {
                    ev.group(&source).time_s
                };
                let tt = ev.group(&target).time_s;
                if ts.is_finite() && tt.is_finite() {
                    let gain = costs[i] + costs[j] - ts - tt;
                    if gain > 1e-15 && best.is_none_or(|(g, ..)| gain > g) {
                        best = Some((gain, i, j, Some(vi)));
                    }
                }
            }
        }
        match best {
            Some((_, i, j, None)) => {
                let gj = std::mem::take(&mut groups[j]);
                groups[i].extend(gj);
                groups.retain(|g| !g.is_empty());
            }
            Some((_, i, j, Some(vi))) => {
                let k = groups[i].remove(vi);
                groups[j].push(k);
                groups.retain(|g| !g.is_empty());
            }
            None => break,
        }
    }
    repair(ctx, ev, FusionPlan::new(groups), rng)
}

/// Insert orphans into existing feasible groups, else as singletons.
pub fn first_fit(
    ev: &Evaluator<'_>,
    groups: &mut Vec<Vec<KernelId>>,
    mut orphans: Vec<KernelId>,
    rng: &mut SmallRng,
) {
    orphans.shuffle(rng);
    for k in orphans {
        let mut placed = false;
        // Try a bounded random sample of hosts.
        let mut idxs: Vec<usize> = (0..groups.len()).collect();
        idxs.shuffle(rng);
        for &gi in idxs.iter().take(8) {
            let mut cand = groups[gi].clone();
            cand.push(k);
            if ev.feasible(&cand) {
                groups[gi] = cand;
                placed = true;
                break;
            }
        }
        if !placed {
            groups.push(vec![k]);
        }
    }
}

/// Repair to full feasibility: split infeasible groups into singletons and
/// break condensation cycles.
pub fn repair(
    ctx: &PlanContext,
    ev: &Evaluator<'_>,
    plan: FusionPlan,
    _rng: &mut SmallRng,
) -> FusionPlan {
    let mut groups: Vec<Vec<KernelId>> = Vec::with_capacity(plan.groups.len());
    for g in plan.groups {
        if g.len() == 1 || ev.feasible(&g) {
            groups.push(g);
        } else {
            for k in g {
                groups.push(vec![k]);
            }
        }
    }
    // Break condensation cycles by splitting one involved group at a time.
    loop {
        let candidate = FusionPlan::new(groups.clone());
        // Metrics-only instrumentation (no effect on the trajectory): the
        // scaling study compares per-variant condensation-check counts.
        ev.count_condensation();
        match condensation_order(&candidate, &ctx.exec) {
            Ok(_) => return candidate,
            Err(kfuse_core::fuse::FuseError::OrderCycle(a, _)) => {
                // Split the first stuck group.
                let gi = a.min(candidate.groups.len() - 1);
                let victim = candidate.groups[gi].clone();
                groups = candidate.groups;
                groups.remove(gi);
                for k in victim {
                    groups.push(vec![k]);
                }
            }
            Err(_) => return FusionPlan::identity(ctx.n_kernels()),
        }
    }
}

/// The single-population solver loop exactly as it stood before the
/// flat-chromosome rework. The production loop must match this
/// trajectory bit for bit.
pub fn solve(cfg: &HggaConfig, ctx: &PlanContext, model: &dyn PerfModel) -> SolveOutcome {
    let ev = Evaluator::new(ctx, model);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let start = Instant::now();

    let mut plans: Vec<FusionPlan> = (0..cfg.population)
        .map(|_| random_plan(ctx, &ev, &mut rng))
        .collect();
    let mut pop: Vec<Individual> = evaluate(&ev, std::mem::take(&mut plans));
    pop.sort_by(|a, b| a.cost.total_cmp(&b.cost));

    let mut best = pop[0].plan.clone();
    let mut best_cost = pop[0].cost;
    let mut best_gen = 0u32;
    let mut time_to_best = start.elapsed();
    let mut stall = 0u32;
    let mut generations = 0u32;

    for gen in 1..=cfg.max_generations {
        generations = gen;
        let mut offspring: Vec<FusionPlan> = Vec::with_capacity(cfg.population);
        for e in pop.iter().take(ELITISM) {
            offspring.push(e.plan.clone());
        }
        while offspring.len() < cfg.population {
            let pa = tournament(&pop, TOURNAMENT, &mut rng);
            let pb = tournament(&pop, TOURNAMENT, &mut rng);
            let mut child = if rng.gen_bool(CROSSOVER_RATE) {
                crossover(ctx, &ev, &pop[pa].plan, &pop[pb].plan, &mut rng)
            } else {
                pop[pa.min(pb)].plan.clone()
            };
            if rng.gen_bool(MUTATION_RATE) {
                child = mutate(ctx, &ev, &child, &mut rng);
            }
            if rng.gen_bool(cfg.local_search_rate) {
                child = local_search(ctx, &ev, child, &mut rng);
            }
            offspring.push(child);
        }
        let mut next = evaluate(&ev, offspring);
        next.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        pop = next;

        if pop[0].cost < best_cost - 1e-15 {
            best_cost = pop[0].cost;
            best = pop[0].plan.clone();
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

    // Registry parity: the frozen loop above counts generations by hand;
    // mirror the total into the registry once so the snapshot-derived
    // stats view (`SolveStats::from_metrics`) agrees with the hand-counted
    // block below. No RNG draw, no trajectory change.
    ev.count(kfuse_obs::Counter::Generations, generations as u64);

    SolveOutcome {
        plan: best,
        objective: best_cost,
        stats: SolveStats {
            generations,
            evaluations: ev.evaluations(),
            elapsed: start.elapsed(),
            time_to_best,
            best_generation: best_gen,
            probes: ev.probes(),
            cache_hit_rate: ev.hit_rate(),
            condensation_checks: ev.condensation_checks(),
            miss_rate: ev.miss_rate(),
            miss_ns: ev.miss_ns(),
            synth_ns: ev.synth_ns(),
            avg_batch_fill: ev.avg_batch_fill(),
        },
        metrics: ev.snapshot(),
    }
}
