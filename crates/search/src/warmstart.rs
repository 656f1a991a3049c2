//! Cross-solve reuse: cache-served plans, warm-started searches, and the
//! anytime `--budget-ms` mode.
//!
//! [`WarmSolver`] wraps the hierarchical solver with the persistent
//! [`PlanCache`]:
//!
//! - **exact hit** — the program's order-insensitive fingerprint matches a
//!   cached entry. The cached plan is rebuilt, re-validated through the
//!   independent `kfuse-verify` checker, re-scored, and served without any
//!   search. A plan that fails re-validation (cache corruption, model
//!   drift) silently degrades to the near-hit path.
//! - **near hit** — the nearest cached entry by kernel-signature overlap
//!   is *remapped* onto the current program (cached kernels matched to
//!   current kernels by local signature, the existing sub-program
//!   machinery's dense-renumbering convention) and injected as a
//!   warm-start seed; under the hierarchical path, regions whose
//!   sub-fingerprint is cached additionally skip their greedy floor.
//! - **miss** — a normal cold solve, whose result is inserted into the
//!   cache for next time.
//!
//! With a budget, the deadline threads through every generation and epoch
//! loop, and the result is floored at the greedy plan (programs up to
//! [`HggaHierSolver::GREEDY_FLOOR_LIMIT`]), so an arbitrarily small budget
//! still returns a plan no worse than the polynomial baseline.
//!
//! Without a cache directory and without a budget the wrapper passes
//! default [`SolveControls`] through, which is bit-for-bit the plain
//! hierarchical solve — cold-path determinism is untouched.

use crate::eval::Evaluator;
use crate::greedy::GreedySolver;
use crate::hgga::SolveControls;
use crate::partition::{partition_regions, HggaHierSolver, MIN_COUPLING};
use crate::plancache::{CacheEntry, PlanCache, CACHE_VERSION};
use kfuse_core::fingerprint::region_fingerprint;
use kfuse_core::model::PerfModel;
use kfuse_core::pipeline::{SolveOutcome, SolveStats, Solver};
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_ir::KernelId;
use kfuse_obs::{Counter, Gauge, MetricsRegistry, ObsHandle, SpanId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `cache_probe` span outcome codes (second span argument).
const PROBE_MISS: u64 = 0;
const PROBE_NEAR: u64 = 1;
const PROBE_EXACT: u64 = 2;

/// The cache-aware, budget-aware solver the CLI uses for `--cache-dir`
/// and `--budget-ms`.
///
/// ```
/// use kfuse_core::pipeline::{self, Solver};
/// use kfuse_core::model::ProposedModel;
/// use kfuse_gpu::{FpPrecision, GpuSpec};
/// use kfuse_ir::{builder::ProgramBuilder, expr::Expr};
/// use kfuse_search::{HggaHierSolver, WarmSolver};
///
/// let mut pb = ProgramBuilder::new("demo", [256, 128, 16]);
/// let (a, b, c) = (pb.array("A"), pb.array("B"), pb.array("C"));
/// pb.kernel("k0").write(b, Expr::at(a) + Expr::lit(1.0)).build();
/// pb.kernel("k1").write(c, Expr::at(a) * Expr::lit(2.0)).build();
/// let (_, ctx) = pipeline::prepare(&pb.build(), &GpuSpec::k20x(), FpPrecision::Double);
///
/// // No cache dir, no budget: bit-for-bit the plain hierarchical solve.
/// let warm = WarmSolver::new(HggaHierSolver::with_seed(17), None, None);
/// let out = warm.solve(&ctx, &ProposedModel::default());
/// assert!(out.objective.is_finite());
/// ```
///
/// With a cache directory the same call serves exact repeats without
/// search and warm-starts near repeats; the daemon threads a shared
/// in-memory cache through [`WarmSolver::solve_shared`] instead, and
/// answers repeats of a context it kept through
/// [`WarmSolver::serve_exact`].
#[derive(Debug, Clone)]
pub struct WarmSolver {
    /// The solver that runs when the cache cannot answer outright.
    pub inner: HggaHierSolver,
    /// Cache directory (`plans.jsonl` inside it); `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Wall-clock budget for the whole solve; `None` runs to convergence.
    pub budget: Option<Duration>,
    /// Minimum kernel-signature overlap for a near hit (fraction of the
    /// larger program's kernels with signature-identical counterparts).
    pub min_overlap: f64,
}

impl WarmSolver {
    /// Wrap `inner` with a cache directory and/or budget.
    pub fn new(
        inner: HggaHierSolver,
        cache_dir: Option<PathBuf>,
        budget: Option<Duration>,
    ) -> Self {
        WarmSolver {
            inner,
            cache_dir,
            budget,
            min_overlap: 0.3,
        }
    }
}

impl Solver for WarmSolver {
    fn name(&self) -> &str {
        "hgga-warm"
    }

    fn solve_observed(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
    ) -> SolveOutcome {
        let cache = self.cache_dir.as_ref().map(|dir| {
            let c = PlanCache::open(
                dir,
                &ctx.info.gpu.name,
                &format!("{:?}", ctx.info.precision),
            );
            for w in &c.warnings {
                eprintln!("warning: {w}");
            }
            Mutex::new(c)
        });
        self.solve_shared(ctx, model, obs, cache.as_ref())
    }
}

/// Lock a shared cache, recovering from poisoning: cache mutations are
/// line-atomic on disk, so a panicked peer leaves nothing worth
/// propagating (a long-running daemon must not wedge on one bad request).
fn lock(m: &Mutex<PlanCache>) -> std::sync::MutexGuard<'_, PlanCache> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl WarmSolver {
    /// [`Solver::solve_observed`] against an external, shareable plan
    /// cache: the daemon keeps one [`PlanCache`] per device/precision
    /// pair behind a [`Mutex`] and threads it through every request, so
    /// cache state (entries, warm tables) persists *across* solves
    /// instead of being reloaded per process. The lock is held only
    /// around probe and insert, never during the solve itself.
    ///
    /// With `cache: None` this is a plain (budget-aware) solve; with
    /// [`WarmSolver::solve_observed`] the wrapper opens its own cache
    /// from [`WarmSolver::cache_dir`] and delegates here.
    pub fn solve_shared(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
        cache: Option<&Mutex<PlanCache>>,
    ) -> SolveOutcome {
        let start = Instant::now();
        let deadline = self.budget.map(|b| start + b);
        let reg = MetricsRegistry::new();
        let mut controls = SolveControls {
            deadline,
            ..Default::default()
        };

        // Probe: identify the program (once per context — the daemon
        // reads the same identity for its response), look for an exact or
        // near entry. Candidate entries leave the lock as shared pointers,
        // so it drops before any re-validation or search work and copies
        // nothing while held.
        let mut probe: Option<(u64, &[u64])> = None;
        if let Some(shared) = cache {
            let t0 = Instant::now();
            let exact = match self.serve_exact(ctx, model, obs, shared) {
                Ok(served) => return served,
                Err(entry) => entry,
            };
            let identity = ctx.identity();
            let (fp, sigs) = (identity.fingerprint, &identity.signatures[..]);
            reg.incr(Counter::CacheProbes);
            let mut outcome_code = PROBE_MISS;

            // Same fingerprint but the stored numbering does not fit this
            // program (isomorphic reorder) or the plan no longer
            // re-validates: fall back to seeding from it.
            if let Some(seed) = exact.and_then(|entry| remap_entry(&entry, sigs)) {
                controls.seeds.push(seed);
                reg.incr(Counter::WarmStarts);
                outcome_code = PROBE_NEAR;
            }
            // Only a solve consumes the near entry (a scan over every
            // resident entry) and the region set, so an exact hit that
            // served never pays for them under the cache mutex.
            let (near, region_fps, n_entries) = {
                let c = lock(shared);
                (
                    c.lookup_near(fp, sigs, self.min_overlap),
                    c.region_fps().clone(),
                    c.len() as u64,
                )
            };
            if controls.seeds.is_empty() {
                if let Some(entry) = &near {
                    if let Some(seed) = remap_entry(entry, sigs) {
                        controls.seeds.push(seed);
                        reg.incr(Counter::WarmStarts);
                        outcome_code = PROBE_NEAR;
                    }
                }
            }
            if outcome_code == PROBE_MISS {
                reg.incr(Counter::CacheMisses);
            }
            controls.cached_region_fps = region_fps;
            obs.record_span(
                SpanId::CacheProbe,
                0,
                t0,
                t0.elapsed(),
                [n_entries, outcome_code],
            );
            probe = Some((fp, sigs));
        }

        let mut out = self.inner.solve_controlled(ctx, model, obs, &controls);

        // Anytime quality bound: a budgeted run may have stopped before the
        // GA caught the polynomial baseline, so floor it at greedy (bounded
        // to sizes where greedy's quadratic sweep is effectively free —
        // the same confinement the hierarchical global floor uses).
        if deadline.is_some() && ctx.n_kernels() <= HggaHierSolver::GREEDY_FLOOR_LIMIT {
            let greedy = GreedySolver.solve(ctx, model);
            if greedy.objective < out.objective - 1e-15 {
                out.plan = greedy.plan;
                out.objective = greedy.objective;
            }
        }

        // Record the result for the next solve (miss and near-hit paths).
        // Region sub-fingerprints fold *local* signatures, matching the
        // hierarchical solver's floor-skip lookup (perturbation-local:
        // changing one kernel leaves other regions' fingerprints intact).
        if let (Some(shared), Some((fp, sigs))) = (cache, probe) {
            let region_fps = match (
                self.inner.effective_max_region(ctx.n_kernels()),
                &ctx.program,
            ) {
                (Some(m), Some(_)) => partition_regions(ctx, m, MIN_COUPLING)
                    .regions
                    .iter()
                    .filter(|r| r.len() >= 2)
                    .map(|r| region_fingerprint(sigs, r))
                    .collect(),
                _ => Vec::new(),
            };
            let entry = CacheEntry {
                version: CACHE_VERSION,
                fingerprint: fp,
                program: ctx.info.name.clone(),
                gpu: ctx.info.gpu.name.clone(),
                precision: format!("{:?}", ctx.info.precision),
                n_kernels: ctx.n_kernels() as u32,
                objective: out.objective,
                kernel_sigs: sigs.to_vec(),
                groups: out
                    .plan
                    .groups
                    .iter()
                    .map(|g| g.iter().map(|k| k.0).collect())
                    .collect(),
                region_fps,
            };
            if let Err(e) = lock(shared).insert(entry) {
                eprintln!("warning: plan cache write failed: {e}");
            }
        }

        merge_counters(&mut out, &reg);
        out
    }
}

impl WarmSolver {
    /// The exact-hit half of [`WarmSolver::solve_shared`]: look the
    /// program's fingerprint up in `cache` and serve that entry's plan if
    /// it still re-validates, passes the independent verifier and
    /// re-scores finite. It reads only what those checks read, so a
    /// caller that kept a context of the program can serve a repeat
    /// without preparing it again — the daemon does.
    ///
    /// `Err` carries the entry that did not serve, if there was one; then
    /// nothing is counted or recorded, and the caller solving on counts
    /// its probe once.
    pub fn serve_exact(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
        cache: &Mutex<PlanCache>,
    ) -> Result<SolveOutcome, Option<Arc<CacheEntry>>> {
        let start = Instant::now();
        let fp = ctx.identity().fingerprint;
        let (exact, n_entries) = {
            let c = lock(cache);
            (c.lookup_exact(fp), c.len() as u64)
        };
        let Some(entry) = exact else {
            return Err(None);
        };
        let Some(served) = self.try_serve(ctx, model, &entry) else {
            return Err(Some(entry));
        };
        let reg = MetricsRegistry::new();
        reg.incr(Counter::CacheProbes);
        reg.incr(Counter::CacheHits);
        obs.record_span(
            SpanId::CacheProbe,
            0,
            start,
            start.elapsed(),
            [n_entries, PROBE_EXACT],
        );
        Ok(finish(served, &reg, start))
    }

    /// Serve an exact hit: rebuild the cached plan, re-validate it through
    /// the plan rules *and* the independent verifier, and re-score it.
    /// `None` when anything disqualifies the entry (treated as a miss).
    fn try_serve(
        &self,
        ctx: &PlanContext,
        model: &dyn PerfModel,
        entry: &CacheEntry,
    ) -> Option<SolveOutcome> {
        if entry.n_kernels as usize != ctx.n_kernels() {
            return None;
        }
        let plan = entry.plan()?;
        if ctx.validate(&plan).is_err() {
            return None;
        }
        if !kfuse_verify::check_plan(&ctx.info, &plan, Some(model)).is_clean() {
            return None;
        }
        let ev = Evaluator::new(ctx, model);
        let objective = ev.plan(&plan);
        if !objective.is_finite() {
            return None;
        }
        ev.metrics().set_gauge(Gauge::BestObjective, objective);
        let metrics = ev.snapshot();
        let stats = SolveStats::from_metrics(&metrics);
        Some(SolveOutcome {
            plan,
            objective,
            stats,
            metrics,
        })
    }
}

/// Remap a cached plan onto the current program by local kernel signature:
/// each cached member is matched (greedily, lowest current id first) to an
/// unused current kernel with an identical signature. Groups keeping ≥ 2
/// matched members survive; every unmatched current kernel becomes a
/// singleton. `None` when no multi-member group survives — then the entry
/// teaches the search nothing.
fn remap_entry(entry: &CacheEntry, sigs: &[u64]) -> Option<FusionPlan> {
    let mut pool: HashMap<u64, Vec<u32>> = HashMap::new();
    for (i, &s) in sigs.iter().enumerate() {
        pool.entry(s).or_default().push(i as u32);
    }

    let mut taken = vec![false; sigs.len()];
    let mut groups: Vec<Vec<KernelId>> = Vec::new();
    for g in &entry.groups {
        if g.len() < 2 {
            continue;
        }
        let mut picked: Vec<u32> = Vec::new();
        for &ci in g {
            let Some(&sig) = entry.kernel_sigs.get(ci as usize) else {
                continue;
            };
            // Prefer the identity position: a near-repeat keeps most
            // kernels at their old index, and identity mapping keeps the
            // seed's groups aligned with the (unchanged) partition regions
            // even when many kernels share a signature.
            let identity =
                ((ci as usize) < sigs.len() && sigs[ci as usize] == sig && !taken[ci as usize])
                    .then_some(ci);
            let k = identity.or_else(|| {
                pool.get(&sig)
                    .and_then(|ids| ids.iter().copied().find(|&k| !taken[k as usize]))
            });
            if let Some(k) = k {
                taken[k as usize] = true;
                picked.push(k);
            }
        }
        if picked.len() >= 2 {
            let mut members: Vec<KernelId> = picked.iter().map(|&k| KernelId(k)).collect();
            members.sort_unstable();
            groups.push(members);
        } else {
            for k in picked {
                taken[k as usize] = false;
            }
        }
    }
    if groups.is_empty() {
        return None;
    }
    for (k, &t) in taken.iter().enumerate() {
        if !t {
            groups.push(vec![KernelId(k as u32)]);
        }
    }
    groups.sort_by_key(|g| g[0]);
    Some(FusionPlan::from_sorted_groups(groups))
}

/// Fold the wrapper's cache counters into a solve outcome's metrics.
fn merge_counters(out: &mut SolveOutcome, reg: &MetricsRegistry) {
    for c in Counter::ALL {
        reg.add(c, out.metrics.get(c));
    }
    for g in Gauge::ALL {
        if let Some(v) = out.metrics.gauge(g) {
            reg.set_gauge(g, v);
        }
    }
    out.metrics = reg.snapshot();
}

/// Finish a cache-served outcome: fold in the probe counters and stamp the
/// (tiny) wall time.
fn finish(mut out: SolveOutcome, reg: &MetricsRegistry, start: Instant) -> SolveOutcome {
    merge_counters(&mut out, reg);
    out.stats.elapsed = start.elapsed();
    out.stats.time_to_best = out.stats.elapsed;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(groups: Vec<Vec<u32>>, sigs: Vec<u64>) -> CacheEntry {
        CacheEntry {
            version: CACHE_VERSION,
            fingerprint: 1,
            program: "p".into(),
            gpu: "K20X".into(),
            precision: "Double".into(),
            n_kernels: sigs.len() as u32,
            objective: 1.0,
            kernel_sigs: sigs,
            groups,
            region_fps: Vec::new(),
        }
    }

    #[test]
    fn remap_matches_by_signature_not_position() {
        // Cached program: kernels [A, B, C] with sigs [10, 20, 30], plan
        // {A,C}{B}. Current program is the same kernels reordered:
        // sigs [30, 10, 20]. The group must land on current ids {0, 1}.
        let e = entry(vec![vec![0, 2], vec![1]], vec![10, 20, 30]);
        let plan = remap_entry(&e, &[30, 10, 20]).unwrap();
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.groups[0], vec![KernelId(0), KernelId(1)]);
        assert_eq!(plan.groups[1], vec![KernelId(2)]);
    }

    #[test]
    fn remap_drops_unmatched_members_and_fills_singletons() {
        // Cached {A,B,C} fused; current program kept A and C but B's
        // signature changed (perturbed kernel) and a new kernel D appeared.
        let e = entry(vec![vec![0, 1, 2]], vec![10, 20, 30]);
        let plan = remap_entry(&e, &[10, 99, 30, 40]).unwrap();
        assert_eq!(plan.groups[0], vec![KernelId(0), KernelId(2)]);
        // The perturbed and new kernels come back as singletons.
        assert!(plan.groups.contains(&vec![KernelId(1)]));
        assert!(plan.groups.contains(&vec![KernelId(3)]));
    }

    #[test]
    fn remap_with_nothing_in_common_is_none() {
        let e = entry(vec![vec![0, 1]], vec![10, 20]);
        assert!(remap_entry(&e, &[98, 99]).is_none());
        // A single surviving member is not a group either.
        assert!(remap_entry(&e, &[10, 99]).is_none());
    }

    #[test]
    fn remap_handles_duplicate_signatures() {
        // Two signature-identical kernels fused with a third: each cached
        // member consumes one unused current kernel, no double-assignment.
        let e = entry(vec![vec![0, 1], vec![2, 3]], vec![10, 10, 10, 20]);
        let plan = remap_entry(&e, &[10, 10, 10, 20]).unwrap();
        let mut all: Vec<KernelId> = plan.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            vec![KernelId(0), KernelId(1), KernelId(2), KernelId(3)],
            "every kernel appears exactly once"
        );
        assert_eq!(plan.groups[0], vec![KernelId(0), KernelId(1)]);
        assert_eq!(plan.groups[1], vec![KernelId(2), KernelId(3)]);
    }
}
