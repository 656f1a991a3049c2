//! Cross-solve reuse: cache-served plans and the anytime `--budget-ms`
//! mode.
//!
//! [`WarmSolver`] wraps the hierarchical solver with the persistent
//! [`PlanCache`]:
//!
//! - **exact hit** — the program's order-insensitive fingerprint matches a
//!   cached entry. The cached plan is rebuilt, checked and re-scored in
//!   one pass, re-validated through the independent `kfuse-verify`
//!   checker, and served without any search.
//! - **anything else** — no entry, or an entry that fails re-validation
//!   (an isomorphic reorder, cache corruption, model drift): the same
//!   cold solve a cacheless call runs, whose result is inserted into the
//!   cache for next time. A cache never steers a search.
//!
//! With a budget, the deadline threads through every generation loop, and
//! [`HggaHierSolver::solve_controlled`] floors the result at the greedy
//! plan (programs up to [`HggaHierSolver::GREEDY_FLOOR_LIMIT`]), so an
//! arbitrarily small budget still returns a plan no worse than the
//! polynomial baseline.
//!
//! Without a budget the wrapper passes no deadline through, which is bit
//! for bit the plain hierarchical solve — cold-path determinism is
//! untouched.

use crate::partition::HggaHierSolver;
use crate::plancache::{CacheEntry, PlanCache, CACHE_VERSION};
use kfuse_core::model::PerfModel;
use kfuse_core::pipeline::{SolveOutcome, SolveStats, Solver};
use kfuse_core::plan::{PlanContext, ScoreScratch};
use kfuse_obs::{Counter, Gauge, MetricsRegistry, ObsHandle, SpanId};
use kfuse_verify::{CheckerTables, PlanChecker};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `cache_probe` span outcome codes (second span argument). Code 1 is
/// retired, so traces from builds that still emitted it compare.
const PROBE_MISS: u64 = 0;
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
/// search and solves anything else cold; the daemon threads a shared
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
    /// Minimum kernel-signature overlap for [`PlanCache::lookup_near`].
    /// Nothing in the library reads it: a solve never consults a near
    /// entry. It stays only because the benchmark's adapter reads the
    /// field; ROADMAP 6(b) removes that pin.
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

        // Probe: serve an exact hit, or count a miss and solve cold. The
        // program is identified once per context (the daemon reads the
        // same identity for its response).
        if let Some(shared) = cache {
            if let Some(served) = self.serve_exact(ctx, None, None, model, obs, shared) {
                return served;
            }
            reg.incr(Counter::CacheProbes);
            reg.incr(Counter::CacheMisses);
            let n_entries = lock(shared).len() as u64;
            obs.record_span(
                SpanId::CacheProbe,
                0,
                start,
                start.elapsed(),
                [n_entries, PROBE_MISS],
            );
        }

        let mut out = self.inner.solve_controlled(ctx, model, obs, deadline);

        // Record the result for the next solve.
        if let Some(shared) = cache {
            let identity = ctx.identity();
            let entry = CacheEntry {
                version: CACHE_VERSION,
                fingerprint: identity.fingerprint,
                program: ctx.info.name.clone(),
                gpu: ctx.info.gpu.name.clone(),
                precision: format!("{:?}", ctx.info.precision),
                n_kernels: ctx.n_kernels() as u32,
                objective: out.objective,
                kernel_sigs: identity.signatures.to_vec(),
                groups: out
                    .plan
                    .groups
                    .iter()
                    .map(|g| g.iter().map(|k| k.0).collect())
                    .collect(),
                region_fps: Vec::new(),
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
    /// it still passes the plan rules and the independent verifier and
    /// scores finite. It reads only what those checks read, so a caller
    /// that kept a context of the program can serve a repeat without
    /// preparing it again — the daemon does, and keeps the verifier's
    /// per-program `tables` beside it; without them they are built here.
    /// It keeps the check's `scratch` there too: a repeat takes it when
    /// no other worker holds it, and checks on a fresh one when one does.
    ///
    /// `None` when no entry serves; then nothing is counted or recorded,
    /// and the caller solving on counts its probe once.
    pub fn serve_exact(
        &self,
        ctx: &PlanContext,
        tables: Option<&CheckerTables>,
        scratch: Option<&Mutex<ScoreScratch>>,
        model: &dyn PerfModel,
        obs: ObsHandle<'_>,
        cache: &Mutex<PlanCache>,
    ) -> Option<SolveOutcome> {
        let start = Instant::now();
        let fp = ctx.identity().fingerprint;
        let (exact, n_entries) = {
            let c = lock(cache);
            (c.lookup_exact(fp), c.len() as u64)
        };
        let entry = exact?;
        let mut fresh = None;
        let mut kept = scratch.and_then(|m| m.try_lock().ok());
        let scratch = match kept.as_deref_mut() {
            Some(kept) => kept,
            None => fresh.insert(ScoreScratch::new()),
        };
        let served = try_serve(ctx, tables, scratch, model, &entry)?;
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
        Some(finish(served, &reg, start))
    }
}

/// Serve an exact hit: rebuild the cached plan, check and score it in one
/// pass ([`PlanContext::check_and_score`]), and run the independent
/// verifier over it. `None` when anything disqualifies the entry (treated
/// as a miss).
fn try_serve(
    ctx: &PlanContext,
    tables: Option<&CheckerTables>,
    scratch: &mut ScoreScratch,
    model: &dyn PerfModel,
    entry: &CacheEntry,
) -> Option<SolveOutcome> {
    if entry.n_kernels as usize != ctx.n_kernels() {
        return None;
    }
    let plan = entry.plan()?;
    let objective = ctx.check_and_score(&plan, model, scratch).ok()?;
    let checker = match tables {
        Some(tables) => PlanChecker::with_tables(&ctx.info, tables),
        None => PlanChecker::new(&ctx.info),
    };
    if !checker.check(&plan, Some(model)).is_clean() {
        return None;
    }
    // The one condensation check the score made, counted as a solve
    // counts it.
    let reg = MetricsRegistry::new();
    if plan.groups.iter().any(|g| g.len() >= 2) {
        reg.incr(Counter::CondensationChecks);
    }
    reg.set_gauge(Gauge::BestObjective, objective);
    let metrics = reg.snapshot();
    let stats = SolveStats::from_metrics(&metrics);
    Some(SolveOutcome {
        plan,
        objective,
        stats,
        metrics,
    })
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
