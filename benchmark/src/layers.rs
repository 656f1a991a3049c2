//! `kfuse-layers` — the benchmark's adapter onto the library.
//!
//! Every call into `kernel_fusion` made by the benchmark is in this file,
//! built as its own binary, so an API change can break this file but
//! never the end-to-end runner (`main.rs`), which only drives the `kfuse`
//! binary and the wire protocol. Three subcommands, all over one run
//! directory (layout in `manifest.rs`):
//!
//! * `gen`   — make a workload's inputs from `--seed`: programs, the fixed
//!   operation list, the benchmark's own expected verdicts, and (serving
//!   workloads) a pre-populated plan cache.
//! * `check` — judge what the program under test returned, on contexts
//!   prepared here, independently of the process that produced the plans.
//! * `trace` — replay the operation list in-process, single-threaded, one
//!   span per call into each layer, and reduce the spans to the
//!   per-layer metrics and the self-time ledger.

mod manifest;
mod stats;

use kernel_fusion::core::depgraph::DependencyGraph;
use kernel_fusion::core::exec_order::ExecOrderGraph;
use kernel_fusion::core::fingerprint::{
    kernel_colors, kernel_signatures, program_fingerprint_with,
};
use kernel_fusion::core::fuse::apply_plan;
use kernel_fusion::core::kinship::ShareGraph;
use kernel_fusion::core::metadata::ProgramInfo;
use kernel_fusion::core::relax::relax_expandable;
use kernel_fusion::obs::{Counter, ObsHandle};
use kernel_fusion::prelude::*;
use kernel_fusion::search::plancache::{CacheEntry, CACHE_VERSION};
use kernel_fusion::search::{partition_regions, PlanCache};
use kernel_fusion::verify::check_plan;
use kernel_fusion::workloads::synth::{self, ClusteredConfig};
use kernel_fusion::workloads::{by_name, SynthConfig, TestSuite};
use manifest::{LayerReport, Manifest, Op, OpResult, Verdict};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{Number, Value};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/// One class of a cold (CLI) workload: ISSUE 11 lists `count` solves of
/// one program, each with its own solver seed. `cost_s` is the op's wall
/// on the reference box; it orders the list largest-first (so the closed
/// loop's idle tail is bounded by the cheapest op) and decides which
/// classes survive a smoke-sized list.
struct ColdClass {
    class: &'static str,
    count: f64,
    cost_s: f64,
}

const fn cold(class: &'static str, count: f64, cost_s: f64) -> ColdClass {
    ColdClass {
        class,
        count,
        cost_s,
    }
}

/// A cold workload: ISSUE 11's list and the one factor all its counts
/// are cut by to fit the contract's total-time cap (92 runs and two
/// builds in 57 minutes). Counts are cut, program sizes never.
struct ColdWorkload {
    cut: f64,
    classes: &'static [ColdClass],
}

/// `cold_mid`: every program is below the hierarchical threshold, so the
/// flat GA is the whole solve. ISSUE 11's full list: 43 ops, ≈24 s of
/// wall on the two-core box.
const COLD_MID: ColdWorkload = ColdWorkload {
    cut: 1.0,
    classes: &[
        cold("synth100", 3.0, 4.5),
        cold("scale-les", 8.0, 2.4),
        cold("synth60", 8.0, 1.1),
        cold("suite", 8.0, 0.43),
        cold("homme", 8.0, 0.055),
        cold("rk3", 8.0, 0.055),
    ],
};

/// `cold_large`: the hierarchical path on clustered programs. The one
/// 2000-kernel op is 24 s by itself, which is what a run lasts; halving
/// the list to 1/2/3 ops fills the second client for the same 24 s.
const COLD_LARGE: ColdWorkload = ColdWorkload {
    cut: 0.5,
    classes: &[
        cold("clustered2000", 1.0, 24.0),
        cold("clustered1000", 3.0, 7.8),
        cold("clustered500", 6.0, 3.0),
    ],
};

/// Plan-cache entries resident before the first request of a serving
/// workload (10–40-kernel programs with greedy plans).
const RESIDENT_ENTRIES: usize = 4000;

/// Timed requests of the serving workloads at scale 1.0: ISSUE 11's 2000
/// and 400, cut for the same cap. A serving run also pays 10–12 s of
/// set-up, a traced run replays every op single-threaded on top (65–90 s
/// in all), and in its slow phases the box takes 20–30 % longer for
/// everything; the cuts keep 92 runs and two builds inside 57 minutes even
/// then, and still leave 10 and 15 samples beyond p99 and p95.
const SERVE_HOT_REQUESTS: f64 = 2000.0 * 0.5;
const SERVE_CHURN_REQUESTS: f64 = 400.0 * 0.75;

/// The hot set in Zipf rank order (rank 1 first). `gen<N>` are
/// `SynthConfig` programs of N kernels. A hit's latency is set by the
/// size of its request, so the rank order decides where the latency
/// percentiles fall: `synth40` (30 % of requests) has 39 % of the
/// requests below it in size, which puts the median well inside its
/// block, and the top 7 % are all `scale-les`, which does the same for
/// the tail percentile.
const HOT_SET: [&str; 16] = [
    "synth40",
    "gen24",
    "homme",
    "scale-les",
    "rk3",
    "synth20",
    "suite",
    "gen16",
    "synth60",
    "gen12",
    "gen48",
    "fig3",
    "gen36",
    "gen20",
    "gen40",
    "gen32",
];

/// Program content never depends on the run seed: the built-ins are
/// fixed, and generated programs take their generator seed from their
/// role.
const GEN_SEED: u64 = 0x6b66_0000;

/// Solver seeds do not depend on the run seed either: the i-th op of a
/// class always solves with `SOLVER_SEED + i`. The GA's cost swings with
/// its seed (synth100: 3.0–7.2 s and 190–430 MiB over twelve seeds;
/// synth60: 0.7–1.7 s), so lists that re-drew solver seeds measured
/// 9–30 % apart across ten run seeds on rows whose bound is 0.10, and the
/// driver accepts a benchmark only if that spread stays inside the bound.
/// The run seed therefore draws what does not move the amount of work:
/// the order of operations and the kernels a near repeat perturbs. What
/// that gives up is in README.md ("What `--seed` changes").
const SOLVER_SEED: u64 = 101;

fn scaled_count(c: &ColdClass, scale: f64, budget_s: f64) -> usize {
    let n = (c.count * scale + 0.5).floor() as usize;
    // A class whose single op fits the scaled time budget stays in with
    // one op: at scale 1.0 that is every listed program, and a smoke run
    // still touches every cheap one.
    if n == 0 && c.cost_s <= budget_s {
        1
    } else {
        n
    }
}

fn synth_program(name: &str, kernels: usize, seed: u64) -> Program {
    // The scaling-study shape (`synth::scaling`) with a free seed.
    synth::generate(&SynthConfig {
        name: name.to_string(),
        kernels,
        arrays: kernels * 2,
        data_copies: 2,
        sharing_set: 3,
        thread_load: 4,
        kinship: 3,
        grid: [64, 16, 2],
        block: (32, 4),
        dep_prob: 0.5,
        reads_per_kernel: 2,
        pointwise_prob: 0.3,
        sync_interval: None,
        seed,
    })
}

/// Add 1–3 FLOPs to ≈10 % of the kernels: their local signatures and the
/// program fingerprint change, the dependence structure does not — a
/// near repeat for the plan cache.
fn perturb(p: &Program, rng: &mut SmallRng) -> Program {
    let mut q = p.clone();
    let n = q.kernels.len();
    let touched = (n / 10).max(1);
    for _ in 0..touched {
        let k = rng.gen_range(0..n);
        let st = &mut q.kernels[k].segments[0].statements[0];
        for _ in 0..rng.gen_range(1..=3u32) {
            st.expr = st.expr.clone() + Expr::lit(1.0);
        }
    }
    q
}

fn gpu() -> GpuSpec {
    GpuSpec::k20x()
}

fn prepare(p: &Program) -> (Program, PlanContext) {
    let g = gpu();
    pipeline::prepare(p, &g, g.default_precision())
}

fn plan_groups(plan: &FusionPlan) -> Vec<Vec<u32>> {
    plan.groups
        .iter()
        .map(|g| g.iter().map(|k| k.0).collect())
        .collect()
}

/// A workload, built in memory from `(name, seed, scale)`. `gen` writes
/// it out; `check` rebuilds it instead of re-parsing the program files
/// (the vendored parser needs 14 s for the largest one).
struct Built {
    manifest: Manifest,
    programs: BTreeMap<String, Program>,
    ops: Vec<Op>,
    warmup: Vec<Op>,
}

impl Built {
    fn op(&mut self, kind: &str, class: &str, program: &str, seed: u64) -> &mut Op {
        self.ops.push(Op {
            id: String::new(),
            kind: kind.into(),
            class: class.into(),
            program: program.into(),
            seed,
            plan: None,
            expect: "ok".into(),
        });
        self.ops.last_mut().expect("just pushed")
    }
}

fn build(workload: &str, seed: u64, scale: f64) -> Result<Built, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b66_7573_652d_6532);
    let mode = if workload.starts_with("cold") {
        "cli"
    } else {
        "serve"
    };
    let mut b = Built {
        manifest: Manifest {
            workload: workload.into(),
            seed,
            scale,
            mode: mode.into(),
            window: 1,
            cache_entries: 0,
        },
        programs: BTreeMap::new(),
        ops: Vec::new(),
        warmup: Vec::new(),
    };
    match workload {
        "cold_mid" | "cold_large" => {
            let w = if workload == "cold_mid" {
                &COLD_MID
            } else {
                &COLD_LARGE
            };
            let (classes, scale) = (w.classes, w.cut * scale);
            let total: f64 = classes.iter().map(|c| c.count * c.cost_s).sum();
            let budget = total / 2.0 * scale;
            let mut any = false;
            for c in classes {
                let n = scaled_count(c, scale, budget);
                any |= n > 0;
                add_cold_class(&mut b, c, n, &mut rng);
            }
            if !any {
                // Scaled below the cheapest op: keep one of it.
                let c = classes.last().expect("non-empty class table");
                add_cold_class(&mut b, c, 1, &mut rng);
            }
        }
        "serve_hot" => {
            b.manifest.cache_entries = (RESIDENT_ENTRIES as f64 * scale.min(1.0)).ceil() as u64;
            add_hot_set(&mut b);
            let n = (SERVE_HOT_REQUESTS * scale).round().max(1.0) as usize;
            for key in zipf_mix(&HOT_SET, n, &mut rng) {
                b.op("solve", "hit", key, SOLVER_SEED);
            }
        }
        "serve_churn" => {
            b.manifest.cache_entries = (RESIDENT_ENTRIES as f64 * scale.min(1.0)).ceil() as u64;
            b.manifest.window = 4;
            add_hot_set(&mut b);
            add_churn_ops(&mut b, scale, &mut rng)?;
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    for (i, op) in b.ops.iter_mut().enumerate() {
        op.id = format!("op{i:04}");
    }
    for (i, op) in b.warmup.iter_mut().enumerate() {
        op.id = format!("warm{i:02}");
    }
    Ok(b)
}

/// `n` ops of one class, in an order the run seed draws.
fn add_cold_class(b: &mut Built, c: &ColdClass, n: usize, rng: &mut SmallRng) {
    let first = b.ops.len();
    for i in 0..n {
        let key = match c.class.strip_prefix("clustered") {
            // One clustered program per op: same size and region shape,
            // different structure.
            Some(k) => {
                let kernels: usize = k.parse().expect("class table holds a kernel count");
                let key = format!("{}_{i}", c.class);
                b.programs.insert(
                    key.clone(),
                    synth::generate_clustered(&ClusteredConfig {
                        name: key.clone(),
                        kernels,
                        seed: GEN_SEED + (kernels + i) as u64,
                        ..ClusteredConfig::default()
                    }),
                );
                key
            }
            None => {
                b.programs
                    .entry(c.class.to_string())
                    .or_insert_with(|| by_name(c.class).expect("built-in program name"));
                c.class.to_string()
            }
        };
        b.op("cli", c.class, &key, SOLVER_SEED + i as u64);
    }
    shuffle(&mut b.ops[first..], rng);
}

/// `n` draws over `items` with Zipf(1) weights (first item most popular),
/// stratified: every item gets its expected count (largest remainders
/// take the rounding), and only the order is random. The mix of a run is
/// then the same for every seed.
fn zipf_mix<T: Copy>(items: &[T], n: usize, rng: &mut SmallRng) -> Vec<T> {
    let h: f64 = (1..=items.len()).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=items.len())
        .map(|r| n as f64 / (r as f64 * h))
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..items.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut out: Vec<T> = items
        .iter()
        .zip(&counts)
        .flat_map(|(it, &c)| std::iter::repeat_n(*it, c))
        .collect();
    shuffle(&mut out, rng);
    out
}

/// Fisher–Yates with the run's rng.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The 16-program hot set. Each program is solved once through the daemon
/// in set-up (untimed; the first request also makes the daemon load its
/// cache file), so the plan every later hit serves is one the solver
/// under test found.
fn add_hot_set(b: &mut Built) {
    for (rank, key) in HOT_SET.into_iter().enumerate() {
        let p = match key.strip_prefix("gen") {
            Some(k) => {
                let kernels: usize = k.parse().expect("hot-set table holds a kernel count");
                synth_program(key, kernels, GEN_SEED + kernels as u64)
            }
            None => by_name(key).expect("built-in program name"),
        };
        b.programs.insert(key.to_string(), p);
        b.warmup.push(Op {
            id: String::new(),
            kind: "solve".into(),
            class: "warmup".into(),
            program: key.to_string(),
            seed: SOLVER_SEED + rank as u64,
            plan: None,
            expect: "ok".into(),
        });
    }
}

/// `serve_churn`: 50 % exact repeats, 25 % near, 15 % novel, 10 % verify.
/// Counts per kind and per program are fixed, and so is every solver
/// seed; the run seed shuffles the order and picks the perturbation sites.
fn add_churn_ops(b: &mut Built, scale: f64, rng: &mut SmallRng) -> Result<(), String> {
    let n = (SERVE_CHURN_REQUESTS * scale).round().max(4.0) as usize;
    let model = ProposedModel::default();
    let count = |share: f64| ((n as f64) * share).round() as usize;
    let (near, novel, verify) = (count(0.25), count(0.15), count(0.10));
    let hits = n - near - novel - verify;
    // Near repeats perturb hot programs of at most 60 kernels, round robin.
    let small_hot: Vec<&str> = HOT_SET
        .iter()
        .copied()
        .filter(|k| b.programs[*k].kernels.len() <= 60)
        .collect();
    // Novel programs: the exhaustively solvable 10-kernel grid first, then
    // 20/30/40/50-kernel programs.
    let mut grid = TestSuite::small_verification_grid(GEN_SEED);
    // Verify ops alternate one valid and one deliberately invalid plan per
    // program; the expected verdict is this file's own `check_plan`.
    let mut verify_plans: HashMap<&str, VerifyPair> = HashMap::new();

    // One queue per kind: (kind, program key, solver seed, plan, expect).
    type Queued = (&'static str, String, u64, Option<Vec<Vec<u32>>>, String);
    let mut queues: [Vec<Queued>; 4] = Default::default();
    for key in zipf_mix(&HOT_SET, hits, rng) {
        queues[0].push(("hit", key.to_string(), SOLVER_SEED, None, "ok".into()));
    }
    for i in 0..near {
        let base = small_hot[i % small_hot.len()];
        let key = format!("near{i}_{base}");
        let q = perturb(&b.programs[base], rng);
        b.programs.insert(key.clone(), q);
        queues[1].push(("near", key, SOLVER_SEED + i as u64, None, "ok".into()));
    }
    for i in 0..novel {
        let key = format!("novel{i}");
        let p = match grid.pop() {
            Some((_, p)) => p,
            None => synth_program(&key, 20 + 10 * (i % 4), GEN_SEED + 0x1000 + i as u64),
        };
        b.programs.insert(key.clone(), p);
        queues[2].push(("novel", key, SOLVER_SEED + i as u64, None, "ok".into()));
    }
    for i in 0..verify {
        let key = small_hot[(i / 2) % small_hot.len()];
        if !verify_plans.contains_key(key) {
            verify_plans.insert(key, verify_pair(&b.programs[key], &model)?);
        }
        let (plan, expect) = verify_plans[key][i % 2].clone();
        queues[3].push(("verify", key.to_string(), 0, Some(plan), expect));
    }
    // Interleave the kinds evenly (always emit the kind that lags its
    // share most), then shuffle within windows of eight: the load the
    // daemon sees is spread over the run the same way for every seed,
    // while neighbours still vary.
    let targets: Vec<usize> = queues.iter().map(Vec::len).collect();
    let mut emitted = [0usize; 4];
    let mut ops: Vec<Queued> = Vec::with_capacity(n);
    for q in &mut queues {
        q.reverse();
    }
    for i in 0..n {
        let lagging = (0..4)
            .filter(|&k| emitted[k] < targets[k])
            .min_by(|&a, &c| {
                let due = |k: usize| (emitted[k] as f64 + 0.5) / targets[k] as f64;
                due(a).total_cmp(&due(c))
            })
            .expect("targets sum to n");
        emitted[lagging] += 1;
        ops.push(queues[lagging].pop().expect("queue holds its target count"));
        if (i + 1) % 8 == 0 || i + 1 == n {
            shuffle(&mut ops[i - i % 8..], rng);
        }
    }
    for (class, key, solver_seed, plan, expect) in ops {
        let kind = if class == "verify" { "verify" } else { "solve" };
        let op = b.op(kind, class, &key, solver_seed);
        op.plan = plan;
        op.expect = expect;
    }
    Ok(())
}

/// `[valid, invalid]` plans as groups, each with its expected verdict.
type VerifyPair = [(Vec<Vec<u32>>, String); 2];

/// A valid plan (greedy) and a deliberately invalid one for `p`, each with
/// the verdict `check_plan` reaches here. The invalid plan is still a
/// partition (anything else is `malformed_request`, not a verdict): all
/// kernels in one group, or failing that the first pairwise merge the
/// verifier rejects.
fn verify_pair(p: &Program, model: &ProposedModel) -> Result<VerifyPair, String> {
    let (_, ctx) = prepare(p);
    let rejected = |plan: &FusionPlan| check_plan(&ctx.info, plan, Some(model)).error_count() > 0;
    let good = GreedySolver.solve(&ctx, model).plan;
    if rejected(&good) {
        return Err(format!("the greedy plan for `{}` does not verify", p.name));
    }
    let n = ctx.n_kernels() as u32;
    let merged_pair = |i: u32, j: u32| {
        let mut groups: Vec<Vec<KernelId>> = vec![vec![KernelId(i), KernelId(j)]];
        groups.extend(
            (0..n)
                .filter(|&k| k != i && k != j)
                .map(|k| vec![KernelId(k)]),
        );
        FusionPlan::new(groups)
    };
    let bad = std::iter::once(FusionPlan::new(vec![(0..n).map(KernelId).collect()]))
        .chain(
            (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .map(|(i, j)| merged_pair(i, j)),
        )
        .find(|plan| rejected(plan))
        .ok_or_else(|| format!("no rejected plan found for `{}`", p.name))?;
    Ok([
        (plan_groups(&good), "ok".into()),
        (plan_groups(&bad), "verifier_rejected".into()),
    ])
}

// ---------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------

/// The cache entry a greedy solve of `p` would leave behind.
fn greedy_entry(p: &Program) -> CacheEntry {
    let (_, ctx) = prepare(p);
    let out = GreedySolver.solve(&ctx, &ProposedModel::default());
    let colors = kernel_colors(&ctx.info);
    CacheEntry {
        version: CACHE_VERSION,
        fingerprint: program_fingerprint_with(&ctx.info, &colors),
        program: ctx.info.name.clone(),
        gpu: ctx.info.gpu.name.clone(),
        precision: format!("{:?}", ctx.info.precision),
        n_kernels: ctx.n_kernels() as u32,
        objective: out.objective,
        kernel_sigs: kernel_signatures(&ctx.info),
        groups: plan_groups(&out.plan),
        region_fps: Vec::new(),
    }
}

/// Pre-populate `<dir>/cache` through `PlanCache::insert`: `resident`
/// 10–40-kernel programs with greedy plans. Entries are computed on all
/// cores, inserted in a fixed order.
fn populate_cache(dir: &Path, b: &Built) -> Result<(), String> {
    let resident = b.manifest.cache_entries as usize;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries: Vec<CacheEntry> = Vec::with_capacity(resident);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..resident)
                        .step_by(threads)
                        .map(|i| {
                            let kernels = 10 + i % 31;
                            let p = synth_program(
                                &format!("resident{i}"),
                                kernels,
                                GEN_SEED + 0x10_0000 + i as u64,
                            );
                            (i, greedy_entry(&p))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, CacheEntry)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("cache population thread panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        entries.extend(all.into_iter().map(|(_, e)| e));
    });
    let g = gpu();
    let mut cache = PlanCache::open(
        &dir.join("cache"),
        &g.name,
        &format!("{:?}", g.default_precision()),
    );
    for e in entries {
        cache.insert(e).map_err(|e| format!("cache insert: {e}"))?;
    }
    Ok(())
}

fn cmd_gen(dir: &Path, workload: &str, seed: u64, scale: f64) -> Result<(), String> {
    let b = build(workload, seed, scale)?;
    let pdir = dir.join("programs");
    std::fs::create_dir_all(&pdir).map_err(|e| format!("mkdir {}: {e}", pdir.display()))?;
    std::fs::create_dir_all(dir.join("results")).map_err(|e| e.to_string())?;
    for (key, p) in &b.programs {
        let json = serde_json::to_string(p).map_err(|e| e.to_string())?;
        std::fs::write(pdir.join(format!("{key}.json")), json).map_err(|e| e.to_string())?;
    }
    if b.manifest.cache_entries > 0 {
        populate_cache(dir, &b)?;
    }
    manifest::write_jsonl(&dir.join("ops.jsonl"), &b.ops)?;
    manifest::write_jsonl(&dir.join("warmup.jsonl"), &b.warmup)?;
    manifest::write_json(&dir.join("manifest.json"), &b.manifest)
}

// ---------------------------------------------------------------------
// check
// ---------------------------------------------------------------------

/// An independently prepared context per program, with the identity
/// plan's objective for `projected_speedup`.
struct Reference {
    ctx: PlanContext,
    identity_objective: f64,
}

fn reference(p: &Program, model: &ProposedModel) -> Reference {
    let (_, ctx) = prepare(p);
    let identity_objective = ctx.objective(&FusionPlan::identity(ctx.n_kernels()), model);
    Reference {
        ctx,
        identity_objective,
    }
}

/// Judge a returned plan: partition of `0..n`, zero verifier errors,
/// finite objective equal to the claimed one within `rel_tol`. Returns
/// the projected speedup.
fn judge_plan(
    r: &Reference,
    groups: &[Vec<u32>],
    claimed: f64,
    rel_tol: f64,
) -> Result<f64, String> {
    let model = ProposedModel::default();
    let n = r.ctx.n_kernels();
    let mut seen = vec![false; n];
    for g in groups {
        if g.is_empty() {
            return Err("empty group".into());
        }
        for &k in g {
            if k as usize >= n || std::mem::replace(&mut seen[k as usize], true) {
                return Err(format!("groups are not a partition of 0..{n}: kernel {k}"));
            }
        }
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(format!(
            "groups are not a partition of 0..{n}: kernel {missing} missing"
        ));
    }
    let plan = FusionPlan::new(
        groups
            .iter()
            .map(|g| g.iter().map(|&k| KernelId(k)).collect())
            .collect(),
    );
    let errors = check_plan(&r.ctx.info, &plan, Some(&model)).error_count();
    if errors > 0 {
        return Err(format!("check_plan reports {errors} error(s)"));
    }
    let own = r.ctx.objective(&plan, &model);
    if !own.is_finite() || !claimed.is_finite() {
        return Err(format!(
            "objective not finite (own {own}, claimed {claimed})"
        ));
    }
    if (own - claimed).abs() > rel_tol * own.abs() {
        return Err(format!(
            "claimed objective {claimed:e} != re-evaluated {own:e}"
        ));
    }
    Ok(r.identity_objective / own)
}

fn parse_groups(v: &Value) -> Result<Vec<Vec<u32>>, String> {
    let arr = v.as_array().ok_or("`groups` is not an array")?;
    arr.iter()
        .map(|g| {
            g.as_array()
                .ok_or("group is not an array".to_string())?
                .iter()
                .map(|k| {
                    k.as_u64()
                        .and_then(|k| u32::try_from(k).ok())
                        .ok_or("kernel index is not a u32".to_string())
                })
                .collect()
        })
        .collect()
}

fn judge_cli(dir: &Path, op: &Op, res: &OpResult, r: &Reference) -> Result<f64, String> {
    if res.exit != 0 {
        return Err(format!("exit code {}", res.exit));
    }
    let plan_path = dir.join("results").join(format!("{}.plan.json", op.id));
    let text = std::fs::read_to_string(&plan_path).map_err(|e| format!("plan file: {e}"))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("plan file is not JSON: {e}"))?;
    let groups = parse_groups(&v["groups"])?;
    // `solver hgga-hier: objective 1.234567e-3 over N kernels ...`
    let out = std::fs::read_to_string(dir.join("results").join(format!("{}.out", op.id)))
        .map_err(|e| format!("stdout file: {e}"))?;
    let claimed: f64 = out
        .split("objective ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .ok_or("stdout carries no objective")?;
    // The CLI prints seven significant digits.
    judge_plan(r, &groups, claimed, 1e-6)
}

/// `(speedup, outcome, generations)` of an op that passed, or why it failed.
type Judged = Result<(f64, String, u64), String>;

fn judge_wire(op: &Op, res: &OpResult, r: &Reference) -> Judged {
    let line = res.response.as_deref().ok_or("no response line")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("response is not JSON: {e}"))?;
    if v["id"].as_str() != Some(&op.id) {
        return Err("response id does not echo the request id".into());
    }
    let ok = v["ok"].as_bool().ok_or("response lacks `ok`")?;
    if !ok {
        let code = v["error"]["code"]
            .as_str()
            .ok_or("error response lacks `error.code`")?;
        return if code == op.expect {
            Ok((0.0, "verify".into(), 0))
        } else {
            Err(format!("error `{code}`, expected `{}`", op.expect))
        };
    }
    if op.expect != "ok" {
        return Err(format!("served ok, expected `{}`", op.expect));
    }
    let result = &v["result"];
    if op.kind == "verify" {
        return if result["valid"].as_bool() == Some(true) {
            Ok((0.0, "verify".into(), 0))
        } else {
            Err("verify result lacks `valid: true`".into())
        };
    }
    if result["kernels"].as_u64() != Some(r.ctx.n_kernels() as u64) {
        return Err("`kernels` differs from the prepared program".into());
    }
    let groups = parse_groups(&result["groups"])?;
    if result["n_groups"].as_u64() != Some(groups.len() as u64) {
        return Err("`n_groups` differs from `groups`".into());
    }
    let claimed = result["objective"].as_f64().ok_or("`objective` missing")?;
    let outcome = result["outcome"]
        .as_str()
        .ok_or("`outcome` missing")?
        .to_string();
    let generations = result["generations"]
        .as_u64()
        .ok_or("`generations` missing")?;
    // Full-precision floats on the wire; only summation order may differ.
    let speedup = judge_plan(r, &groups, claimed, 1e-9)?;
    Ok((speedup, outcome, generations))
}

fn cmd_check(dir: &Path) -> Result<(), String> {
    let m: Manifest = manifest::read_json(&dir.join("manifest.json"))?;
    let b = build(&m.workload, m.seed, m.scale)?;
    let results: Vec<OpResult> = manifest::read_jsonl(&dir.join("results.jsonl"))?;
    let by_id: HashMap<&str, &OpResult> = results.iter().map(|r| (r.id.as_str(), r)).collect();
    let model = ProposedModel::default();
    let mut refs: HashMap<&str, Reference> = HashMap::new();
    // Identical (program, response) pairs get one judgement: a hot
    // workload returns a handful of distinct plans thousands of times.
    let mut memo: HashMap<(String, String), Judged> = HashMap::new();
    let mut verdicts = Vec::with_capacity(b.ops.len());
    for op in &b.ops {
        let judged = match by_id.get(op.id.as_str()) {
            None => Err("no result recorded".to_string()),
            Some(res) if res.status != "done" => Err(res.status.clone()),
            Some(res) => {
                let r = refs
                    .entry(op.program.as_str())
                    .or_insert_with(|| reference(&b.programs[&op.program], &model));
                if op.kind == "cli" {
                    judge_cli(dir, op, res, r).map(|s| (s, "cli".to_string(), 0))
                } else {
                    let body = res.response.as_deref().unwrap_or("");
                    let tail = body.split_once("\"ok\":").map_or(body, |(_, t)| t);
                    let id_ok = body.starts_with(&format!("{{\"id\":\"{}\",", op.id));
                    let key = (
                        format!("{}|{}|{}|{id_ok}", op.program, op.kind, op.expect),
                        tail.to_string(),
                    );
                    memo.entry(key)
                        .or_insert_with(|| judge_wire(op, res, r))
                        .clone()
                }
            }
        };
        verdicts.push(match judged {
            Ok((speedup, outcome, generations)) => Verdict {
                id: op.id.clone(),
                pass: true,
                why: String::new(),
                speedup,
                outcome,
                generations,
            },
            Err(why) => Verdict {
                id: op.id.clone(),
                pass: false,
                why,
                speedup: 0.0,
                outcome: String::new(),
                generations: 0,
            },
        });
    }
    manifest::write_jsonl(&dir.join("verdicts.jsonl"), &verdicts)
}

// ---------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------

struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    op: usize,
}

/// In-memory span recorder: one parent span per op, one child per layer
/// call, written out as a chrome trace when the replay ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.t0.elapsed();
        self.spans.push(Span {
            name,
            start_us: start.as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent,
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].dur_us = (self.t0.elapsed() - start).as_secs_f64() * 1e6;
        out
    }

    /// Seconds of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us * 1e-6)
            .collect()
    }

    fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// What every replayed op needs besides the tracer.
struct Replay<'a> {
    dir: &'a Path,
    workload: &'a str,
    tally: Tally,
    /// Near ops that have had their extra cold solve so far.
    near_sampled: usize,
}

/// Counters and quality ratios gathered while replaying.
#[derive(Default)]
struct Tally {
    parse_bytes: Vec<f64>,
    plan_bytes: Vec<f64>,
    generations: Vec<f64>,
    memo_probes: Vec<f64>,
    memo_hit_rate: Vec<f64>,
    evals_per_s: Vec<f64>,
    miss_ns_per_eval: Vec<f64>,
    batch_fill: Vec<f64>,
    regions: Vec<f64>,
    regions_solved: Vec<f64>,
    boundary_share: Vec<f64>,
    stitch_merges: Vec<f64>,
    solve_minus_partition: Vec<f64>,
    vs_greedy: Vec<f64>,
    gap_vs_exhaustive: Vec<f64>,
    diagnostics: Vec<f64>,
    sim_speedup: Vec<f64>,
    warm_solve_s: Vec<f64>,
    warm_vs_cold: Vec<f64>,
}

/// Near ops that also get a cold solve for `search.warm_vs_cold_wall`.
const WARM_VS_COLD_SAMPLES: usize = 4;

fn solve_counters(
    t: &mut Tally,
    out: &kernel_fusion::core::pipeline::SolveOutcome,
    n: usize,
    wall_s: f64,
) {
    let m = &out.metrics;
    let probes = m.get(Counter::MemoProbes) as f64;
    let misses = m.get(Counter::MemoMisses) as f64;
    t.generations.push(m.get(Counter::Generations) as f64);
    t.memo_probes.push(probes);
    if probes > 0.0 {
        t.memo_hit_rate.push((probes - misses) / probes);
        t.evals_per_s.push(stats::ratio(probes, wall_s));
    }
    if misses > 0.0 {
        t.miss_ns_per_eval
            .push(m.get(Counter::MissNs) as f64 / misses);
        t.batch_fill.push(out.stats.avg_batch_fill);
    }
    t.regions_solved.push(m.get(Counter::RegionsSolved) as f64);
    t.boundary_share
        .push(m.get(Counter::BoundaryKernels) as f64 / n as f64);
    t.stitch_merges.push(m.get(Counter::StitchMerges) as f64);
}

/// One replayed solve, as the probes need it.
#[derive(Clone, Copy)]
struct Solved<'a> {
    program: &'a Program,
    relaxed: &'a Program,
    ctx: &'a PlanContext,
    plan: &'a FusionPlan,
    objective: f64,
    solve_s: f64,
}

/// Calls that decompose or cross-check an op but are not part of what the
/// program under test executes for it; they run under a `probe` parent so
/// the ledger (op spans only) is not inflated. Once per distinct program.
fn probes(tr: &mut Tracer, t: &mut Tally, workload: &str, s: Solved<'_>) {
    let Solved {
        program: p,
        relaxed,
        ctx,
        plan: out_plan,
        objective: out_objective,
        solve_s,
    } = s;
    let g = gpu();
    let prec = g.default_precision();
    let model = ProposedModel::default();
    let n = ctx.n_kernels();
    tr.span("probe", |tr| {
        let rel = tr.span("core.relax", |_| relax_expandable(p).program);
        let info = tr.span("core.metadata", |_| ProgramInfo::extract(&rel, &g, prec));
        tr.span("core.graphs", |_| {
            let exec = ExecOrderGraph::build(&rel);
            let dep = DependencyGraph::build(&rel);
            let share = ShareGraph::build(&dep, rel.kernels.len());
            std::hint::black_box((exec, share));
        });
        std::hint::black_box(info);
        tr.span("core.plan_validate", |_| {
            let specs = ctx.validate(out_plan).expect("returned plan validates");
            std::hint::black_box(specs.len());
        });
        let specs = ctx.validate(out_plan).expect("returned plan validates");
        let fused = tr.span("core.apply_plan", |_| {
            apply_plan(relaxed, &ctx.info, &ctx.exec, out_plan, &specs)
                .expect("returned plan applies")
        });
        let report = tr.span("verifier.check_plan", |_| {
            check_plan(&ctx.info, out_plan, Some(&model))
        });
        t.diagnostics.push(report.diagnostics.len() as f64);
        if n >= HggaHierSolver::FLAT_THRESHOLD {
            let part = tr.span("search.partition", |_| {
                partition_regions(ctx, HggaHierSolver::DEFAULT_MAX_REGION, 1e-3)
            });
            t.regions.push(part.regions.len() as f64);
            let part_s = tr
                .durations("search.partition")
                .last()
                .copied()
                .unwrap_or(0.0);
            t.solve_minus_partition.push(solve_s - part_s);
        }
        if n <= HggaHierSolver::GREEDY_FLOOR_LIMIT {
            let greedy = tr.span("search.greedy", |_| GreedySolver.solve(ctx, &model));
            t.vs_greedy.push(out_objective / greedy.objective);
        }
        let ex = ExhaustiveSolver::default();
        if n <= ex.max_kernels {
            let best = tr.span("search.exhaustive", |_| ex.solve(ctx, &model));
            t.gap_vs_exhaustive
                .push(out_objective / best.objective - 1.0);
        }
        if workload == "cold_mid" {
            let (orig, fus) = tr.span("sim.simulate", |_| {
                (
                    simulate_program(&g, relaxed, prec),
                    simulate_program(&g, &fused, prec),
                )
            });
            t.sim_speedup.push(orig.total_s / fus.total_s);
        }
    });
}

fn replay_cli(tr: &mut Tracer, cx: &mut Replay<'_>, op: &Op, first_of_program: bool) {
    let (dir, workload, t) = (cx.dir, cx.workload, &mut cx.tally);
    let model = ProposedModel::default();
    let g = gpu();
    let path = dir.join("programs").join(format!("{}.json", op.program));
    let text = tr.span("cli.read_file", |_| {
        std::fs::read_to_string(&path).expect("program file")
    });
    t.parse_bytes.push(text.len() as f64);
    let p: Program = tr.span("ir.parse", |_| {
        serde_json::from_str(&text).expect("program parses")
    });
    tr.span("ir.validate", |_| p.validate().expect("program validates"));
    let (relaxed, ctx) = tr.span("core.prepare", |_| {
        pipeline::prepare(&p, &g, g.default_precision())
    });
    let solver = HggaHierSolver::with_seed(op.seed);
    let t0 = Instant::now();
    let out = tr.span("search.solve", |_| {
        solver.solve_observed(&ctx, &model, ObsHandle::disabled())
    });
    let solve_s = t0.elapsed().as_secs_f64();
    solve_counters(t, &out, ctx.n_kernels(), solve_s);
    let table = tr.span("cli.render", |_| {
        format!("{}{:.6e}", out.metrics.render_table(), out.objective)
    });
    let json = tr.span("core.plan_serialize", |_| {
        serde_json::to_string_pretty(&out.plan).expect("plan serializes")
    });
    t.plan_bytes.push(json.len() as f64);
    tr.span("cli.write_file", |_| {
        let scratch = dir.join("results").join("replay.plan.json");
        std::fs::write(&scratch, &json).expect("plan file");
        std::hint::black_box(table);
    });
    if first_of_program {
        let solved = Solved {
            program: &p,
            relaxed: &relaxed,
            ctx: &ctx,
            plan: &out.plan,
            objective: out.objective,
            solve_s,
        };
        probes(tr, t, workload, solved);
    }
}

/// Mirrors the daemon's request path (`handle_line` → `process` →
/// `solve_job`/`verify_job`) with the same public calls, against an
/// in-process cache opened from the pre-populated file.
fn replay_wire(
    tr: &mut Tracer,
    cx: &mut Replay<'_>,
    op: &Op,
    first_of_program: bool,
    cache: &Mutex<PlanCache>,
) {
    let (dir, workload, t) = (cx.dir, cx.workload, &mut cx.tally);
    let near_sampled = &mut cx.near_sampled;
    let model = ProposedModel::default();
    let g = gpu();
    let text = std::fs::read_to_string(dir.join("programs").join(format!("{}.json", op.program)))
        .expect("program file");
    let line = manifest::request_line(op, &text);
    t.parse_bytes.push(line.len() as f64);
    let p: Program = tr.span("ir.parse", |_| {
        let raw: Value = serde_json::from_str(&line).expect("request parses");
        serde_json::from_value(raw["program"].clone()).expect("program parses")
    });
    tr.span("ir.validate", |_| p.validate().expect("program validates"));
    let (relaxed, ctx) = tr.span("core.prepare", |_| {
        pipeline::prepare(&p, &g, g.default_precision())
    });
    if op.kind == "verify" {
        let groups = op.plan.clone().expect("verify op carries a plan");
        let plan = FusionPlan::new(
            groups
                .iter()
                .map(|g| g.iter().map(|&k| KernelId(k)).collect())
                .collect(),
        );
        let report = tr.span("verifier.check_plan", |_| {
            check_plan(&ctx.info, &plan, Some(&model)).sorted()
        });
        t.diagnostics.push(report.diagnostics.len() as f64);
        tr.span("serve.serialize", |_| {
            std::hint::black_box(report.render_json())
        });
        return;
    }
    let warm = WarmSolver::new(HggaHierSolver::with_seed(op.seed), None, None);
    let t0 = Instant::now();
    let out = tr.span("search.solve", |_| {
        warm.solve_shared(&ctx, &model, ObsHandle::disabled(), Some(cache))
    });
    let solve_s = t0.elapsed().as_secs_f64();
    solve_counters(t, &out, ctx.n_kernels(), solve_s);
    let fp = tr.span("core.fingerprint", |_| {
        let colors = kernel_colors(&ctx.info);
        program_fingerprint_with(&ctx.info, &colors)
    });
    let response = tr.span("serve.serialize", |_| {
        let groups = Value::Array(
            out.plan
                .groups
                .iter()
                .map(|g| {
                    Value::Array(
                        g.iter()
                            .map(|k| Value::Number(Number::from_u64(k.0 as u64)))
                            .collect(),
                    )
                })
                .collect(),
        );
        let mut result = serde_json::Map::new();
        result.insert("program".into(), Value::String(ctx.info.name.clone()));
        result.insert("fingerprint".into(), Value::String(format!("0x{fp:016x}")));
        result.insert(
            "objective".into(),
            Value::Number(Number::from_f64(out.objective)),
        );
        result.insert("groups".into(), groups);
        serde_json::to_string(&Value::Object(result)).expect("response serializes")
    });
    t.plan_bytes.push(response.len() as f64);

    let warm_started = out.metrics.get(Counter::WarmStarts) > 0;
    if warm_started {
        t.warm_solve_s.push(solve_s);
    }
    tr.span("probe", |tr| {
        if warm_started && *near_sampled < WARM_VS_COLD_SAMPLES {
            *near_sampled += 1;
            let cold = WarmSolver::new(HggaHierSolver::with_seed(op.seed), None, None);
            let c0 = Instant::now();
            std::hint::black_box(cold.solve_shared(&ctx, &model, ObsHandle::disabled(), None));
            t.warm_vs_cold.push(solve_s / c0.elapsed().as_secs_f64());
        }
        if first_of_program {
            let sigs = kernel_signatures(&ctx.info);
            let c = cache.lock().expect("replay cache lock");
            tr.span("search.cache_lookup_exact", |_| {
                std::hint::black_box(c.lookup_exact(fp).is_some())
            });
            tr.span("search.cache_lookup_near", |_| {
                std::hint::black_box(c.lookup_near(fp, &sigs, warm.min_overlap).is_some())
            });
            tr.span("search.cache_region_fps", |_| {
                std::hint::black_box(c.region_fps().len())
            });
        }
    });
    if first_of_program {
        let solved = Solved {
            program: &p,
            relaxed: &relaxed,
            ctx: &ctx,
            plan: &out.plan,
            objective: out.objective,
            solve_s,
        };
        probes(tr, t, workload, solved);
    }
}

fn cmd_trace(dir: &Path, out_path: &Path) -> Result<(), String> {
    let m: Manifest = manifest::read_json(&dir.join("manifest.json"))?;
    let ops: Vec<Op> = manifest::read_jsonl(&dir.join("ops.jsonl"))?;
    let mut tr = Tracer::new();
    let mut cx = Replay {
        dir,
        workload: &m.workload,
        tally: Tally::default(),
        near_sampled: 0,
    };
    let g = gpu();
    let prec = format!("{:?}", g.default_precision());

    // The replay cache is the runner's copy of the cache file as set-up
    // left it (resident entries plus the hot set the daemon solved); the
    // probe cache is a second copy that takes the timed insert.
    let mut cache_metrics: Vec<(String, f64)> = Vec::new();
    let cache = if m.cache_entries > 0 {
        let file = dir.join("cache_replay").join("plans.jsonl");
        let bytes = std::fs::metadata(&file)
            .map_err(|e| format!("{}: {e}", file.display()))?
            .len();
        let c = tr.span("search.cache_open", |_| {
            PlanCache::open(&dir.join("cache_replay"), &g.name, &prec)
        });
        cache_metrics.push(("search.cache_entries".into(), c.len() as f64));
        cache_metrics.push(("search.cache_file_bytes".into(), bytes as f64));
        let probe_dir = dir.join("cache_probe");
        std::fs::create_dir_all(&probe_dir).map_err(|e| e.to_string())?;
        std::fs::copy(&file, probe_dir.join("plans.jsonl")).map_err(|e| e.to_string())?;
        let mut probe = PlanCache::open(&probe_dir, &g.name, &prec);
        for i in 0..8u64 {
            let mut e = greedy_entry(&synth_program("insert-probe", 24, 0xabc + i));
            e.fingerprint ^= 0x5a5a_0000 + i;
            tr.span("search.cache_insert", |_| {
                probe.insert(e).expect("probe insert")
            });
        }
        Some(Mutex::new(c))
    } else {
        None
    };

    let replay0 = Instant::now();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (i, op) in ops.iter().enumerate() {
        tr.op = i;
        let first = seen.insert(format!("{}|{}", op.program, op.kind));
        tr.span("op", |tr| match &cache {
            None => replay_cli(tr, &mut cx, op, first),
            Some(c) => replay_wire(tr, &mut cx, op, first, c),
        });
    }
    let replay_wall_s = replay0.elapsed().as_secs_f64();

    // Ledger: self time per layer over op spans (probe subtrees excluded),
    // and the per-op layer sum (children of the op span, probes excluded).
    let mut child_sum = vec![0.0f64; tr.spans.len()];
    let mut in_probe = vec![false; tr.spans.len()];
    for (i, s) in tr.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_us;
            in_probe[i] = in_probe[p] || s.name == "probe";
        }
    }
    let mut self_time: BTreeMap<&str, f64> = BTreeMap::new();
    let mut op_layer_sum: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, s) in tr.spans.iter().enumerate() {
        if in_probe[i] || s.name == "probe" || s.parent.is_none() {
            continue;
        }
        *self_time.entry(s.name).or_default() += (s.dur_us - child_sum[i]) * 1e-6;
        if tr.spans[s.parent.expect("checked above")].name == "op" {
            *op_layer_sum.entry(s.op).or_default() += s.dur_us * 1e-6;
        }
    }
    let mut self_time_s: Vec<(String, f64)> = self_time
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    self_time_s.sort_by(|a, b| b.1.total_cmp(&a.1));
    let layer_total: f64 = self_time_s.iter().map(|(_, v)| v).sum();
    let solve_total: f64 = self_time_s
        .iter()
        .filter(|(k, _)| k == "search.solve")
        .map(|(_, v)| v)
        .sum();

    // Per-call medians of the layer spans…
    const SPAN_METRICS: [(&str, &str); 21] = [
        ("ir.parse_s", "ir.parse"),
        ("ir.validate_s", "ir.validate"),
        ("core.relax_s", "core.relax"),
        ("core.metadata_s", "core.metadata"),
        ("core.graphs_s", "core.graphs"),
        ("core.prepare_s", "core.prepare"),
        ("core.fingerprint_s", "core.fingerprint"),
        ("core.plan_validate_s", "core.plan_validate"),
        ("core.apply_plan_s", "core.apply_plan"),
        ("search.solve_s", "search.solve"),
        ("search.partition_s", "search.partition"),
        ("search.greedy_s", "search.greedy"),
        ("search.cache_open_s", "search.cache_open"),
        ("search.cache_lookup_exact_s", "search.cache_lookup_exact"),
        ("search.cache_lookup_near_s", "search.cache_lookup_near"),
        ("search.cache_region_fps_s", "search.cache_region_fps"),
        ("search.cache_insert_s", "search.cache_insert"),
        ("verifier.check_plan_s", "verifier.check_plan"),
        ("sim.simulate_s", "sim.simulate"),
        // The plan leaves as a pretty file (CLI) or inside the response line
        // (wire); a workload has one of the two.
        ("core.plan_serialize_s", "core.plan_serialize"),
        ("core.plan_serialize_s", "serve.serialize"),
    ];
    let t = &cx.tally;
    // …and per-op medians of the tallied counts and ratios.
    let tallied: [(&str, &[f64]); 19] = [
        ("ir.parse_bytes", &t.parse_bytes),
        ("core.plan_bytes", &t.plan_bytes),
        ("search.generations", &t.generations),
        ("search.memo_probes", &t.memo_probes),
        ("search.memo_hit_rate", &t.memo_hit_rate),
        ("search.evals_per_s", &t.evals_per_s),
        ("search.miss_ns_per_eval", &t.miss_ns_per_eval),
        ("search.avg_batch_fill", &t.batch_fill),
        ("search.regions", &t.regions),
        ("search.regions_solved", &t.regions_solved),
        ("search.boundary_share", &t.boundary_share),
        ("search.stitch_merges", &t.stitch_merges),
        ("search.solve_minus_partition_s", &t.solve_minus_partition),
        ("search.objective_vs_greedy", &t.vs_greedy),
        ("search.gap_vs_exhaustive", &t.gap_vs_exhaustive),
        ("search.warm_solve_s", &t.warm_solve_s),
        ("search.warm_vs_cold_wall", &t.warm_vs_cold),
        ("verifier.diagnostics", &t.diagnostics),
        ("sim.simulated_speedup", &t.sim_speedup),
    ];
    let mut metrics: Vec<(String, f64)> = SPAN_METRICS
        .iter()
        .filter(|(_, span)| tr.spans.iter().any(|s| s.name == *span))
        .map(|(name, span)| (name.to_string(), stats::median(&tr.durations(span))))
        .chain(
            tallied
                .iter()
                .map(|(name, v)| (name.to_string(), stats::median(v))),
        )
        .collect();
    metrics.push((
        "search.solve_share".into(),
        stats::ratio(solve_total, layer_total),
    ));
    let parse_s = stats::median(&tr.durations("ir.parse"));
    metrics.push((
        "ir.parse_mb_per_s".into(),
        stats::ratio(stats::median(&t.parse_bytes) / 1e6, parse_s),
    ));
    metrics.extend(cache_metrics);

    let report = LayerReport {
        metrics,
        op_layer_sum_s: op_layer_sum
            .into_iter()
            .map(|(i, v)| (ops[i].id.clone(), v))
            .collect(),
        self_time_s,
        replay_wall_s,
    };
    std::fs::write(out_path, tr.chrome_trace())
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    manifest::write_json(&dir.join("layers.json"), &report)
}

// ---------------------------------------------------------------------

fn flag(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .ok_or_else(|| format!("missing {name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(args, "--dir")?);
    match args.first().map(String::as_str) {
        Some("gen") => {
            let seed = flag(args, "--seed")?.parse().map_err(|_| "--seed expects a whole number")?;
            let scale = flag(args, "--scale")?.parse().map_err(|_| "--scale expects a number")?;
            cmd_gen(&dir, &flag(args, "--workload")?, seed, scale)
        }
        Some("check") => cmd_check(&dir),
        Some("trace") => cmd_trace(&dir, Path::new(&flag(args, "--out")?)),
        _ => Err("usage: kfuse-layers gen|check|trace --dir DIR [--workload W --seed N --scale X] [--out FILE]".into()),
    }
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kfuse-layers: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
