//! Allocation bounds of the request path's front end.
//!
//! A counting global allocator wraps `System` (per-thread counters: the
//! tests of one binary run on parallel threads). Four bounds:
//!
//! - a typed parse allocates nothing it does not keep: scanning a request
//!   line takes a constant number of fresh blocks — its `id`, `op` and the
//!   one copy of the inline program's text — and parsing that text takes
//!   no more than the `Program` it returns has non-empty `String`s, `Vec`s
//!   and `Box`es;
//! - the relaxation renames in place: it takes no more than the copy of
//!   the program it returns, the dependency graph it reads, and a
//!   constant per redundant copy it adds;
//! - validating a plan allocates the specs it returns: one lane scratch
//!   (`BatchScratch`, each group synthesized as a one-lane batch) warmed
//!   once, then nothing per group but the group's own three vectors;
//! - re-checking a kept exact hit (`WarmSolver::serve_exact` with the
//!   verifier's kept tables: the one-pass check and score, then the
//!   verifier) takes one warm scratch, a constant, and a constant per
//!   group — no block per kernel or per array, so neither a per-hit
//!   evaluator nor per-hit verifier tables fit under it.
//!
//! Fresh blocks (`alloc`) are what is counted; a `Vec` that grows by
//! `realloc` keeps being the one block the bound allows it.
//! `run_experiments.sh` runs this file with `--release`, next to the
//! memo's `alloc_free`.

use kernel_fusion::prelude::*;
use kfuse_core::batch::BatchScratch;
use kfuse_core::depgraph::DependencyGraph;
use kfuse_core::relax::relax_expandable;
use kfuse_obs::ObsHandle;
use kfuse_search::plancache::{CacheEntry, PlanCache, CACHE_VERSION};
use kfuse_serve::Request;
use kfuse_verify::CheckerTables;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without `Drop`, so touching it from inside
    // the allocator neither allocates nor registers a destructor.
    static FRESH_BLOCKS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        FRESH_BLOCKS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the fresh blocks the calling thread took to make it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = FRESH_BLOCKS.with(Cell::get);
    let out = f();
    (out, FRESH_BLOCKS.with(Cell::get) - before)
}

/// One block for a container that holds anything, none for an empty one.
fn held(empty: bool) -> u64 {
    u64::from(!empty)
}

/// The heap blocks a `Program` owns: its non-empty strings and vectors,
/// and the two boxes of every binary expression.
fn owned_blocks(p: &Program) -> u64 {
    fn boxes(e: &Expr) -> u64 {
        match e {
            Expr::Bin { lhs, rhs, .. } => 2 + boxes(lhs) + boxes(rhs),
            _ => 0,
        }
    }
    let mut n = held(p.name.is_empty())
        + held(p.arrays.is_empty())
        + held(p.kernels.is_empty())
        + held(p.host_syncs.is_empty())
        + held(p.streams.is_empty());
    n += p
        .arrays
        .iter()
        .map(|a| held(a.name.is_empty()))
        .sum::<u64>();
    for k in &p.kernels {
        n += held(k.name.is_empty()) + held(k.segments.is_empty()) + held(k.staging.is_empty());
        for seg in &k.segments {
            n += held(seg.statements.is_empty());
            n += seg.statements.iter().map(|st| boxes(&st.expr)).sum::<u64>();
        }
    }
    n
}

#[test]
fn a_typed_parse_allocates_only_what_the_program_keeps() {
    let text = serde_json::to_string(&kfuse_workloads::by_name("synth40").unwrap()).unwrap();
    let line = format!(r#"{{"id":"r1","op":"solve","seed":17,"program":{text}}}"#);

    // The reader thread scans the line: the request's own `id` and `op`,
    // and one copy of the program's text — whatever the program's size.
    let (request, scan) = counted(|| serde_json::from_str::<Request>(&line).unwrap());
    let inline = request.program.unwrap();
    assert_eq!(inline.text(), text);
    assert!(
        scan <= 3,
        "scanning a {}-byte request took {scan} blocks",
        line.len()
    );

    // The worker parses the text: what the program keeps, nothing else.
    let (program, typed) = counted(|| inline.parse().unwrap());
    let kept = owned_blocks(&program);
    assert!(
        typed <= kept,
        "a typed parse of a {}-byte program took {typed} blocks for a program that keeps {kept}",
        text.len()
    );

    // The bound has teeth: the tree between text and `Program` is several
    // times what the program keeps, and it was all thrown away.
    let (_, tree) = counted(|| {
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        serde_json::from_value::<Program>(v).unwrap()
    });
    assert!(tree > 2 * kept, "tree route {tree} blocks, kept {kept}");
}

#[test]
fn relaxation_allocates_a_clone_its_graph_and_a_constant_per_copy() {
    let p = kfuse_workloads::by_name("scale-les").unwrap();
    let (_, clone) = counted(|| p.clone());
    let (_, graph) = counted(|| DependencyGraph::build(&p));
    let (relaxed, relax) = counted(|| relax_expandable(&p));
    assert!(relaxed.copies_added > 50, "SCALE-LES relaxes many arrays");
    // Per copy: its name, and its share of the array table's and the
    // generation table's growth. The parent rebuilt every expression of
    // every kernel once per expandable array: ~99 clones' worth here.
    let bound = clone + graph + 4 * relaxed.copies_added as u64 + 8;
    assert!(
        relax <= bound,
        "relax took {relax} blocks; clone {clone} + graph {graph} + 4 x {} copies + 8 = {bound}",
        relaxed.copies_added
    );
}

#[test]
fn validate_allocates_the_specs_it_returns_and_one_warm_scratch() {
    let p = kfuse_workloads::by_name("scale-les").unwrap();
    let gpu = GpuSpec::k20x();
    let (_, ctx) = pipeline::prepare(&p, &gpu, gpu.default_precision());
    let plan = GreedySolver.solve(&ctx, &ProposedModel::default()).plan;
    assert!(plan.new_kernel_count() > 10, "SCALE-LES fuses many groups");

    // What one scratch costs to warm to this program at fill 1: its lane
    // columns, lane 0's output buffers and the two structural-check
    // bitsets.
    let widest = plan.groups.iter().max_by_key(|g| g.len()).unwrap();
    let (_, warm_scratch) = counted(|| {
        let mut scratch = BatchScratch::new();
        ctx.check_group_with(widest, 0, &mut scratch).map(|_| ())
    });

    let (specs, validate) = counted(|| ctx.validate(&plan).unwrap());
    let kept = 1 + specs
        .iter()
        .map(|s| {
            held(s.members.is_empty())
                + held(s.pivots.is_empty())
                + held(s.barrier_before.is_empty())
        })
        .sum::<u64>();
    // The constant: the partition check's `seen` vector.
    let bound = kept + warm_scratch + 1;
    assert!(
        validate <= bound,
        "validate took {validate} blocks for {} groups; specs keep {kept} + scratch \
         {warm_scratch} + 1 = {bound}",
        specs.len()
    );
}

/// The blocks one `serve_exact` of a kept program may take beyond a warm
/// lane scratch: the plan's outer vectors, the partition and cover
/// checks, the condensation scratches and the outcome.
const HIT_FIXED_BLOCKS: u64 = 16;

/// The blocks it may take per group: the group's own vector, the
/// verifier's re-derived spec and path-closure masks, and its successor
/// lists in the two condensations.
const HIT_BLOCKS_PER_GROUP: u64 = 14;

#[test]
fn an_exact_hit_rechecks_in_a_constant_plus_a_constant_per_group() {
    let model = ProposedModel::default();
    let gpu = GpuSpec::k20x();
    let dir = std::env::temp_dir()
        .join("kfuse-alloc-bounds")
        .join(format!("hit-{}", std::process::id()));
    let solver = WarmSolver::new(HggaHierSolver::with_seed(1), None, None);
    for name in ["rk3", "homme", "scale-les"] {
        let p = kfuse_workloads::by_name(name).unwrap();
        let (_, ctx) = pipeline::prepare(&p, &gpu, gpu.default_precision());
        let tables = CheckerTables::new(&ctx.info);
        for plan in [
            GreedySolver.solve(&ctx, &model).plan,
            FusionPlan::identity(ctx.n_kernels()),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let precision = format!("{:?}", ctx.info.precision);
            let mut cache = PlanCache::open(&dir, &ctx.info.gpu.name, &precision);
            let identity = ctx.identity();
            cache
                .insert(CacheEntry {
                    version: CACHE_VERSION,
                    fingerprint: identity.fingerprint,
                    program: ctx.info.name.clone(),
                    gpu: ctx.info.gpu.name.clone(),
                    precision,
                    n_kernels: ctx.n_kernels() as u32,
                    objective: 0.0,
                    kernel_sigs: identity.signatures.to_vec(),
                    groups: plan
                        .groups
                        .iter()
                        .map(|g| g.iter().map(|k| k.0).collect())
                        .collect(),
                    region_fps: Vec::new(),
                })
                .unwrap();
            let cache = Mutex::new(cache);

            let widest = plan.groups.iter().max_by_key(|g| g.len()).unwrap();
            let (_, warm_scratch) = counted(|| {
                let mut scratch = BatchScratch::new();
                ctx.check_group_with(widest, 0, &mut scratch).map(|_| ())
            });
            let (out, hit) = counted(|| {
                let tables = Some(&tables);
                solver.serve_exact(&ctx, tables, None, &model, ObsHandle::disabled(), &cache)
            });
            assert_eq!(out.expect("the plan is served").plan, plan);
            let groups = plan.groups.len() as u64;
            let bound = warm_scratch + HIT_FIXED_BLOCKS + HIT_BLOCKS_PER_GROUP * groups;
            assert!(
                hit <= bound,
                "{name}: an exact hit of {groups} groups over {} kernels took {hit} blocks; \
                 scratch {warm_scratch} + {HIT_FIXED_BLOCKS} + {HIT_BLOCKS_PER_GROUP} x {groups} \
                 = {bound}",
                ctx.n_kernels()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
