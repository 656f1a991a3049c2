//! Allocation bounds of the request path's front end.
//!
//! A counting global allocator wraps `System` (per-thread counters: the
//! tests of one binary run on parallel threads). Three bounds:
//!
//! - a typed parse allocates nothing it does not keep: scanning a request
//!   line takes a constant number of fresh blocks — its `id`, `op` and the
//!   one copy of the inline program's text — and parsing that text takes
//!   no more than the `Program` it returns has non-empty `String`s, `Vec`s
//!   and `Box`es;
//! - the relaxation renames in place: it takes no more than the copy of
//!   the program it returns, the dependency graph it reads, and a
//!   constant per redundant copy it adds;
//! - validating a plan allocates the specs it returns: one synthesis
//!   scratch warmed once, then nothing per group but the group's own
//!   three vectors.
//!
//! Fresh blocks (`alloc`) are what is counted; a `Vec` that grows by
//! `realloc` keeps being the one block the bound allows it.
//! `run_experiments.sh` runs this file with `--release`, next to the
//! memo's `alloc_free`.

use kernel_fusion::prelude::*;
use kfuse_core::depgraph::DependencyGraph;
use kfuse_core::relax::relax_expandable;
use kfuse_core::synth::SynthScratch;
use kfuse_serve::Request;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

    // What one scratch costs to warm to this program: its slot columns,
    // output buffers and the two structural-check bitsets.
    let widest = plan.groups.iter().max_by_key(|g| g.len()).unwrap();
    let (_, warm_scratch) = counted(|| {
        let mut scratch = SynthScratch::new();
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
