//! Zero-allocation guarantees of the steady-state evaluation paths.
//!
//! A counting global allocator wraps `System`; after warming the synthesis
//! scratch once, re-evaluating distinct groups through
//! [`Evaluator::evaluate_uncached`] (structure checks + SoA synthesis +
//! view projection + profitability) must not allocate at all. Memo
//! insertion (the boxed key) is deliberately outside this unit — it is
//! amortized storage, not per-evaluation work.
//!
//! The observability rework adds a second guarantee: with tracing
//! disabled ([`ObsHandle::disabled`]), the memo *hit* path with its
//! always-on registry counters must also stay allocation-free.

use kfuse_core::batch::{BatchScratch, CandidateBatch};
use kfuse_core::model::{PerfModel, ProposedModel, RooflineModel, SimpleModel};
use kfuse_core::pipeline::prepare;
use kfuse_core::synth::SynthScratch;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::KernelId;
use kfuse_obs::ObsHandle;
use kfuse_search::Evaluator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Per thread, because `cargo test` runs the three tests below on
    // parallel threads of one process and each asserts a delta of zero
    // over its own work. `const`-initialised and without `Drop`, so
    // touching it from inside the allocator neither allocates nor
    // registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Distinct member-sorted groups spanning singletons up to 32 members
/// (the stack-key bound), deterministic in `n`.
fn group_pool(n: usize) -> Vec<Vec<KernelId>> {
    (0..200u64)
        .map(|i| {
            let len = 1 + (i as usize % 32);
            let start = (i as usize * 7) % n;
            (0..len)
                .map(|j| KernelId(((start + j * 3) % n) as u32))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
        })
        .collect()
}

#[test]
fn miss_path_is_allocation_free_once_warm() {
    // The 60-kernel scaling workload — the same program the miss-path
    // benchmark and `kfuse example synth60` use.
    let p = kfuse_workloads::synth::scaling(60);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::new(&ctx, &model);
    let extra: [Box<dyn PerfModel>; 2] = [Box::new(RooflineModel), Box::new(SimpleModel)];

    // Distinct groups built BEFORE the measured region.
    let groups = group_pool(ctx.n_kernels());

    // Warm the scratch to the program's dimensions (first call sizes every
    // slot array and the pivot/touched buffers to their upper bounds).
    let mut scratch = SynthScratch::new();
    for g in &groups {
        std::hint::black_box(ev.evaluate_uncached(g, &mut scratch));
    }

    let before = allocations();
    for _ in 0..3 {
        for g in &groups {
            std::hint::black_box(ev.evaluate_uncached(g, &mut scratch));
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state miss-path evaluation must not allocate ({delta} allocations over {} evals)",
        3 * groups.len()
    );

    // The other two models share the same guarantee through project_view.
    for m in &extra {
        let before = allocations();
        for g in &groups {
            if g.len() < 2 {
                continue;
            }
            let view = ctx.synth.synthesize_into(&ctx.info, g, &mut scratch);
            std::hint::black_box(m.project_view(&ctx.info, &view));
        }
        let delta = allocations() - before;
        assert_eq!(delta, 0, "{} project_view must not allocate", m.name());
    }
}

#[test]
fn batched_miss_path_is_allocation_free_once_warm() {
    // The lane-batched analogue of the scalar guarantee above: once the
    // candidate queue, lane scratch, and output vector have sized
    // themselves, re-scoring whole batches through
    // [`Evaluator::evaluate_uncached_batch`] must not allocate.
    let p = kfuse_workloads::synth::scaling(60);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::new(&ctx, &model);

    // Distinct candidates built BEFORE the measured region, spanning
    // every ragged final-sweep fill (203 % 8 == 3).
    let groups = group_pool(ctx.n_kernels());
    let mut batch = CandidateBatch::new();
    for g in groups.iter().take(203) {
        batch.push(g);
    }

    let mut scratch = BatchScratch::new();
    let mut times: Vec<f64> = Vec::new();
    std::hint::black_box(ev.evaluate_uncached_batch(&batch, &mut scratch, &mut times));

    let before = allocations();
    let mut stats = kfuse_core::batch::BatchStats::default();
    for _ in 0..3 {
        stats.merge(ev.evaluate_uncached_batch(&batch, &mut scratch, &mut times));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state batched miss-path scoring must not allocate \
         ({delta} allocations over {} lanes in {} sweeps)",
        stats.lanes, stats.batches
    );
    // Lanes count only structure-passing candidates; the pool mixes in
    // infeasible groups on purpose, so this is a bound, not an equality.
    assert!(stats.lanes > 0 && stats.lanes <= 3 * batch.len() as u64);
}

#[test]
fn memo_hit_path_with_disabled_obs_is_allocation_free() {
    // The observability layer must cost nothing when disabled: probing a
    // warm memo through an evaluator built with `ObsHandle::disabled()`
    // (stack key + shard lookup + relaxed registry counters, no spans,
    // no timestamps) allocates nothing in steady state.
    let p = kfuse_workloads::synth::scaling(40);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::observed(&ctx, &model, ObsHandle::disabled());
    let groups = group_pool(ctx.n_kernels());

    // Warm: every group pays its one miss (scratch sizing + memo insert).
    let mut scratch = SynthScratch::new();
    for g in &groups {
        std::hint::black_box(ev.group_with(g, &mut scratch));
    }

    let probes_before = ev.probes();
    let before = allocations();
    for _ in 0..3 {
        for g in &groups {
            std::hint::black_box(ev.group_with(g, &mut scratch));
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "obs-disabled memo hit path must not allocate ({delta} allocations)"
    );
    // The registry still counted every multi-member probe.
    assert!(ev.probes() > probes_before);
    assert_eq!(
        ev.evaluations(),
        ev.snapshot().get(kfuse_obs::Counter::MemoMisses)
    );
}
