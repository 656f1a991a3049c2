//! Zero-allocation guarantees of the steady-state evaluation paths.
//!
//! A counting global allocator wraps `System`; after warming the lane
//! scratch once, re-scoring distinct groups one at a time — the one-lane
//! batch a lone memo miss flushes through
//! [`kfuse_core::batch::score_into`] (structure checks + synthesis +
//! `project_batch` + profitability) — must not allocate at all, and
//! neither must full eight-lane batches. Memo
//! insertion is outside this unit and held to its own bounds: a shard
//! appends to two growable arrays, so a long sweep of distinct misses
//! allocates only for their amortized growth, and what it keeps per
//! memoized group stays under a byte bound.
//!
//! The observability rework adds a second guarantee: with tracing
//! disabled ([`ObsHandle::disabled`]), the memo *hit* path with its
//! always-on registry counters must also stay allocation-free.

use kfuse_core::batch::{score_into, synthesize_batch, BatchScratch, CandidateBatch, LANES};
use kfuse_core::model::{PerfModel, ProposedModel, RooflineModel, SimpleModel};
use kfuse_core::pipeline::{prepare, Solver};
use kfuse_core::plan::ScoreScratch;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::KernelId;
use kfuse_obs::{Counter, ObsHandle};
use kfuse_search::{Evaluator, GreedySolver};
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
    // Bytes the calling thread has allocated less the bytes it has freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    LIVE_BYTES.with(|c| c.set(c.get() + delta));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread holds allocated right now.
fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Distinct member-sorted groups spanning singletons up to 32 members,
/// deterministic in `n`.
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
    let models: [Box<dyn PerfModel>; 3] = [
        Box::new(RooflineModel),
        Box::new(SimpleModel),
        Box::new(ProposedModel::default()),
    ];

    // Distinct groups built BEFORE the measured region.
    let groups = group_pool(ctx.n_kernels());

    // Warm the scratch to the program's dimensions (the first one-lane
    // sweep sizes every column and lane 0's output buffers to their upper
    // bounds; the pool's widest group sizes the candidate queue).
    let mut scratch = BatchScratch::new();
    let mut one = CandidateBatch::new();
    let mut times: Vec<f64> = Vec::new();
    let mut score_alone = |g: &[KernelId], scratch: &mut BatchScratch| {
        one.clear();
        one.push(g);
        score_into(&ctx, &model, &one, scratch, &mut times);
        std::hint::black_box(times[0]);
    };
    for g in &groups {
        score_alone(g, &mut scratch);
    }

    let before = allocations();
    for _ in 0..3 {
        for g in &groups {
            score_alone(g, &mut scratch);
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state one-lane miss scoring must not allocate ({delta} allocations over {} evals)",
        3 * groups.len()
    );

    // Every model's `project_batch` over a one-lane sweep shares the same
    // guarantee.
    for m in &models {
        let before = allocations();
        for g in &groups {
            if g.len() < 2 {
                continue;
            }
            let view = synthesize_batch(&ctx.synth, &ctx.info, &[g], &mut scratch);
            let mut t = [0.0; LANES];
            m.project_batch(&ctx.info, &view, &mut t);
            std::hint::black_box(t);
        }
        let delta = allocations() - before;
        assert_eq!(delta, 0, "{} project_batch must not allocate", m.name());
    }
}

#[test]
fn batched_miss_path_is_allocation_free_once_warm() {
    // The eight-lane analogue of the one-lane guarantee above: once the
    // candidate queue, lane scratch, and output vector have sized
    // themselves, re-scoring whole batches through `score_into` must not
    // allocate.
    let p = kfuse_workloads::synth::scaling(60);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();

    // Distinct candidates built BEFORE the measured region, spanning
    // every ragged final-sweep fill (203 % 8 == 3).
    let groups = group_pool(ctx.n_kernels());
    let mut batch = CandidateBatch::new();
    for g in groups.iter().take(203) {
        batch.push(g);
    }

    let mut scratch = BatchScratch::new();
    let mut times: Vec<f64> = Vec::new();
    std::hint::black_box(score_into(&ctx, &model, &batch, &mut scratch, &mut times));

    let before = allocations();
    let mut stats = kfuse_core::batch::BatchStats::default();
    for _ in 0..3 {
        stats.merge(score_into(&ctx, &model, &batch, &mut scratch, &mut times));
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
    // (sorted key + shard lookup + relaxed registry counters, no spans,
    // no timestamps) allocates nothing in steady state.
    let p = kfuse_workloads::synth::scaling(40);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::observed(&ctx, &model, ObsHandle::disabled());
    let groups = group_pool(ctx.n_kernels());

    // Warm: every group pays its one miss (scratch sizing + memo insert).
    for g in &groups {
        std::hint::black_box(ev.group(g));
    }

    let probes_before = ev.snapshot().get(Counter::MemoProbes);
    let before = allocations();
    for _ in 0..3 {
        for g in &groups {
            std::hint::black_box(ev.group(g));
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "obs-disabled memo hit path must not allocate ({delta} allocations)"
    );
    // The registry still counted every multi-member probe.
    assert!(ev.snapshot().get(Counter::MemoProbes) > probes_before);
}

#[test]
fn distinct_misses_allocate_only_for_amortized_growth() {
    // 20 000 distinct multi-member groups over 60 kernels (every pair,
    // then triples). The first half warms the evaluator's queues and takes
    // each shard's two arrays past their small sizes; the second half —
    // 10 000 further distinct misses, every one published to the memo —
    // may then allocate only where an array doubles: at most once each
    // for 16 shards x (slot table, key arena). A memo that boxes its keys
    // pays two allocations per miss, > 20 000 here.
    let p = kfuse_workloads::synth::scaling(60);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let n = ctx.n_kernels() as u32;
    let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| vec![KernelId(a), KernelId(b)]));
    let triples = (0..n).flat_map(|a| {
        (a + 1..n)
            .flat_map(move |b| (b + 1..n).map(move |c| vec![KernelId(a), KernelId(b), KernelId(c)]))
    });
    let groups: Vec<Vec<KernelId>> = pairs.chain(triples).take(20_000).collect();
    assert_eq!(groups.len(), 20_000);

    let mut cands = CandidateBatch::new();
    let mut out = Vec::new();
    let ev = Evaluator::new(&ctx, &model);
    let live_empty = live_bytes();
    let mut sweep = |groups: &[Vec<KernelId>]| {
        for chunk in groups.chunks(48) {
            cands.clear();
            for g in chunk {
                cands.push(g);
            }
            ev.group_batch(&cands, &mut out);
        }
    };
    sweep(&groups[..10_000]);
    let misses = ev.snapshot().get(Counter::MemoMisses);
    let before = allocations();
    sweep(&groups[10_000..]);
    let delta = allocations() - before;
    assert_eq!(
        ev.snapshot().get(Counter::MemoMisses) - misses,
        10_000,
        "every probe is a miss"
    );
    assert!(
        delta < 64,
        "10 000 distinct misses performed {delta} allocations"
    );

    // What the memo holds for 20 000 groups of two and three members:
    // everything the thread gained since the evaluator was built (its
    // miss queues and the sweep's buffers are a few kilobytes of that),
    // per memoized group. A slot table of
    // 24-byte slots at most ¾ full plus a byte arena of delta-encoded
    // keys measures 42.8 B; the layout it replaced — a fingerprint map,
    // 24-byte chained entries and 4 bytes per member — measured 80.5 B.
    let per_entry = (live_bytes() - live_empty) as f64 / 20_000.0;
    assert!(
        per_entry < 60.0,
        "the memo holds {per_entry:.1} live bytes per memoized group"
    );
}

#[test]
fn a_repeat_plan_check_on_a_warm_scratch_is_allocation_free() {
    // An exact hit re-checks its cached plan in one pass; on the scratch
    // kept beside the program's context (the daemon keeps one), a repeat
    // check allocates nothing: partition marks, re-sort buffer, lanes and
    // condensation pass are all reused. One plan lists every group's
    // members backwards, so the re-sort buffer is exercised too.
    let model = ProposedModel::default();
    for name in ["rk3", "scale-les"] {
        let p = kfuse_workloads::by_name(name).unwrap();
        let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let plan = GreedySolver.solve(&ctx, &model).plan;
        assert!(plan.new_kernel_count() > 0, "{name}: nothing fused");
        let mut backwards = plan.clone();
        for g in &mut backwards.groups {
            g.reverse();
        }
        let mut scratch = ScoreScratch::new();
        for plan in [&plan, &backwards] {
            let first = ctx.check_and_score(plan, &model, &mut scratch);
            let first = first.expect("the greedy plan checks").to_bits();
            let before = allocations();
            for _ in 0..3 {
                let again = ctx.check_and_score(plan, &model, &mut scratch);
                assert_eq!(again.map(f64::to_bits), Ok(first));
            }
            let delta = allocations() - before;
            assert_eq!(delta, 0, "{name}: a repeat check allocated {delta} times");
        }
    }
}

#[test]
fn large_group_probes_are_allocation_free_once_warm() {
    // Groups of 34–41 members (returned plans of synth100 carry 34-member
    // groups) sort into the evaluator's one key buffer on both entry
    // points, so re-probing them allocates nothing.
    let p = kfuse_workloads::synth::scaling(60);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::new(&ctx, &model);
    let groups: Vec<Vec<KernelId>> = (0..8u32)
        .map(|i| (0..34 + i).rev().map(|k| KernelId(k + i)).collect())
        .collect();

    let mut cands = CandidateBatch::new();
    let mut out = Vec::new();
    let mut round = || {
        cands.clear();
        for g in &groups {
            std::hint::black_box(ev.group(g));
            cands.push(g);
        }
        ev.group_batch(&cands, &mut out);
    };
    round();
    let before = allocations();
    for _ in 0..3 {
        round();
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "large-group probes allocated {delta} times");
    assert_eq!(ev.snapshot().get(Counter::MemoMisses), groups.len() as u64);
}
