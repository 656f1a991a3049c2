//! Memoized objective evaluation shared by all solvers.
//!
//! The paper's key scalability lever is a cheap objective (§IV): projecting
//! a candidate new kernel must not require code generation. On top of that
//! we memoize per-group results — HGGA populations re-evaluate the same
//! groups constantly (good groups survive crossover by design), so the
//! effective cost per *plan* evaluation collapses to a few hash lookups.
//!
//! An evaluator belongs to one solve on one thread: the hierarchical
//! planner runs its independent region solves in parallel, each with its
//! own evaluator, so nothing here locks (`Evaluator` is not `Sync`).
//!
//! * **Sharding.** Groups hash to one of `SHARD_COUNT` independent
//!   shards by an order-insensitive 64-bit fingerprint, so the memo grows
//!   in sixteen small steps rather than one large one.
//! * **One slot per group.** A shard is an open-addressed slot table
//!   (linear probing, power-of-two capacity grown at ¾ load, 24-byte
//!   slots of fingerprint, eval, key offset and key length) and one byte
//!   arena holding each group's sorted member ids LEB128 delta-encoded —
//!   about a byte per member. A miss appends to those two and allocates
//!   nothing beyond their amortized growth; dropping a shard is two
//!   frees. The arena's offsets are `u32`: a shard whose arena would pass
//!   4 GiB stores nothing more and keeps answering by recomputing. A
//!   memoized pair or triple costs about 43 bytes (`alloc_free.rs`), and
//!   `cold_mid` peaks at 38.8 MiB RSS (DESIGN.md §8.2).
//! * **Allocation-free, exact probes.** The probe key is the group sorted
//!   into a buffer the evaluator's scratch owns. The shard comes from the
//!   fingerprint's low bits, the home slot from the bits above them; a
//!   slot answers only if its stored bytes decode to exactly the sorted
//!   key, so fingerprint collisions are correctness-neutral and a hit
//!   encodes nothing.
//! * **Singleton bypass.** Per-kernel baseline costs are precomputed into
//!   a dense array at construction; singleton groups never touch the memo.
//! * **One probe step, one miss flush.** [`Evaluator::group`] and
//!   [`Evaluator::group_batch`] share both: a probe sorts, fingerprints
//!   and looks the group up, queueing it on a miss; a flush scores the
//!   queue through [`kfuse_core::batch::score_into`] (eight lanes to a
//!   sweep), publishes it to the memo in queue order, and records one
//!   `batch_score` span. A lone miss is a one-candidate flush. A
//!   candidate's score does not depend on its batch-mates, so both entry
//!   points memoize the same evals, and `BatchesScored` /
//!   `BatchLanesFilled` count every sweep.
//!
//! Active-constraint pruning (§III-C) falls out of
//! [`kfuse_core::plan::PlanContext::check_group`]: capacity checks run only
//! for groups that actually stage pivots, and the first violated constraint
//! short-circuits the rest. Plan evaluation likewise short-circuits: the
//! first infeasible group aborts before any condensation (acyclicity) work
//! is done, and the condensation check itself reuses the evaluator's
//! scratch ([`kfuse_core::fuse::CondensationScratch`]).

use kfuse_core::batch::{score_into, BatchScratch, CandidateBatch};
use kfuse_core::fuse::{condensation_order_with, CondensationScratch};
use kfuse_core::model::PerfModel;
use kfuse_core::pipeline::SolveStats;
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_ir::KernelId;
use kfuse_obs::{
    Counter, Gauge, MetricsRegistry, MetricsSnapshot, ObsHandle, SpanId, WORKER_TRACK_BASE,
};
use std::cell::RefCell;
use std::time::Instant;

/// Number of memo shards. A power of two so the shard index is a mask of
/// the fingerprint. Nothing contends for them (an evaluator belongs to one
/// thread); they are kept for peak memory. With one unlocked table instead,
/// plans stayed byte-identical but `hgga-hier` peak RSS rose 27–31 % on
/// `synth500` and 13–19 % on `synth1000` and `synth2000` (EXPERIMENTS.md,
/// *One thread per evaluator*) — most likely because one table grows in a
/// few large doublings that each hold the old and the new buffers at once,
/// where sixteen shards double one at a time (the cause is not isolated).
const SHARD_COUNT: usize = 16;

/// Result of evaluating one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEval {
    /// Projected runtime of the group's new kernel, or [`f64::INFINITY`]
    /// if any constraint is violated (incl. profitability 1.1).
    pub time_s: f64,
}

impl GroupEval {
    /// True if the group satisfies every constraint.
    pub fn feasible(&self) -> bool {
        self.time_s.is_finite()
    }
}

/// Low fingerprint bits that pick the shard; the slot index is taken from
/// the bits above them.
const SHARD_BITS: u32 = SHARD_COUNT.trailing_zeros();

/// Exclusive bound on a shard's key-arena offsets (stored as `u32`).
const OFFSET_LIMIT: usize = u32::MAX as usize;

/// Capacity of a shard's first slot table.
const MIN_SLOTS: usize = 16;

/// One slot of a shard's table: a memoized group's fingerprint and eval,
/// and where its encoded members sit in the shard's key arena
/// (`keys[key_off..key_off + key_len]`). 24 bytes.
#[derive(Clone, Copy)]
struct Slot {
    fp: u64,
    eval: GroupEval,
    key_off: u32,
    /// Encoded key bytes. Every stored key is at least one byte long, so
    /// 0 marks a free slot.
    key_len: u32,
}

/// An unoccupied slot.
const FREE: Slot = Slot {
    fp: 0,
    eval: GroupEval { time_s: 0.0 },
    key_off: 0,
    key_len: 0,
};

/// One memo shard: an open-addressed slot table and the byte arena its
/// keys live in. Slots are probed linearly from the fingerprint's home
/// index and told apart by their full member list (the fingerprint only
/// filters), so collisions are exact. Nothing is ever evicted, so arena
/// offsets are stable for the evaluator's lifetime.
struct Shard {
    /// Power-of-two capacity (empty before the first insert), at most
    /// three quarters occupied so every probe ends on a free slot.
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
    /// Every stored group's sorted members, LEB128 delta-encoded by
    /// [`encode_key`], back to back.
    keys: Vec<u8>,
    /// [`OFFSET_LIMIT`] in every evaluator; tests lower it to reach the
    /// full-shard path without filling 4 GiB of keys.
    limit: usize,
}

impl Shard {
    fn new(limit: usize) -> Self {
        Shard {
            slots: Vec::new(),
            len: 0,
            keys: Vec::new(),
            limit,
        }
    }

    /// The memoized eval of the group with fingerprint `fp` and sorted
    /// members `key`.
    fn get(&self, fp: u64, key: &[KernelId]) -> Option<GroupEval> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = home(fp, mask);
        loop {
            let s = &self.slots[i];
            if s.key_len == 0 {
                return None;
            }
            let off = s.key_off as usize;
            if s.fp == fp && key_matches(&self.keys[off..off + s.key_len as usize], key) {
                return Some(s.eval);
            }
            i = (i + 1) & mask;
        }
    }

    /// Memoize `eval` for `key`, which the caller has just missed on. A
    /// shard whose key arena would pass [`Shard::limit`] stores nothing,
    /// and neither does an empty key.
    fn insert(&mut self, fp: u64, key: &[KernelId], eval: GroupEval) {
        debug_assert!(self.get(fp, key).is_none(), "{key:?} memoized twice");
        let off = self.keys.len();
        encode_key(key, &mut self.keys);
        let len = self.keys.len() - off;
        if len == 0 || self.keys.len() > self.limit {
            self.keys.truncate(off);
            return;
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = self.free_slot(fp);
        self.slots[i] = Slot {
            fp,
            eval,
            key_off: off as u32,
            key_len: len as u32,
        };
        self.len += 1;
    }

    /// Double the table (or make the first one) and re-place every slot
    /// by its stored fingerprint; keys are not touched.
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![FREE; cap]);
        for s in old.into_iter().filter(|s| s.key_len != 0) {
            let i = self.free_slot(s.fp);
            self.slots[i] = s;
        }
    }

    /// The first free slot on `fp`'s probe sequence.
    fn free_slot(&self, fp: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = home(fp, mask);
        while self.slots[i].key_len != 0 {
            i = (i + 1) & mask;
        }
        i
    }
}

/// Home slot of fingerprint `fp` in a table of `mask + 1` slots: the bits
/// above the shard index.
fn home(fp: u64, mask: usize) -> usize {
    (fp >> SHARD_BITS) as usize & mask
}

/// Append the sorted `key` to `out`: the first id, then each gap to the
/// previous id, every number LEB128-encoded (low seven bits first, the
/// high bit set on all but a number's last byte). Member ids of nearby
/// kernels make most gaps one byte. Gaps wrap, so [`key_matches`] stays
/// exact even for a key that is not sorted.
fn encode_key(key: &[KernelId], out: &mut Vec<u8>) {
    let mut prev = 0;
    for &KernelId(k) in key {
        let mut gap = k.wrapping_sub(prev);
        prev = k;
        while gap >= 0x80 {
            out.push(gap as u8 | 0x80);
            gap >>= 7;
        }
        out.push(gap as u8);
    }
}

/// True if `bytes` is exactly [`encode_key`] of the sorted `key`: decoded
/// against it member by member, with nothing left over.
fn key_matches(mut bytes: &[u8], key: &[KernelId]) -> bool {
    let mut prev = 0u32;
    for &KernelId(k) in key {
        let mut gap = 0u32;
        let mut shift = 0;
        loop {
            let Some((&b, rest)) = bytes.split_first() else {
                return false;
            };
            bytes = rest;
            gap |= u32::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
        }
        prev = prev.wrapping_add(gap);
        if prev != k {
            return false;
        }
    }
    bytes.is_empty()
}

/// The evaluator's reusable buffers. Every buffer is retained across
/// calls, so steady-state probing allocates nothing.
#[derive(Default)]
struct Scratch {
    /// The plan-level acyclicity check.
    cond: CondensationScratch,
    /// The probe key: the probed group sorted into canonical order.
    key: Vec<KernelId>,
    /// Distinct misses (sorted keys) awaiting the next flush; empty
    /// between calls.
    miss: CandidateBatch,
    /// Fingerprint of each entry in `miss` (parallel array).
    miss_fp: Vec<u64>,
    /// `(candidate index, miss index)` pairs resolved after the flush.
    pending: Vec<(u32, u32)>,
    /// Scored seconds per miss (parallel to `miss`).
    times: Vec<f64>,
    /// Synthesis + projection lane scratch.
    core: BatchScratch,
}

/// Memoized objective evaluator for one solve on one thread.
///
/// All counters live in an owned [`MetricsRegistry`] (the `kfuse-obs`
/// taxonomy); solvers snapshot it into their
/// [`kfuse_core::pipeline::SolveOutcome`], whose rates
/// [`SolveStats::from_metrics`] derives.
///
/// The memo and the scratch sit in `RefCell`s, so an evaluator cannot be
/// shared between threads; a caller that wants that must bring the
/// synchronization back:
///
/// ```compile_fail,E0277
/// fn share(ev: &kfuse_search::Evaluator<'_>) {
///     std::thread::scope(|s| {
///         s.spawn(|| ev.snapshot());
///     });
/// }
/// ```
pub struct Evaluator<'a> {
    /// Planning context (metadata + graphs).
    pub ctx: &'a PlanContext,
    /// The projection model used as objective (Eq. 1).
    pub model: &'a dyn PerfModel,
    shards: [RefCell<Shard>; SHARD_COUNT],
    /// Dense per-kernel baseline: `baseline[k]` is the singleton eval of
    /// kernel `k`, precomputed so singleton groups bypass the memo.
    baseline: Vec<GroupEval>,
    scratch: RefCell<Scratch>,
    metrics: MetricsRegistry,
    obs: ObsHandle<'a>,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator over `ctx` and `model` (tracing disabled).
    pub fn new(ctx: &'a PlanContext, model: &'a dyn PerfModel) -> Self {
        Self::observed(ctx, model, ObsHandle::disabled())
    }

    /// [`Self::new`] with a tracing handle: every miss flush emits one
    /// `batch_score` span on the evaluator track ([`WORKER_TRACK_BASE`]).
    /// A disabled handle costs one branch on the miss path and nothing on
    /// the hit path.
    pub fn observed(ctx: &'a PlanContext, model: &'a dyn PerfModel, obs: ObsHandle<'a>) -> Self {
        let mut scratch = Scratch::default();
        for i in 0..ctx.n_kernels() {
            scratch.miss.push(&[KernelId(i as u32)]);
        }
        score_into(
            ctx,
            model,
            &scratch.miss,
            &mut scratch.core,
            &mut scratch.times,
        );
        let baseline = scratch
            .times
            .iter()
            .map(|&time_s| GroupEval { time_s })
            .collect();
        scratch.miss.clear();
        Evaluator {
            ctx,
            model,
            shards: std::array::from_fn(|_| RefCell::new(Shard::new(OFFSET_LIMIT))),
            baseline,
            scratch: RefCell::new(scratch),
            metrics: MetricsRegistry::new(),
            obs,
        }
    }

    /// The metrics registry this evaluator accumulates into. Solvers add
    /// their own counters (generations, improvements, …) here so one
    /// snapshot captures the whole run.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Point-in-time copy of all accumulated metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Close a solve's books: set the `best_objective` gauge to
    /// `objective` and the memo's hit and miss rates as
    /// [`SolveStats::from_metrics`] derives them, then return the final
    /// snapshot and its stats.
    pub(crate) fn finish(&self, objective: f64) -> (MetricsSnapshot, SolveStats) {
        let rates = SolveStats::from_metrics(&self.snapshot());
        self.metrics.set_gauge(Gauge::BestObjective, objective);
        self.metrics
            .set_gauge(Gauge::CacheHitRate, rates.cache_hit_rate);
        self.metrics.set_gauge(Gauge::MissRate, rates.miss_rate);
        let metrics = self.snapshot();
        let stats = SolveStats::from_metrics(&metrics);
        (metrics, stats)
    }

    /// Record an acyclicity check performed outside [`Evaluator::plan`]:
    /// a chromosome seal's `condensation_order_with` reports through this, so
    /// `condensation_checks` counts every check a solve made.
    pub(crate) fn count_condensation(&self) {
        self.metrics.incr(Counter::CondensationChecks);
    }

    /// Add `v` to a solver-side counter (generations, finalizes, …): the
    /// GA loops and chromosome machinery report through the evaluator so
    /// the whole run lands in one registry.
    pub(crate) fn count(&self, c: Counter, v: u64) {
        self.metrics.add(c, v);
    }

    /// The precomputed singleton eval of kernel `k` — the delta path's
    /// repair step resolves lone orphans through this without touching the
    /// memo or re-sorting a one-element key.
    pub fn singleton(&self, k: KernelId) -> GroupEval {
        self.baseline[k.index()]
    }

    /// Evaluate one group (memoized). `group` need not be sorted. A miss
    /// is a one-candidate flush: the same probe step and miss flush as
    /// [`Self::group_batch`].
    pub fn group(&self, group: &[KernelId]) -> GroupEval {
        if let [k] = group {
            return self.baseline[k.index()];
        }
        self.metrics.incr(Counter::MemoProbes);
        let s = &mut *self.scratch.borrow_mut();
        self.probe(group, s).unwrap_or_else(|_| {
            self.flush(s);
            GroupEval { time_s: s.times[0] }
        })
    }

    /// The shard that holds the group with fingerprint `fp`.
    fn shard(&self, fp: u64) -> &RefCell<Shard> {
        &self.shards[(fp & (SHARD_COUNT as u64 - 1)) as usize]
    }

    /// Evaluate a whole plan: sum of group times, or infinity if any group
    /// is infeasible or the plan's condensation has a cycle. Returns on the
    /// first infeasible group without touching the condensation machinery.
    pub fn plan(&self, plan: &FusionPlan) -> f64 {
        let mut total = 0.0;
        let mut any_multi = false;
        for g in &plan.groups {
            let e = self.group(g);
            if !e.feasible() {
                return f64::INFINITY;
            }
            any_multi |= g.len() >= 2;
            total += e.time_s;
        }
        if any_multi {
            self.metrics.incr(Counter::CondensationChecks);
            let cond = &mut self.scratch.borrow_mut().cond;
            if condensation_order_with(plan, &self.ctx.exec, cond).is_err() {
                return f64::INFINITY;
            }
        }
        total
    }

    /// Evaluate every candidate of `cands` (memoized), leaving `out[i]` as
    /// the eval of candidate `i`. Equivalent to calling [`Self::group`]
    /// per candidate — bitwise-identical results — but the distinct misses
    /// of the whole batch go to one flush, so it pays the synthesis +
    /// projection cost once per [`kfuse_core::batch::LANES`] misses
    /// instead of once per miss.
    pub fn group_batch(&self, cands: &CandidateBatch, out: &mut Vec<GroupEval>) {
        let s = &mut *self.scratch.borrow_mut();
        s.pending.clear();
        out.clear();
        let mut multi_probes = 0u64;
        for i in 0..cands.len() {
            let eval = match cands.group(i) {
                [k] => self.baseline[k.index()],
                group => {
                    multi_probes += 1;
                    // NaN is a placeholder the flush overwrites.
                    self.probe(group, s).unwrap_or_else(|j| {
                        s.pending.push((i as u32, j as u32));
                        GroupEval { time_s: f64::NAN }
                    })
                }
            };
            out.push(eval);
        }
        self.metrics.add(Counter::MemoProbes, multi_probes);
        if s.miss.is_empty() {
            return;
        }
        self.flush(s);
        for &(i, j) in &s.pending {
            out[i as usize] = GroupEval {
                time_s: s.times[j as usize],
            };
        }
    }

    /// The probe step: sort `group` into the key buffer, fingerprint it
    /// and look it up in its shard. A miss is queued for the next
    /// [`Self::flush`] (once: an in-batch duplicate finds the queued key)
    /// and answers with its queue index.
    fn probe(&self, group: &[KernelId], s: &mut Scratch) -> Result<GroupEval, usize> {
        s.key.clear();
        s.key.extend_from_slice(group);
        s.key.sort_unstable();
        let key = &s.key[..];
        let fp = fingerprint(key);
        if let Some(hit) = self.shard(fp).borrow().get(fp, key) {
            return Ok(hit);
        }
        Err((0..s.miss.len())
            .find(|&j| s.miss_fp[j] == fp && s.miss.group(j) == key)
            .unwrap_or_else(|| {
                s.miss_fp.push(fp);
                s.miss.push(key)
            }))
    }

    /// The miss flush: score every queued miss in lane sweeps, publish the
    /// evals to the memo in queue order (so it fills deterministically),
    /// count them, record one `batch_score` span, and empty the queue.
    /// Miss `j`'s seconds are left in `s.times[j]`.
    fn flush(&self, s: &mut Scratch) {
        let t0 = Instant::now();
        let stats = score_into(self.ctx, self.model, &s.miss, &mut s.core, &mut s.times);
        let misses = s.miss.len() as u64;
        self.metrics.add(Counter::MemoMisses, misses);
        self.metrics.add(Counter::SynthNs, stats.synth_ns);
        self.metrics.add(Counter::BatchesScored, stats.batches);
        self.metrics.add(Counter::BatchLanesFilled, stats.lanes);
        for (j, (&fp, &time_s)) in s.miss_fp.iter().zip(&s.times).enumerate() {
            self.shard(fp)
                .borrow_mut()
                .insert(fp, s.miss.group(j), GroupEval { time_s });
        }
        let dur = t0.elapsed();
        self.metrics.add(Counter::MissNs, dur.as_nanos() as u64);
        if self.obs.is_enabled() {
            self.obs.record_span(
                SpanId::BatchScore,
                WORKER_TRACK_BASE,
                t0,
                dur,
                [misses, stats.lanes],
            );
        }
        s.miss.clear();
        s.miss_fp.clear();
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-insensitive 64-bit group fingerprint: each member id is expanded
/// through splitmix64 and the results combined with a commutative sum, so
/// any permutation of the same members produces the same fingerprint.
/// Collisions are tolerated (entries are verified member-by-member).
fn fingerprint(group: &[KernelId]) -> u64 {
    let mut acc = (group.len() as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    for &k in group {
        acc = acc.wrapping_add(splitmix64(k.0 as u64));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::model::ProposedModel;
    use kfuse_core::pipeline::prepare;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::Expr;

    fn ctx() -> PlanContext {
        let mut pb = ProgramBuilder::new("p", [256, 128, 8]);
        let a = pb.array("A");
        let [b, c, d] = pb.arrays(["B", "C", "D"]);
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("k2").write(d, Expr::at(b) + Expr::at(c)).build();
        let p = pb.build();
        prepare(&p, &GpuSpec::k20x(), FpPrecision::Double).1
    }

    /// `ctx()` plus a fourth kernel sharing no data with k0 (kinship 0).
    fn ctx_with_stranger() -> PlanContext {
        let mut pb = ProgramBuilder::new("p", [256, 128, 8]);
        let a = pb.array("A");
        let [b, c, d] = pb.arrays(["B", "C", "D"]);
        let [x, y] = pb.arrays(["X", "Y"]);
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("k2").write(d, Expr::at(b) + Expr::at(c)).build();
        pb.kernel("k3")
            .write(y, Expr::at(x) * Expr::lit(0.5))
            .build();
        let p = pb.build();
        prepare(&p, &GpuSpec::k20x(), FpPrecision::Double).1
    }

    #[test]
    fn memoization_counts_distinct_groups_once() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let g = vec![KernelId(0), KernelId(1)];
        let e1 = ev.group(&g);
        let e2 = ev.group(&[KernelId(1), KernelId(0)]); // order-insensitive
        assert_eq!(e1, e2);
        assert_eq!(ev.metrics().get(Counter::MemoMisses), 1);
    }

    #[test]
    fn a_lone_miss_is_a_one_lane_sweep() {
        // The one counter rule: a lone miss is counted like any flush, so
        // it is one sweep filling one lane; its repeat is a hit and adds
        // nothing.
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let pair = [KernelId(0), KernelId(1)];
        for _ in 0..2 {
            assert!(ev.group(&pair).feasible());
            let m = ev.snapshot();
            assert_eq!(m.get(Counter::MemoMisses), 1);
            assert_eq!(m.get(Counter::BatchesScored), 1);
            assert_eq!(m.get(Counter::BatchLanesFilled), 1);
        }
        assert_eq!(ev.snapshot().get(Counter::MemoProbes), 2);
    }

    #[test]
    fn singletons_bypass_the_memo() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        for k in 0..3 {
            let e = ev.group(&[KernelId(k)]);
            assert!(e.feasible());
        }
        // Baseline lookups are not memo misses.
        assert_eq!(ev.metrics().get(Counter::MemoMisses), 0);
    }

    #[test]
    fn identity_plan_is_finite_and_equals_measured_sum() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let plan = FusionPlan::identity(3);
        let t = ev.plan(&plan);
        let sum: f64 = ctx.info.kernels.iter().map(|k| k.runtime_s).sum();
        assert!((t - sum).abs() / sum < 1e-12);
    }

    #[test]
    fn profitable_merge_is_feasible_and_faster() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let fused = FusionPlan::new(vec![vec![KernelId(0), KernelId(1), KernelId(2)]]);
        let t_f = ev.plan(&fused);
        let t_i = ev.plan(&FusionPlan::identity(3));
        assert!(t_f.is_finite());
        assert!(t_f < t_i);
    }

    #[test]
    fn infeasible_plan_short_circuits_before_condensation() {
        let ctx = ctx_with_stranger();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        // {k0, k3} share no arrays → kinship violation → infeasible group.
        let bad = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(3)],
            vec![KernelId(1)],
            vec![KernelId(2)],
        ]);
        assert!(ev.plan(&bad).is_infinite());
        assert_eq!(
            ev.metrics().get(Counter::CondensationChecks),
            0,
            "infeasible plan must not reach the condensation check"
        );
        // A feasible multi-member plan does run (exactly) one check.
        let good = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1), KernelId(2)],
            vec![KernelId(3)],
        ]);
        assert!(ev.plan(&good).is_finite());
        assert_eq!(ev.metrics().get(Counter::CondensationChecks), 1);
    }

    #[test]
    fn matches_unmemoized_objective() {
        let ctx = ctx_with_stranger();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let plans = [
            FusionPlan::identity(4),
            FusionPlan::new(vec![
                vec![KernelId(0), KernelId(1), KernelId(2)],
                vec![KernelId(3)],
            ]),
            FusionPlan::new(vec![
                vec![KernelId(2), KernelId(1)],
                vec![KernelId(0)],
                vec![KernelId(3)],
            ]),
            FusionPlan::new(vec![
                vec![KernelId(0), KernelId(3)],
                vec![KernelId(1)],
                vec![KernelId(2)],
            ]),
        ];
        for plan in &plans {
            let a = ev.plan(plan);
            let mut b = ctx.objective(plan, &model);
            if kfuse_core::fuse::condensation_order(plan, &ctx.exec).is_err() {
                b = f64::INFINITY;
            }
            assert_eq!(a.is_finite(), b.is_finite(), "feasibility of {plan:?}");
            assert!(
                !a.is_finite() || a.to_bits() == b.to_bits(),
                "memoized {a} vs unmemoized {b} for {plan:?}"
            );
        }
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_length_aware() {
        let a = [KernelId(3), KernelId(7), KernelId(11)];
        let b = [KernelId(11), KernelId(3), KernelId(7)];
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // {3} vs {3,3} style degeneracies differ by the length term.
        assert_ne!(
            fingerprint(&[KernelId(3)]),
            fingerprint(&[KernelId(3), KernelId(3)])
        );
    }

    fn ids(v: &[u32]) -> Vec<KernelId> {
        v.iter().map(|&k| KernelId(k)).collect()
    }

    fn t(time_s: f64) -> GroupEval {
        GroupEval { time_s }
    }

    /// Every stored key of `shard`, decoded, in slot order.
    fn stored_keys(shard: &Shard) -> Vec<Vec<u32>> {
        shard
            .slots
            .iter()
            .filter(|s| s.key_len != 0)
            .map(|s| {
                let off = s.key_off as usize;
                let mut bytes = &shard.keys[off..off + s.key_len as usize];
                let mut key = Vec::new();
                let mut prev = 0u32;
                while !bytes.is_empty() {
                    let (mut gap, mut shift) = (0u32, 0);
                    while let Some((&b, rest)) = bytes.split_first() {
                        bytes = rest;
                        gap |= u32::from(b & 0x7f) << shift;
                        shift += 7;
                        if b < 0x80 {
                            break;
                        }
                    }
                    prev += gap;
                    key.push(prev);
                }
                key
            })
            .collect()
    }

    #[test]
    fn colliding_fingerprints_probe_without_aliasing() {
        // Two distinct keys forced onto one fingerprint: both stay
        // retrievable, neither answers for the other or for a third key.
        let mut shard = Shard::new(OFFSET_LIMIT);
        let (a, b, c) = (ids(&[1, 2]), ids(&[3, 4, 5]), ids(&[1, 3]));
        shard.insert(7, &a, t(1.0));
        shard.insert(7, &b, t(2.0));
        assert_eq!(shard.get(7, &a), Some(t(1.0)));
        assert_eq!(shard.get(7, &b), Some(t(2.0)));
        assert_eq!(shard.get(7, &c), None);
        assert_eq!(shard.get(8, &a), None);
        assert_eq!(shard.len, 2);
        // One home slot, so the second key sits in the next one.
        let home = home(7, shard.slots.len() - 1);
        assert_eq!(shard.slots[home].fp, 7);
        assert_eq!(shard.slots[(home + 1) % shard.slots.len()].fp, 7);
        assert_eq!(stored_keys(&shard), [vec![1, 2], vec![3, 4, 5]]);
        // First id, then gaps: 1, 1 and 3, 1, 1.
        assert_eq!(shard.keys, [1, 1, 3, 1, 1]);
    }

    #[test]
    fn leb128_boundaries_round_trip_as_first_id_and_as_gap() {
        // Each boundary value stored once as a key's first id and once as
        // the gap after it, beside a one-byte number (gap 1, first id 0):
        // every key answers for itself only, and takes exactly the bytes
        // its numbers need.
        let edges = [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 21, 4),
            (u32::MAX - 1, 5),
        ];
        let mut shard = Shard::new(OFFSET_LIMIT);
        let mut keys = Vec::new();
        for (i, &(v, bytes)) in edges.iter().enumerate() {
            let first = ids(&[v, v.saturating_add(1)]);
            let gap = ids(&[0, v]);
            for key in [first, gap] {
                let before = shard.keys.len();
                shard.insert(fingerprint(&key), &key, t(i as f64));
                assert_eq!(shard.keys.len() - before, bytes + 1, "{key:?}");
                keys.push((key, t(i as f64)));
            }
        }
        assert_eq!(keys[0].0, ids(&[0, 1]));
        assert_eq!(keys[1].0, ids(&[0, 0]));
        for (key, eval) in &keys {
            assert_eq!(shard.get(fingerprint(key), key), Some(*eval), "{key:?}");
            // The same fingerprint with the last member moved by one misses.
            let mut near = key.clone();
            let last = near.last_mut().unwrap();
            last.0 = last.0.wrapping_sub(1);
            assert_eq!(shard.get(fingerprint(key), &near), None, "{near:?}");
        }
        let stored: Vec<Vec<u32>> = keys
            .iter()
            .map(|(k, _)| k.iter().map(|k| k.0).collect())
            .collect();
        let mut found = stored_keys(&shard);
        found.sort();
        let mut want = stored.clone();
        want.sort();
        assert_eq!(found, want);
    }

    #[test]
    fn a_repeated_member_never_answers_for_the_set() {
        // [3, 3, 5] encodes as 3, 0, 2 and [3, 5] as 3, 2: under one
        // forced fingerprint neither answers for the other.
        let (dup, set) = (ids(&[3, 3, 5]), ids(&[3, 5]));
        let mut shard = Shard::new(OFFSET_LIMIT);
        shard.insert(9, &dup, t(1.0));
        assert_eq!(shard.get(9, &set), None);
        shard.insert(9, &set, t(2.0));
        assert_eq!(shard.get(9, &dup), Some(t(1.0)));
        assert_eq!(shard.get(9, &set), Some(t(2.0)));
        let mut shard = Shard::new(OFFSET_LIMIT);
        shard.insert(9, &set, t(2.0));
        assert_eq!(shard.get(9, &dup), None);
        assert_eq!(shard.get(9, &ids(&[3, 5, 5])), None);
    }

    #[test]
    fn full_shard_returns_evals_without_memoizing() {
        // A shard at its arena high-water mark (faked: the real one is
        // u32::MAX) takes no further keys, and neither wraps nor panics.
        let mut shard = Shard::new(4);
        shard.insert(1, &ids(&[0, 1, 2]), t(1.0));
        // Key arena would pass the limit (3 + 2 > 4).
        shard.insert(2, &ids(&[0, 1]), t(2.0));
        assert_eq!(shard.get(2, &ids(&[0, 1])), None);
        assert_eq!(shard.len, 1, "no slot may point at a refused key");
        assert_eq!(shard.keys.len(), 3);
        // What was stored before still answers.
        assert_eq!(shard.get(1, &ids(&[0, 1, 2])), Some(t(1.0)));
        // An empty key would read as a free slot, so it is never stored.
        shard.insert(3, &[], t(3.0));
        assert_eq!((shard.get(3, &[]), shard.len), (None, 1));
        // A shard with no room at all keeps no key and makes no table.
        let mut shard = Shard::new(0);
        shard.insert(1, &ids(&[0, 1]), t(1.0));
        assert_eq!(shard.get(1, &ids(&[0, 1])), None);
        assert_eq!((shard.slots.capacity(), shard.keys.len()), (0, 0));

        // Through the evaluator: every probe of the refused group is a
        // miss that recomputes the same eval.
        let ctx = ctx();
        let model = ProposedModel::default();
        let mut ev = Evaluator::new(&ctx, &model);
        let expect = ev.group(&ids(&[0, 1]));
        let misses = ev.metrics().get(Counter::MemoMisses);
        for shard in &mut ev.shards {
            *shard = RefCell::new(Shard::new(0));
        }
        let mut cands = CandidateBatch::new();
        let mut out = Vec::new();
        for round in 1..=3 {
            cands.clear();
            cands.push(&ids(&[1, 0]));
            ev.group_batch(&cands, &mut out);
            assert_eq!((ev.group(&ids(&[0, 1])), out[0]), (expect, expect));
            assert_eq!(ev.metrics().get(Counter::MemoMisses), misses + 2 * round);
        }
    }

    #[test]
    fn slot_tables_grow_at_three_quarters_and_keep_every_key() {
        // 1 000 distinct keys into one shard: the table stays a power of
        // two at most three quarters full, and every key still answers.
        let mut shard = Shard::new(OFFSET_LIMIT);
        let keys: Vec<Vec<KernelId>> = (0..1000u32).map(|i| ids(&[i, i + 1 + i % 300])).collect();
        for (i, key) in keys.iter().enumerate() {
            shard.insert(fingerprint(key), key, t(i as f64));
            let cap = shard.slots.len();
            assert!(cap.is_power_of_two() && 4 * shard.len <= 3 * cap);
        }
        assert_eq!(shard.slots.len(), 2048);
        assert_eq!(std::mem::size_of::<Slot>(), 24);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(shard.get(fingerprint(key), key), Some(t(i as f64)));
        }
    }

    #[test]
    fn interleaved_scalar_and_batched_probes_store_each_key_once() {
        // One thread alternating the two entry points over overlapping
        // windows of one group list, each batch carrying its window twice
        // (in-batch duplicates, one of them reversed). Every distinct key
        // is stored once and paid for exactly once.
        let p = kfuse_workloads::synth::scaling(24);
        let ctx = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double).1;
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let groups: Vec<Vec<KernelId>> = (0..24u32)
            .flat_map(|i| (i + 1..24).map(move |j| ids(&[i, j])))
            .collect();
        let mut cands = CandidateBatch::new();
        let mut out = Vec::new();
        for (round, start) in (0..groups.len()).step_by(5).enumerate() {
            let window = &groups[start..(start + 8).min(groups.len())];
            if round % 2 == 0 {
                for g in window {
                    ev.group(g);
                }
            } else {
                cands.clear();
                for g in window {
                    cands.push(g);
                    cands.extend_members(&[g[1], g[0]]);
                    cands.seal();
                }
                ev.group_batch(&cands, &mut out);
                for (i, g) in window.iter().enumerate() {
                    assert_eq!(out[2 * i], out[2 * i + 1]);
                    assert_eq!(out[2 * i], ev.group(g));
                }
            }
        }
        let mut stored = std::collections::HashSet::new();
        for shard in &ev.shards {
            let shard = shard.borrow();
            let keys = stored_keys(&shard);
            assert_eq!(keys.len(), shard.len);
            for key in keys {
                assert_eq!(key.len(), 2);
                assert!(stored.insert(key), "a key is stored twice");
            }
        }
        assert_eq!(stored.len(), groups.len());
        assert_eq!(ev.metrics().get(Counter::MemoMisses), groups.len() as u64);
    }

    #[test]
    fn large_group_keys_are_order_insensitive() {
        // A 40-kernel chain probed forwards and backwards sorts into one
        // key; feasibility of the mega-group is irrelevant to the memo.
        let mut pb = ProgramBuilder::new("chain", [256, 128, 8]);
        let mut prev = pb.array("A0");
        let mut kernels = Vec::new();
        for i in 0..40 {
            let next = pb.array(format!("A{}", i + 1));
            pb.kernel(format!("k{i}"))
                .write(next, Expr::at(prev) + Expr::lit(1.0))
                .build();
            kernels.push(KernelId(i as u32));
            prev = next;
        }
        let p = pb.build();
        let ctx = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double).1;
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let e1 = ev.group(&kernels);
        let mut rev = kernels.clone();
        rev.reverse();
        let e2 = ev.group(&rev);
        assert_eq!(e1, e2);
        assert_eq!(ev.metrics().get(Counter::MemoMisses), 1);
    }
}
