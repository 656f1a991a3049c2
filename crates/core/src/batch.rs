//! The one group synthesis sweep: check + synthesis + projection for up
//! to [`LANES`] candidate groups per sweep over the SoA [`SynthTables`].
//!
//! The HGGA's memo-miss path is branch-light integer arithmetic over CSR
//! use rows — the textbook shape for SIMD. This module runs it
//! lane-per-candidate with fixed-width hand-unrolled lane arrays
//! (`[u32; LANES]` / `[u64; LANES]` columns) that LLVM auto-vectorizes on
//! stable Rust (no nightly `std::simd`):
//!
//! * [`CandidateBatch`] — a flat CSR list of candidate groups to score.
//! * [`BatchScratch`] — reusable lane-column scratch: one packed
//!   `[T; LANES]` slot per compact array id, validated by an epoch stamp
//!   so clearing between sweeps is O(arrays touched), and each lane's slot
//!   seeded on that lane's first touch; plus the two bitsets of the
//!   structural checks.
//! * [`synthesize_batch`] — the synthesis of 1..=[`LANES`] candidates,
//!   returning a borrowed [`BatchView`]. A lone group is a batch of one:
//!   `PlanContext::check_group_with`, `validate`, `check_and_score` and
//!   [`GroupSpec::synthesize`] all run this sweep at fill 1.
//! * [`score_into`] — the full per-candidate scoring sequence of the
//!   evaluator's miss path (structure check → synthesis → capacity limits
//!   → model projection → profitability gate), batched.
//!
//! # Determinism rules (lane isolation)
//!
//! A lane's result depends on its own candidate only: scored alone or at
//! any position among any batch-mates, it is bit for bit the same. Every
//! phase is lanewise — lane `l` reads and writes only lane `l` of a column
//! — and reductions (`min`/`max`/sums over a lane's members) run in one
//! pinned order: members ascending, uses in row order, touched arrays
//! ascending. The only floating point is the model projection, which
//! feeds each lane through the same scalar float sequence as
//! [`crate::model::PerfModel::project`]. The verifier's `derive_spec` is
//! the independent check of every lane. The exact integer formulations
//! the sweep relies on (all `u64`/`u32` identities over the same term
//! multiset, so bit-for-bit equal to the direct definitions):
//!
//! * members are sorted, so `produced` (∃ writer w, reader r with r ≥ w)
//!   collapses to one comparison, `max_reader1 > min_writer`, and the
//!   halo-read gate "some writer ≤ mi" is `min_writer ≤ mi`;
//! * `|union of touched arrays|` is a popcount over OR-ed touch bitsets;
//! * per-array `read_tl` / `write_refs` aggregates collapse the
//!   projection's pivot×member×use rescans into O(touched + pivots);
//! * the cascaded-halo fixpoint is skipped when no produced pivot is read
//!   at a radius (its first pass provably changes nothing);
//! * barrier placement and the Eq. 10 halo-FLOP terms fuse into one
//!   member-major sweep (idempotent bool OR / exact `u64` sums): both only
//!   consult *produced* pivots, whose `smem` flag the read-only-cache
//!   demotion never touches.

use crate::metadata::ProgramInfo;
use crate::model::PerfModel;
use crate::plan::PlanContext;
use crate::spec::{GroupSpec, PivotSpec};
use crate::synth::{SynthTables, NO_SLOT, READS, WRITES};
use crate::util::BitSet;
use kfuse_ir::KernelId;
use std::time::Instant;

/// Fixed lane width of the batched evaluator. Eight f64/u64 lanes fill
/// one AVX-512 register or two AVX2 registers; ragged final chunks score
/// with `fill < LANES`.
pub const LANES: usize = 8;

/// A flat batch of candidate groups awaiting evaluation: member ids in
/// one contiguous buffer with CSR offsets, so enqueueing candidates
/// allocates nothing once warm.
#[derive(Debug, Clone)]
pub struct CandidateBatch {
    data: Vec<KernelId>,
    start: Vec<u32>,
}

impl Default for CandidateBatch {
    fn default() -> Self {
        CandidateBatch::new()
    }
}

impl CandidateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        CandidateBatch {
            data: Vec::new(),
            start: vec![0],
        }
    }

    /// Remove every candidate, keeping capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.start.truncate(1);
    }

    /// Number of candidate groups enqueued.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// True when no candidate is enqueued.
    pub fn is_empty(&self) -> bool {
        self.start.len() == 1
    }

    /// The members of candidate `i`, exactly as enqueued.
    pub fn group(&self, i: usize) -> &[KernelId] {
        &self.data[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Enqueue a complete candidate; returns its index.
    pub fn push(&mut self, group: &[KernelId]) -> usize {
        self.data.extend_from_slice(group);
        self.start.push(self.data.len() as u32);
        self.len() - 1
    }

    /// Append one member to the candidate currently being built (see
    /// [`CandidateBatch::seal`]).
    pub fn push_member(&mut self, k: KernelId) {
        self.data.push(k);
    }

    /// Append members to the candidate currently being built.
    pub fn extend_members(&mut self, ks: &[KernelId]) {
        self.data.extend_from_slice(ks);
    }

    /// Close the candidate built via [`CandidateBatch::push_member`] /
    /// [`CandidateBatch::extend_members`]; returns its index.
    pub fn seal(&mut self) -> usize {
        self.start.push(self.data.len() as u32);
        self.len() - 1
    }
}

/// Throughput accounting for a [`score_into`] call, surfaced as the
/// `BatchesScored` / `BatchLanesFilled` observability counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Lane sweeps executed (1 per chunk of up to [`LANES`] candidates).
    pub batches: u64,
    /// Candidates actually scored through those sweeps.
    pub lanes: u64,
    /// Nanoseconds spent in synthesis (the `SynthNs` counter share).
    pub synth_ns: u64,
}

impl BatchStats {
    /// Fold another call's accounting into this one.
    pub fn merge(&mut self, o: BatchStats) {
        self.batches += o.batches;
        self.lanes += o.lanes;
        self.synth_ns += o.synth_ns;
    }
}

/// Per-array `u32` lane aggregates, packed so one array's whole per-lane
/// state spans four consecutive cache lines instead of seven scattered
/// ones — the aggregation sweep and the pivot phases are latency-bound
/// on these columns once the program's array count outgrows L1.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneAgg {
    pub(crate) touch_count: [u32; LANES],
    pub(crate) min_writer: [u32; LANES],
    pub(crate) max_reader1: [u32; LANES],
    pub(crate) max_thread_load: [u32; LANES],
    pub(crate) max_read_radius: [u32; LANES],
    pub(crate) halo: [u32; LANES],
    pub(crate) pivot_slot: [u32; LANES],
}

/// Per-array `u64` byte/reference accumulators (same packing rationale):
/// `read_tl` is Σ `ThrLD` over the lane's *reading* uses (collapses the
/// projected-SMEM-traffic member scan to one multiply per pivot);
/// `write_refs` is Σ (`k_read_refs` − own pivot read) over the lane's
/// *writing* uses (collapses the halo-widening member scan of the
/// projected-bytes model likewise).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneSums {
    pub(crate) load_min: [u64; LANES],
    pub(crate) load_sum: [u64; LANES],
    pub(crate) store_sum: [u64; LANES],
    pub(crate) read_tl: [u64; LANES],
    pub(crate) write_refs: [u64; LANES],
}

/// Reusable lane-batched synthesis scratch: one packed column slot per
/// compact array id (`LaneAgg`/`LaneSums`), epoch-stamped; per-lane
/// output buffers a [`BatchView`] borrows (a lane's are sized on the
/// first sweep that fills it); plus the two bitsets of the structural
/// checks. Warm once per program, then allocation free — the
/// counting-allocator tests pin this for one lane and for eight.
#[derive(Debug, Default)]
pub struct BatchScratch {
    gen: u32,
    stamp: Vec<u32>,
    /// Bit `l` set ⟺ lane `l` touches the array this epoch.
    lane_mask: Vec<u8>,
    agg: Vec<LaneAgg>,
    sums: Vec<LaneSums>,
    /// Bit `l` set ⟺ the array is a produced pivot in lane `l`.
    produced: Vec<u8>,
    /// Bit `l` set ⟺ the array is a pivot (any kind) in lane `l` — lets
    /// the pivot-consuming phases iterate set bits instead of probing
    /// `pivot_slot` per (array, lane) pair.
    has_pivot: Vec<u8>,
    /// Per-lane bitset of *produced* pivot compact ids (same word layout
    /// as `SynthTables::touch_bits`), so the halo fixpoint can skip
    /// members whose use row intersects no produced array.
    produced_words: Vec<[u64; LANES]>,
    union_words: Vec<[u64; LANES]>,
    touched: Vec<u32>,
    /// Halo-fixpoint op lists (rebuilt per lane): produced-write compact
    /// ids, packed produced-read ops (`c << 8 | radius`), and per-member
    /// `[w_end, r_end]` ranges — the produced set and `min_writer` are
    /// fixed before the fixpoint, so the filter is pass-invariant.
    fix_w: Vec<u32>,
    fix_r: Vec<u32>,
    fix_m: Vec<[u32; 2]>,
    members: [Vec<KernelId>; LANES],
    pivots: [Vec<PivotSpec>; LANES],
    barrier_before: [Vec<bool>; LANES],
    ro_order: Vec<u32>,
    /// Group-membership bitset for the structural checks (path closure).
    pub(crate) group_bits: BitSet,
    /// Reachability scratch for `path_closure_violation_with`.
    pub(crate) reach: BitSet,
}

impl BatchScratch {
    /// An empty scratch; it sizes itself to the tables on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Resize every column to `tables` and reserve lanes `0..fill`'s
    /// output buffers to their upper bounds, so no later sweep of that
    /// fill or less can ever grow a buffer.
    fn ensure(&mut self, tables: &SynthTables, n_kernels: usize, fill: usize) {
        let n = tables.n_compact();
        if self.stamp.len() != n {
            self.gen = 0;
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.lane_mask.clear();
            self.lane_mask.resize(n, 0);
            self.agg.clear();
            self.agg.resize(n, LaneAgg::default());
            self.sums.clear();
            self.sums.resize(n, LaneSums::default());
            self.produced.clear();
            self.produced.resize(n, 0);
            self.has_pivot.clear();
            self.has_pivot.resize(n, 0);
            self.touched.clear();
            self.touched.reserve(n);
            self.fix_w.clear();
            self.fix_w.reserve(tables.u_cidx.len());
            self.fix_r.clear();
            self.fix_r.reserve(tables.u_cidx.len());
            self.ro_order.clear();
            self.ro_order.reserve(n);
        }
        if self.union_words.len() != tables.words {
            self.union_words.clear();
            self.union_words.resize(tables.words, [0; LANES]);
            self.produced_words.clear();
            self.produced_words.resize(tables.words, [0; LANES]);
        }
        if self.fix_m.capacity() < n_kernels {
            self.fix_m.reserve(n_kernels);
        }
        // Every lane buffer is cleared by the sweep before it is written.
        for l in 0..fill {
            if self.members[l].capacity() < n_kernels {
                self.members[l].clear();
                self.members[l].reserve(n_kernels);
            }
            if self.pivots[l].capacity() < n {
                self.pivots[l].clear();
                self.pivots[l].reserve(n);
            }
            if self.barrier_before[l].capacity() < n_kernels {
                self.barrier_before[l].clear();
                self.barrier_before[l].reserve(n_kernels);
            }
        }
    }
}

/// A batch of synthesized fusion specifications borrowed from a
/// [`BatchScratch`], valid until the next sweep on that scratch. Lane
/// `l < fill()` describes the `l`-th candidate passed to
/// [`synthesize_batch`]; its fields do not depend on the other lanes.
pub struct BatchView<'a> {
    pub(crate) tables: &'a SynthTables,
    fill: usize,
    pub(crate) touched: &'a [u32],
    pub(crate) lane_mask: &'a [u8],
    pub(crate) agg: &'a [LaneAgg],
    pub(crate) sums: &'a [LaneSums],
    members: &'a [Vec<KernelId>; LANES],
    pivots: &'a [Vec<PivotSpec>; LANES],
    barrier_before: &'a [Vec<bool>; LANES],
    smem_bytes: [u64; LANES],
    projected_regs: [u32; LANES],
    flops: [u64; LANES],
    halo_bytes: [u64; LANES],
    ro_bytes: [u64; LANES],
    active_threads: [u32; LANES],
    barriers: [u32; LANES],
}

impl BatchView<'_> {
    /// Number of populated lanes (1..=[`LANES`]).
    pub fn fill(&self) -> usize {
        self.fill
    }

    /// Lane `l`'s members in segment (invocation) order.
    pub fn members(&self, l: usize) -> &[KernelId] {
        &self.members[l]
    }

    /// Lane `l`'s staged pivots, ascending by array id.
    pub fn pivots(&self, l: usize) -> &[PivotSpec] {
        &self.pivots[l]
    }

    /// Lane `l`'s per-member barrier flags.
    pub fn barrier_before(&self, l: usize) -> &[bool] {
        &self.barrier_before[l]
    }

    /// Lane `l`'s SMEM bytes per block including Eq. 7 padding.
    pub fn smem_bytes(&self, l: usize) -> u64 {
        self.smem_bytes[l]
    }

    /// Lane `l`'s projected registers per thread (Eq. 6).
    pub fn projected_regs(&self, l: usize) -> u32 {
        self.projected_regs[l]
    }

    /// Lane `l`'s total FLOPs including halo redundancy (Eq. 10).
    pub fn flops(&self, l: usize) -> u64 {
        self.flops[l]
    }

    /// Lane `l`'s widest produced halo in bytes.
    pub fn halo_bytes(&self, l: usize) -> u64 {
        self.halo_bytes[l]
    }

    /// Lane `l`'s bytes routed through the read-only cache.
    pub fn ro_bytes(&self, l: usize) -> u64 {
        self.ro_bytes[l]
    }

    /// Lane `l`'s least active threads per block among members.
    pub fn active_threads(&self, l: usize) -> u32 {
        self.active_threads[l]
    }

    /// Lane `l`'s barrier count.
    pub fn barrier_count(&self, l: usize) -> u32 {
        self.barriers[l]
    }

    /// True when lane `l` requires complex fusion (any barrier).
    pub fn complex(&self, l: usize) -> bool {
        self.barriers[l] > 0
    }

    /// Materialize lane `l` as an owned [`GroupSpec`]: what `validate`,
    /// `check_group` and [`GroupSpec::synthesize`] hand to consumers off
    /// the search's hot path (and the default `project_batch`).
    pub fn lane_spec(&self, l: usize) -> GroupSpec {
        GroupSpec {
            members: self.members[l].clone(),
            pivots: self.pivots[l].clone(),
            barrier_before: self.barrier_before[l].clone(),
            smem_bytes: self.smem_bytes[l],
            projected_regs: self.projected_regs[l],
            flops: self.flops[l],
            halo_bytes: self.halo_bytes[l],
            ro_bytes: self.ro_bytes[l],
            active_threads: self.active_threads[l],
            complex: self.barriers[l] > 0,
        }
    }
}

/// Synthesize 1..=[`LANES`] candidate groups (members in any order),
/// lane `l` from `cands[l]`, into `s`, returning a borrowed [`BatchView`].
/// After the scratch has warmed to this table's dimensions and this fill,
/// the call performs **zero heap allocations**. See the module docs for
/// the determinism rules.
pub fn synthesize_batch<'s>(
    tables: &'s SynthTables,
    info: &ProgramInfo,
    cands: &[&[KernelId]],
    s: &'s mut BatchScratch,
) -> BatchView<'s> {
    let fill = cands.len();
    debug_assert!((1..=LANES).contains(&fill));
    s.ensure(tables, info.kernels.len(), fill);
    s.gen = s.gen.wrapping_add(1);
    if s.gen == 0 {
        // Epoch wraparound: invalidate every stamp once per 2^32 calls.
        s.stamp.fill(0);
        s.gen = 1;
    }
    let gen = s.gen;
    let BatchScratch {
        stamp,
        lane_mask,
        agg,
        sums,
        produced,
        has_pivot,
        produced_words,
        union_words,
        touched,
        fix_w,
        fix_r,
        fix_m,
        members,
        pivots,
        barrier_before,
        ro_order,
        ..
    } = s;

    touched.clear();
    union_words.fill([0; LANES]);
    produced_words.fill([0; LANES]);
    let mut m_len = [0usize; LANES];
    for (l, &g) in cands.iter().enumerate() {
        // Eq. 6's `2 * (m_len - 1)` and every per-lane sweep assume one
        // member at least; plan checks reject empty groups before this.
        debug_assert!(!g.is_empty(), "lane {l} is an empty group");
        let mem = &mut members[l];
        mem.clear();
        mem.extend_from_slice(g);
        mem.sort_unstable();
        m_len[l] = mem.len();
    }

    // --- Aggregation sweep, lane-outer / member-inner: per-array usage
    // across each lane's group (who reads, who writes, widest thread load
    // and read radius), one pass over each member's use row. A column is
    // stamped on its first touch by any lane and seeded per lane on that
    // lane's first touch.
    let mut flops_base = [0u64; LANES];
    let mut live = [0u32; LANES];
    let mut base_regs = [0u32; LANES];
    let mut active_threads = [0u32; LANES];
    let mut n_touched = [0u32; LANES];
    for l in 0..fill {
        let bit = 1u8 << l;
        let mut fb = 0u64;
        let mut lv = 0u32;
        let mut br = 0u32;
        let mut am = u32::MAX;
        let mut nt = 0u32;
        for (mi, &k) in members[l].iter().enumerate() {
            let ki = k.index();
            fb += tables.k_flops[ki];
            lv = lv.max(tables.k_live_regs[ki]);
            br = br.max(tables.k_regs[ki]);
            am = am.min(tables.k_active_threads[ki]);
            for u in tables.use_range(ki) {
                let c = tables.u_cidx[u] as usize;
                if stamp[c] != gen {
                    stamp[c] = gen;
                    lane_mask[c] = 0;
                    produced[c] = 0;
                    has_pivot[c] = 0;
                }
                let fl = tables.u_flags[u];
                let tl = u64::from(tables.u_thread_load[u]);
                let wr = if fl & WRITES != 0 {
                    tables.k_read_refs[ki] - if fl & READS != 0 { tl } else { 0 }
                } else {
                    0
                };
                let a = &mut agg[c];
                let sm = &mut sums[c];
                if lane_mask[c] & bit == 0 {
                    // First touch of this column by this lane: seed the
                    // lane's aggregates directly. A whole-column splat on
                    // the batch's first touch would write LANES× that and
                    // dominate the sweep.
                    lane_mask[c] |= bit;
                    nt += 1;
                    a.touch_count[l] = 1;
                    a.pivot_slot[l] = NO_SLOT;
                    a.halo[l] = 0;
                    a.max_thread_load[l] = tables.u_thread_load[u];
                    a.max_read_radius[l] = u32::from(tables.u_read_radius[u]);
                    sm.store_sum[l] = tables.u_store_elems[u];
                    if fl & READS != 0 {
                        let le = tables.u_load_elems[u];
                        a.max_reader1[l] = mi as u32 + 1;
                        sm.load_min[l] = le;
                        sm.load_sum[l] = le;
                        sm.read_tl[l] = tl;
                    } else {
                        a.max_reader1[l] = 0;
                        sm.load_min[l] = u64::MAX;
                        sm.load_sum[l] = 0;
                        sm.read_tl[l] = 0;
                    }
                    a.min_writer[l] = if fl & WRITES != 0 {
                        mi as u32
                    } else {
                        u32::MAX
                    };
                    sm.write_refs[l] = wr;
                } else {
                    // Each member holds at most one use per array, so this
                    // counts *distinct* touching members (`touched_by`).
                    a.touch_count[l] += 1;
                    if fl & READS != 0 {
                        let le = tables.u_load_elems[u];
                        a.max_reader1[l] = a.max_reader1[l].max(mi as u32 + 1);
                        sm.load_min[l] = sm.load_min[l].min(le);
                        sm.load_sum[l] += le;
                        sm.read_tl[l] += tl;
                    }
                    if fl & WRITES != 0 {
                        a.min_writer[l] = a.min_writer[l].min(mi as u32);
                        sm.write_refs[l] += wr;
                    }
                    a.max_thread_load[l] = a.max_thread_load[l].max(tables.u_thread_load[u]);
                    a.max_read_radius[l] =
                        a.max_read_radius[l].max(u32::from(tables.u_read_radius[u]));
                    sm.store_sum[l] += tables.u_store_elems[u];
                }
            }
            let row = &tables.touch_bits[ki * tables.words..(ki + 1) * tables.words];
            for (w, r) in union_words.iter_mut().zip(row) {
                w[l] |= r;
            }
        }
        flops_base[l] = fb;
        live[l] = lv;
        base_regs[l] = br;
        active_threads[l] = if m_len[l] == 0 { 0 } else { am };
        n_touched[l] = nt;
    }
    // Rebuild the touched list in ascending compact-id order straight
    // from the OR of the lanes' touch bitsets — compact ids ascend with
    // array ids, so this is ascending-`ArrayId` pivot order for every
    // lane at once, without sorting.
    touched.clear();
    for (wi, w) in union_words.iter().enumerate() {
        let mut bits = w.iter().fold(0u64, |acc, &x| acc | x);
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            touched.push((wi * 64 + b) as u32);
        }
    }

    // --- Pivot selection, touched-major / lane-inner: preserves each
    // lane's ascending pivot order. A pivot is an array touched by ≥2
    // members (cross-kernel reuse), or with thread load > 1 in some member
    // (the original kernel already staged it, §VI-B2 "rigorously
    // optimized"). It is `produced` when a member writes it and the same
    // or a later member reads it (the same-member case covers
    // write-then-read across statements of one original kernel; its
    // staged copy is produced on-chip just the same). `needs_fix` gates
    // the halo fixpoint: with no produced pivot read at a radius, its
    // first pass provably sets nothing (every need is 0), so skipping it
    // is exact.
    let mut needs_fix = [false; LANES];
    for p in pivots.iter_mut().take(fill) {
        p.clear();
    }
    for &cu in touched.iter() {
        let c = cu as usize;
        // Most columns are touched by one or two of the eight lanes, so
        // walking set bits beats a dense lane loop. `trailing_zeros`
        // yields lanes ascending.
        let a = &mut agg[c];
        let mut lm = lane_mask[c];
        while lm != 0 {
            let l = lm.trailing_zeros() as usize;
            lm &= lm - 1;
            if !(a.touch_count[l] >= 2 || a.max_thread_load[l] > 1) {
                continue;
            }
            // ∃ writer w, reader r with r ≥ w ⟺ max reader ≥ min writer.
            let prod = a.max_reader1[l] > a.min_writer[l];
            if prod {
                produced[c] |= 1 << l;
                produced_words[c / 64][l] |= 1u64 << (c % 64);
                if a.max_read_radius[l] > 0 {
                    needs_fix[l] = true;
                }
            }
            has_pivot[c] |= 1 << l;
            a.pivot_slot[l] = pivots[l].len() as u32;
            pivots[l].push(PivotSpec {
                array: tables.arrays[c],
                halo: 0,
                smem: false,
                produced: prod,
                ro_cache: false,
            });
        }
    }

    // --- Cascaded halo fixpoint per lane: a member whose written pivot
    // has halo h executes its statements over tile+h, so its reads of
    // other produced pivots must reach h + radius. Members ascending, uses
    // in array order, in-place halo updates visible within the pass. The
    // produced set and `min_writer` never change inside the fixpoint, so
    // which uses can act is pass-invariant: one filtering scan builds
    // per-member op lists, and every pass then walks only those (same
    // order — the lists preserve member and use order — hence the same
    // halos).
    for l in 0..fill {
        if !needs_fix[l] {
            continue;
        }
        let bit = 1u8 << l;
        fix_w.clear();
        fix_r.clear();
        fix_m.clear();
        for (mi, &k) in members[l].iter().enumerate() {
            let ki = k.index();
            // A member touching no produced array contributes ext = 0
            // and updates nothing — skip both use scans.
            let row = &tables.touch_bits[ki * tables.words..(ki + 1) * tables.words];
            if row
                .iter()
                .zip(produced_words.iter())
                .all(|(r, p)| r & p[l] == 0)
            {
                continue;
            }
            let r0 = fix_r.len();
            for u in tables.use_range(ki) {
                let c = tables.u_cidx[u] as usize;
                if produced[c] & bit == 0 {
                    continue;
                }
                let fl = tables.u_flags[u];
                if fl & WRITES != 0 {
                    fix_w.push(c as u32);
                }
                // Only reads of values produced by this or an earlier
                // member need staged coverage.
                if fl & READS != 0 && agg[c].min_writer[l] <= mi as u32 {
                    fix_r.push((c as u32) << 8 | u32::from(tables.u_read_radius[u]));
                }
            }
            if fix_r.len() == r0 {
                // No qualifying read: the member can never update a halo,
                // so its (possibly non-empty) write list is dead weight.
                fix_w.truncate(fix_m.last().map_or(0, |m| m[0] as usize));
                continue;
            }
            fix_m.push([fix_w.len() as u32, fix_r.len() as u32]);
        }
        for _ in 0..m_len[l].max(1) {
            let mut changed = false;
            let (mut w0, mut r0) = (0usize, 0usize);
            for &[w1, r1] in fix_m.iter() {
                let mut ext = 0u32;
                for &c in &fix_w[w0..w1 as usize] {
                    ext = ext.max(agg[c as usize].halo[l]);
                }
                for &op in &fix_r[r0..r1 as usize] {
                    let c = (op >> 8) as usize;
                    let need = ext + (op & 0xFF);
                    if need > agg[c].halo[l] {
                        agg[c].halo[l] = need;
                        changed = true;
                    }
                }
                (w0, r0) = (w1 as usize, r1 as usize);
            }
            if !changed {
                break;
            }
        }
    }

    // --- Medium decision per pivot: register staging suffices when every
    // thread only ever touches its own site and no halo is needed
    // (§II-D1); anything else is an SMEM tile. The `has_pivot` mask is
    // load-bearing: columns are lane-lazily initialized, so
    // `pivot_slot[c][l]` is stale for lanes that never touched `c` this
    // generation — and it narrows the sweep to exactly the (array, lane)
    // pairs that own a pivot.
    let mut has_prod_smem = [false; LANES];
    for &cu in touched.iter() {
        let c = cu as usize;
        let a = &agg[c];
        let mut hp = has_pivot[c];
        while hp != 0 {
            let l = hp.trailing_zeros() as usize;
            hp &= hp - 1;
            let slot = a.pivot_slot[l];
            let h = a.halo[l];
            let p = &mut pivots[l][slot as usize];
            p.halo = h.min(255) as u8;
            p.smem = a.max_thread_load[l] > 1 || h > 0 || a.max_read_radius[l] > 0;
            if p.smem && p.produced {
                has_prod_smem[l] = true;
            }
        }
    }

    // --- Barrier placement + Eq. 10 halo-FLOP terms, one member-major
    // sweep per lane: a reader of a produced SMEM pivot after its first
    // writer needs a barrier, and each writer of a produced SMEM pivot
    // adds its redundant halo compute (one exact integer term per
    // (member, pivot)). Both consult only produced pivots, whose `smem`
    // flag the demotion below never changes, so running this before
    // demotion is exact. Lanes with no produced SMEM pivot are skipped:
    // they have no barrier and no halo-FLOP term.
    let tile0 = info.tile_area(0).max(1);
    let mut flops = flops_base;
    let mut barriers = [0u32; LANES];
    for l in 0..fill {
        let bb = &mut barrier_before[l];
        bb.clear();
        bb.resize(m_len[l], false);
        if !has_prod_smem[l] {
            continue;
        }
        let bit = 1u8 << l;
        for (mi, &k) in members[l].iter().enumerate() {
            let ki = k.index();
            // Same skip as the fixpoint: a member with no produced-array
            // use can neither need a barrier nor add a halo-FLOP term.
            let row = &tables.touch_bits[ki * tables.words..(ki + 1) * tables.words];
            if row
                .iter()
                .zip(produced_words.iter())
                .all(|(r, p)| r & p[l] == 0)
            {
                continue;
            }
            for u in tables.use_range(ki) {
                let c = tables.u_cidx[u] as usize;
                // `produced[c]` is current for every array in the lane's
                // use rows (the lane touched it this generation), and a
                // produced bit implies a pivot slot exists.
                if produced[c] & bit == 0 {
                    continue;
                }
                let p = &pivots[l][agg[c].pivot_slot[l] as usize];
                if !p.smem {
                    continue;
                }
                let fl = tables.u_flags[u];
                if fl & READS != 0 && mi as u32 > agg[c].min_writer[l] {
                    // Idempotent bool: later hits keep scanning for FLOP
                    // terms.
                    bb[mi] = true;
                }
                if fl & WRITES != 0 && p.halo > 0 {
                    flops[l] += tables.u_write_flops[u] * info.halo_area(u32::from(p.halo)) / tile0;
                }
            }
        }
        barriers[l] = bb.iter().filter(|&&b| b).count() as u32;
    }

    // --- SMEM demand with Eq. 7 padding, then the §II-C relaxation
    // (opt-in): when the fused kernel's SMEM demand exceeds capacity,
    // demote clean (loaded) pivots to the hardware read-only cache,
    // largest tiles first (stable: ties keep array order), as long as they
    // fit its capacity. Produced pivots must stay in SMEM (coherence).
    let elem = info.elem_bytes();
    let banks = u64::from(info.gpu.smem_banks);
    let padded = |raw: u64| if raw == 0 { 0 } else { raw + raw / banks };
    let raw_of = |pv: &[PivotSpec]| -> u64 {
        pv.iter()
            .filter(|p| p.smem)
            .map(|p| info.tile_area(u32::from(p.halo)) * elem)
            .sum()
    };
    let mut smem_bytes = [0u64; LANES];
    let mut ro_bytes = [0u64; LANES];
    for l in 0..fill {
        let pv = &mut pivots[l];
        let mut sb = padded(raw_of(pv));
        let mut ro = 0u64;
        if info.gpu.use_readonly_cache {
            let capacity = u64::from(info.gpu.smem_per_smx);
            let ro_capacity = u64::from(info.gpu.readonly_cache_bytes);
            ro_order.clear();
            for (i, p) in pv.iter().enumerate() {
                if p.smem && !p.produced {
                    ro_order.push(i as u32);
                }
            }
            // Stable insertion sort, largest tiles first (std's stable
            // sort may heap-allocate a merge buffer).
            for i in 1..ro_order.len() {
                let cur = ro_order[i];
                let key = info.tile_area(u32::from(pv[cur as usize].halo));
                let mut j = i;
                while j > 0 {
                    let prev = ro_order[j - 1];
                    if info.tile_area(u32::from(pv[prev as usize].halo)) < key {
                        ro_order[j] = prev;
                        j -= 1;
                    } else {
                        break;
                    }
                }
                ro_order[j] = cur;
            }
            for &slot in ro_order.iter() {
                if sb <= capacity {
                    break;
                }
                let i = slot as usize;
                let tile = info.tile_area(u32::from(pv[i].halo)) * elem;
                if ro + tile > ro_capacity {
                    continue;
                }
                pv[i].smem = false;
                pv[i].ro_cache = true;
                ro += tile;
                sb = padded(raw_of(pv));
            }
        }
        smem_bytes[l] = sb;
        ro_bytes[l] = ro;
    }

    // --- Widest produced halo → Hal, and the Eq. 6 register projection.
    let threads64 = u64::from(info.threads.max(1));
    let mut halo_bytes = [0u64; LANES];
    let mut projected_regs = [0u32; LANES];
    for l in 0..fill {
        let max_halo: u32 = pivots[l]
            .iter()
            .filter(|p| p.produced)
            .map(|p| u32::from(p.halo))
            .max()
            .unwrap_or(0);
        halo_bytes[l] = info.halo_area(max_halo) * elem;
        // `|ShrLst|` is the popcount of the lane's OR-ed touch bitsets.
        let union_arrays: u32 = union_words.iter().map(|w| w[l].count_ones()).sum();
        debug_assert_eq!(union_arrays, n_touched[l]);
        let mut staging_regs = 0u32;
        for p in pivots[l].iter() {
            staging_regs += 1;
            if p.smem && p.produced && p.halo > 0 {
                staging_regs += info.halo_area(u32::from(p.halo)).div_ceil(threads64) as u32;
            }
        }
        // Eq. 6: bookkeeping + addressing registers for the union of
        // touched arrays (R_Adr), the widest member's live stencil
        // operands (RegFac-scaled, from metadata), one fetch/value
        // register per staged pivot (R_fetch, Eq. 5) plus the per-thread
        // share of a produced SMEM pivot's halo ring, and the per-segment
        // scheduling registers the compiler keeps live across barriers (2
        // per extra member). The residual the codeless projection cannot
        // see — operand pipelining scaled by the widest pivot's thread
        // load — is what produces the occasional measured-unprofitable
        // fusion (§VI-D2).
        projected_regs[l] = if m_len[l] == 1 {
            base_regs[l]
        } else {
            12 + 2 * union_arrays + live[l] + staging_regs + 2 * (m_len[l] as u32 - 1)
        };
    }

    BatchView {
        tables,
        fill,
        touched,
        lane_mask,
        agg,
        sums,
        members,
        pivots,
        barrier_before,
        smem_bytes,
        projected_regs,
        flops,
        halo_bytes,
        ro_bytes,
        active_threads,
        barriers,
    }
}

/// Score every candidate of `batch` into `out[i]` (projected seconds;
/// `f64::INFINITY` for infeasible or unprofitable groups). Structural
/// checks run per candidate (bitset closure is already O(words));
/// candidates that pass are packed into full lanes — structurally
/// infeasible ones never waste a lane — and chunks of up to [`LANES`] run
/// through [`synthesize_batch`], the capacity limits
/// ([`PlanContext::check_lane_limits`]), the model's `project_batch` and
/// the profitability gate. A candidate's score does not depend on its
/// batch-mates: a one-candidate batch is the scalar objective.
pub fn score_into(
    ctx: &PlanContext,
    model: &dyn PerfModel,
    batch: &CandidateBatch,
    s: &mut BatchScratch,
    out: &mut Vec<f64>,
) -> BatchStats {
    let mut stats = BatchStats::default();
    out.clear();
    out.resize(batch.len(), f64::INFINITY);
    let mut pend = [0usize; LANES];
    let mut np = 0usize;
    for i in 0..batch.len() {
        if ctx.check_group_structure(batch.group(i), 0, s).is_err() {
            continue; // out[i] stays INFINITY
        }
        pend[np] = i;
        np += 1;
        if np == LANES {
            score_chunk(ctx, model, batch, &pend, s, out, &mut stats);
            np = 0;
        }
    }
    if np > 0 {
        score_chunk(ctx, model, batch, &pend[..np], s, out, &mut stats);
    }
    stats
}

/// One lane sweep of [`score_into`]: synthesis, per-lane capacity limits,
/// batched projection, profitability gate.
fn score_chunk(
    ctx: &PlanContext,
    model: &dyn PerfModel,
    batch: &CandidateBatch,
    cands: &[usize],
    s: &mut BatchScratch,
    out: &mut [f64],
    stats: &mut BatchStats,
) {
    let mut groups: [&[KernelId]; LANES] = [&[]; LANES];
    for (g, &i) in groups.iter_mut().zip(cands) {
        *g = batch.group(i);
    }
    let groups = &groups[..cands.len()];
    let t0 = Instant::now();
    let view = synthesize_batch(&ctx.synth, &ctx.info, groups, s);
    stats.synth_ns += t0.elapsed().as_nanos() as u64;
    stats.batches += 1;
    stats.lanes += cands.len() as u64;

    let mut times = [f64::INFINITY; LANES];
    model.project_batch(&ctx.info, &view, &mut times);

    for (l, (&i, g)) in cands.iter().zip(groups).enumerate() {
        if ctx.check_lane_limits(&view, l, 0).is_err() {
            continue; // out[i] stays INFINITY
        }
        let t = times[l];
        // Profitability gate over the candidate *as enqueued*:
        // `original_sum` adds in the caller's member order.
        if g.len() >= 2 && (t >= ctx.info.original_sum(g) || t.is_nan()) {
            continue;
        }
        out[i] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProposedModel, RooflineModel, SimpleModel};
    use crate::pipeline::prepare;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::{Expr, Program};

    /// Producer chain with radius reads: B halo 2, C halo 1 fused.
    fn chain_program() -> Program {
        let mut pb = ProgramBuilder::new("chain", [128, 64, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        pb.kernel("k0")
            .write(b, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::load(b, Offset::new(1, 0, 0)))
            .build();
        pb.kernel("k2")
            .write(d, Expr::load(c, Offset::new(1, 0, 0)))
            .build();
        pb.build()
    }

    fn all_subsets(n: u32) -> Vec<Vec<KernelId>> {
        (1u32..(1 << n))
            .map(|mask| {
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(KernelId)
                    .collect()
            })
            .collect()
    }

    /// Every subset of the chain program synthesizes the same spec alone
    /// (fill 1) and at every lane position of a full batch whose other
    /// lanes hold the other subsets (lane isolation).
    #[test]
    fn lanes_are_isolated_on_all_subsets() {
        for gpu in [GpuSpec::k20x(), GpuSpec::k40(), GpuSpec::gtx750ti()] {
            let info = ProgramInfo::extract(&chain_program(), &gpu, FpPrecision::Double);
            let tables = SynthTables::build(&info);
            let groups = all_subsets(info.kernels.len() as u32);
            let mut alone = BatchScratch::new();
            let mut full = BatchScratch::new();
            for (gi, g) in groups.iter().enumerate() {
                let want = synthesize_batch(&tables, &info, &[g], &mut alone).lane_spec(0);
                for l in 0..LANES {
                    let mut cands: [&[KernelId]; LANES] =
                        std::array::from_fn(|j| &groups[(gi + j + 1) % groups.len()][..]);
                    cands[l] = g;
                    let got = synthesize_batch(&tables, &info, &cands, &mut full).lane_spec(l);
                    // Every field of `GroupSpec` is integral or boolean, so
                    // equal `Debug` text is field-for-field equality.
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{} subset {gi} at lane {l}",
                        gpu.name
                    );
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lane 1 is an empty group")]
    fn an_empty_lane_is_refused_in_debug_builds() {
        // Plan checks reject empty groups before synthesis; a lane that
        // still arrives empty trips the guard, not Eq. 6's `m_len - 1`.
        let info = ProgramInfo::extract(&chain_program(), &GpuSpec::k20x(), FpPrecision::Double);
        let tables = SynthTables::build(&info);
        let g = [KernelId(0), KernelId(1)];
        synthesize_batch(&tables, &info, &[&g, &[]], &mut BatchScratch::new());
    }

    /// `score_into` gives every candidate of a multi-sweep batch the score
    /// a batch of that candidate alone gives it, bit for bit, under every
    /// model — structurally infeasible and unprofitable candidates too.
    #[test]
    fn score_into_scores_each_candidate_as_a_batch_of_one() {
        let p = chain_program();
        let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        let models: [Box<dyn PerfModel>; 3] = [
            Box::new(RooflineModel),
            Box::new(SimpleModel),
            Box::new(ProposedModel::default()),
        ];
        let mut batch = CandidateBatch::new();
        for g in all_subsets(ctx.n_kernels() as u32) {
            batch.push(&g);
            // The same members reversed: a second lane of the same group.
            batch.extend_members(&g);
            let start = batch.data.len() - g.len();
            batch.data[start..].reverse();
            batch.seal();
        }
        let mut bs = BatchScratch::new();
        let mut one = CandidateBatch::new();
        let (mut out, mut alone) = (Vec::new(), Vec::new());
        let structural: usize = (0..batch.len())
            .filter(|&i| {
                ctx.check_group_structure(batch.group(i), 0, &mut bs)
                    .is_ok()
            })
            .count();
        for m in &models {
            let stats = score_into(&ctx, m.as_ref(), &batch, &mut bs, &mut out);
            assert_eq!(stats.lanes as usize, structural);
            assert!(stats.batches >= 2, "the batch spans several sweeps");
            for (i, &got) in out.iter().enumerate() {
                one.clear();
                one.push(batch.group(i));
                score_into(&ctx, m.as_ref(), &one, &mut bs, &mut alone);
                assert!(
                    alone[0].total_cmp(&got).is_eq(),
                    "{} cand {i}: in a batch {got} != alone {}",
                    m.name(),
                    alone[0],
                );
            }
        }
    }

    #[test]
    fn candidate_batch_csr_layout() {
        let mut b = CandidateBatch::new();
        assert!(b.is_empty());
        let i0 = b.push(&[KernelId(3), KernelId(1)]);
        b.extend_members(&[KernelId(7)]);
        b.push_member(KernelId(2));
        let i1 = b.seal();
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(b.len(), 2);
        assert_eq!(b.group(0), &[KernelId(3), KernelId(1)]);
        assert_eq!(b.group(1), &[KernelId(7), KernelId(2)]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.push(&[KernelId(0)]), 0);
        assert_eq!(b.group(0), &[KernelId(0)]);
    }

    #[test]
    fn batch_stats_merge() {
        let mut a = BatchStats {
            batches: 1,
            lanes: 8,
            synth_ns: 100,
        };
        a.merge(BatchStats {
            batches: 2,
            lanes: 3,
            synth_ns: 50,
        });
        assert_eq!((a.batches, a.lanes, a.synth_ns), (3, 11, 150));
    }
}
