//! Group synthesis: the one place a candidate group's fusion
//! specification is decided.
//!
//! The HGGA's evaluation-cache *miss* path checks and synthesizes every
//! novel candidate group — the "millions of groups" regime of §III — so
//! the synthesis is allocation-free arithmetic over tables precomputed
//! once per [`ProgramInfo`]:
//!
//! * [`SynthTables`] — a dense per-kernel summary: CSR rows of per-array
//!   uses over a *compact* shared-array index (`ArrayId` → `cidx`),
//!   array-touch bitsets per kernel, and flops/regs/active-thread columns.
//! * [`SynthScratch`] — reusable per-candidate scratch, one dense slot per
//!   compact array id, validated by an epoch stamp so clearing between
//!   candidates is O(arrays touched), not O(all arrays).
//! * [`SpecView`] — the synthesized specification *borrowed* from the
//!   scratch: no output vectors are allocated. Pivot lookup is an index
//!   (`compact` → `pivot_slot`), not an `iter().find()`.
//!
//! [`SynthTables::synthesize_into`] is the only definition in this crate
//! of pivot selection, the cascaded-halo fixpoint, barrier placement,
//! read-only-cache demotion and the Eq. 6/7/10 arithmetic; an owned
//! [`GroupSpec`] is a view materialized by [`SpecView::to_spec`], and
//! `batch.rs` is the same arithmetic over lanes, pinned bitwise to this
//! one. The one deliberate duplicate is outside the crate: the verifier's
//! `derive_spec`, which `tests/synth_differential.rs` holds to this
//! module field for field. Formulations the sweep relies on:
//!
//! * members are sorted, so `produced` (∃ writer w, reader r with r ≥ w)
//!   collapses to one comparison, `max_reader1 > min_writer`;
//! * the halo-read gate "some writer ≤ mi" is `min_writer ≤ mi`;
//! * barrier placement and halo-FLOP terms run as member-major sweeps
//!   (idempotent bool OR / exact u64 sums, so the order is free);
//! * `|union of touched arrays|` is a popcount over OR-ed touch bitsets.

use crate::metadata::ProgramInfo;
use crate::spec::{GroupSpec, PivotSpec};
use crate::util::{vec_bytes, BitSet};
use kfuse_ir::{ArrayId, KernelId};

/// Sentinel for "no compact slot" / "not a pivot".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Use flag: the kernel reads the array.
pub(crate) const READS: u8 = 1;
/// Use flag: the kernel writes the array.
pub(crate) const WRITES: u8 = 2;

/// Precomputed structure-of-arrays synthesis tables, built once per
/// [`ProgramInfo`] (owned by `PlanContext`).
#[derive(Debug, Clone)]
pub struct SynthTables {
    /// `ArrayId` → compact index ([`NO_SLOT`] when no kernel touches it).
    pub(crate) compact: Vec<u32>,
    /// Compact index → `ArrayId`, ascending (so compact order ≡ id order).
    pub(crate) arrays: Vec<ArrayId>,
    /// Words per array-touch bitset row.
    pub(crate) words: usize,
    /// `n_kernels` rows × `words`: bitset of compact ids each kernel
    /// touches (feeds `|ShrLst|`, the `R_Adr` term of Eq. 6).
    pub(crate) touch_bits: Vec<u64>,
    /// CSR offsets into the use columns, one row per kernel (+1 sentinel).
    pub(crate) use_start: Vec<u32>,
    /// Per-use column: compact array id.
    pub(crate) u_cidx: Vec<u32>,
    /// Per-use column: [`READS`] | [`WRITES`].
    pub(crate) u_flags: Vec<u8>,
    /// Per-use column: `ThrLD(x)` (pivot selection + SMEM traffic).
    pub(crate) u_thread_load: Vec<u32>,
    /// Per-use column: max read radius (halo fixpoint increments).
    pub(crate) u_read_radius: Vec<u8>,
    /// Per-use column: FLOPs of statements writing the array (Eq. 10
    /// redundant-halo numerator).
    pub(crate) u_write_flops: Vec<u64>,
    /// Per-use column: measured GMEM load elements (projected-bytes view).
    pub(crate) u_load_elems: Vec<u64>,
    /// Per-use column: measured GMEM store elements (projected-bytes view).
    pub(crate) u_store_elems: Vec<u64>,
    /// Per-kernel column: `Fl` (Eq. 10 member sum).
    pub(crate) k_flops: Vec<u64>,
    /// Per-kernel column: live stencil-operand registers (Eq. 6).
    pub(crate) k_live_regs: Vec<u32>,
    /// Per-kernel column: `R_T` (singleton pass-through of Eq. 6).
    pub(crate) k_regs: Vec<u32>,
    /// Per-kernel column: `T_B` (Eq. 8 numerator).
    pub(crate) k_active_threads: Vec<u32>,
    /// Per-kernel column: Σ `ThrLD` over reading uses (halo-widening
    /// input-reference count of the projected-bytes model).
    pub(crate) k_read_refs: Vec<u64>,
}

impl SynthTables {
    /// Build the tables from extracted metadata.
    pub fn build(info: &ProgramInfo) -> Self {
        let n_kernels = info.kernels.len();
        let mut n_arrays = info.n_arrays;
        for k in &info.kernels {
            for u in &k.uses {
                n_arrays = n_arrays.max(u.array.index() + 1);
            }
        }

        let mut touched = vec![false; n_arrays];
        for k in &info.kernels {
            for u in &k.uses {
                touched[u.array.index()] = true;
            }
        }
        let mut compact = vec![NO_SLOT; n_arrays];
        let mut arrays = Vec::new();
        for (a, &t) in touched.iter().enumerate() {
            if t {
                compact[a] = arrays.len() as u32;
                arrays.push(ArrayId(a as u32));
            }
        }
        let words = arrays.len().div_ceil(64).max(1);

        let n_uses: usize = info.kernels.iter().map(|k| k.uses.len()).sum();
        let mut t = SynthTables {
            compact,
            arrays,
            words,
            touch_bits: vec![0; n_kernels * words],
            use_start: Vec::with_capacity(n_kernels + 1),
            u_cidx: Vec::with_capacity(n_uses),
            u_flags: Vec::with_capacity(n_uses),
            u_thread_load: Vec::with_capacity(n_uses),
            u_read_radius: Vec::with_capacity(n_uses),
            u_write_flops: Vec::with_capacity(n_uses),
            u_load_elems: Vec::with_capacity(n_uses),
            u_store_elems: Vec::with_capacity(n_uses),
            k_flops: Vec::with_capacity(n_kernels),
            k_live_regs: Vec::with_capacity(n_kernels),
            k_regs: Vec::with_capacity(n_kernels),
            k_active_threads: Vec::with_capacity(n_kernels),
            k_read_refs: Vec::with_capacity(n_kernels),
        };

        t.use_start.push(0);
        for (ki, k) in info.kernels.iter().enumerate() {
            let mut read_refs = 0u64;
            for u in &k.uses {
                let c = t.compact[u.array.index()];
                debug_assert_ne!(c, NO_SLOT);
                t.u_cidx.push(c);
                let mut fl = 0u8;
                if u.reads {
                    fl |= READS;
                    read_refs += u64::from(u.thread_load);
                }
                if u.writes {
                    fl |= WRITES;
                }
                t.u_flags.push(fl);
                t.u_thread_load.push(u.thread_load);
                t.u_read_radius.push(u.read_radius);
                t.u_write_flops.push(u.write_flops);
                t.u_load_elems.push(u.load_elems);
                t.u_store_elems.push(u.store_elems);
                let c = c as usize;
                t.touch_bits[ki * words + c / 64] |= 1 << (c % 64);
            }
            t.use_start.push(t.u_cidx.len() as u32);
            t.k_flops.push(k.flops);
            t.k_live_regs.push(k.live_regs);
            t.k_regs.push(k.regs_per_thread);
            t.k_active_threads.push(k.active_threads);
            t.k_read_refs.push(read_refs);
        }
        t
    }

    /// Number of compact (touched) arrays.
    pub fn n_compact(&self) -> usize {
        self.arrays.len()
    }

    /// Heap bytes the tables own: every column.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.compact)
            + vec_bytes(&self.arrays)
            + vec_bytes(&self.touch_bits)
            + vec_bytes(&self.use_start)
            + vec_bytes(&self.u_cidx)
            + vec_bytes(&self.u_flags)
            + vec_bytes(&self.u_thread_load)
            + vec_bytes(&self.u_read_radius)
            + vec_bytes(&self.u_write_flops)
            + vec_bytes(&self.u_load_elems)
            + vec_bytes(&self.u_store_elems)
            + vec_bytes(&self.k_flops)
            + vec_bytes(&self.k_live_regs)
            + vec_bytes(&self.k_regs)
            + vec_bytes(&self.k_active_threads)
            + vec_bytes(&self.k_read_refs)
    }

    /// The use-column range of kernel `ki`.
    #[inline]
    pub(crate) fn use_range(&self, ki: usize) -> std::ops::Range<usize> {
        self.use_start[ki] as usize..self.use_start[ki + 1] as usize
    }

    /// Synthesize the specification for `group` (any order) into `s`,
    /// returning a borrowed [`SpecView`]. After the scratch has warmed to
    /// this table's dimensions, the call performs **zero heap
    /// allocations** — the property the counting-allocator test asserts.
    pub fn synthesize_into<'s>(
        &'s self,
        info: &ProgramInfo,
        group: &[KernelId],
        s: &'s mut SynthScratch,
    ) -> SpecView<'s> {
        s.ensure(self, info.kernels.len());
        s.gen = s.gen.wrapping_add(1);
        if s.gen == 0 {
            // Epoch wraparound: invalidate every stamp once per 2^32 calls.
            s.stamp.fill(0);
            s.gen = 1;
        }
        let gen = s.gen;

        s.members.clear();
        s.members.extend_from_slice(group);
        s.members.sort_unstable();
        let m_len = s.members.len();

        // --- Aggregation sweep: per-array usage across the group (who
        // reads, who writes, widest thread load and read radius), kept in
        // stamped dense slots. One pass over each member's use row.
        s.touched.clear();
        s.union_words.fill(0);
        for (mi, &k) in s.members.iter().enumerate() {
            let ki = k.index();
            for u in self.use_range(ki) {
                let c = self.u_cidx[u] as usize;
                if s.stamp[c] != gen {
                    s.stamp[c] = gen;
                    s.touched.push(c as u32);
                    s.touch_count[c] = 0;
                    s.min_writer[c] = u32::MAX;
                    s.max_reader1[c] = 0;
                    s.max_thread_load[c] = 0;
                    s.max_read_radius[c] = 0;
                    s.halo[c] = 0;
                    s.produced[c] = false;
                    s.pivot_slot[c] = NO_SLOT;
                    s.load_min[c] = u64::MAX;
                    s.load_sum[c] = 0;
                    s.store_sum[c] = 0;
                }
                // Each member holds at most one use per array, so this
                // counts *distinct* touching members (`touched_by`).
                s.touch_count[c] += 1;
                let fl = self.u_flags[u];
                if fl & READS != 0 {
                    s.max_reader1[c] = s.max_reader1[c].max(mi as u32 + 1);
                    let le = self.u_load_elems[u];
                    s.load_min[c] = s.load_min[c].min(le);
                    s.load_sum[c] += le;
                }
                if fl & WRITES != 0 {
                    s.min_writer[c] = s.min_writer[c].min(mi as u32);
                }
                s.max_thread_load[c] = s.max_thread_load[c].max(self.u_thread_load[u]);
                s.max_read_radius[c] = s.max_read_radius[c].max(self.u_read_radius[u]);
                s.store_sum[c] += self.u_store_elems[u];
            }
            let row = &self.touch_bits[ki * self.words..(ki + 1) * self.words];
            for (w, r) in s.union_words.iter_mut().zip(row) {
                *w |= r;
            }
        }
        // Compact ids ascend with array ids, so pivots come out in
        // ascending-`ArrayId` order.
        s.touched.sort_unstable();

        // --- Pivot selection: arrays touched by ≥2 members (cross-kernel
        // reuse), or thread load > 1 in some member (the original kernel
        // already staged it, §VI-B2 "rigorously optimized"). A pivot is
        // `produced` when a member writes it and the same or a later
        // member reads it (the same-member case covers write-then-read
        // across statements of one original kernel; its staged copy is
        // produced on-chip just the same).
        s.pivots.clear();
        for &cu in &s.touched {
            let c = cu as usize;
            if !(s.touch_count[c] >= 2 || s.max_thread_load[c] > 1) {
                continue;
            }
            // ∃ writer w, reader r with r ≥ w ⟺ max reader ≥ min writer.
            let produced = s.max_reader1[c] > s.min_writer[c];
            s.produced[c] = produced;
            s.pivot_slot[c] = s.pivots.len() as u32;
            s.pivots.push(PivotSpec {
                array: self.arrays[c],
                halo: 0,
                smem: false,
                produced,
                ro_cache: false,
            });
        }

        // --- Cascaded halo fixpoint: a member whose written pivot has
        // halo h executes its statements over tile+h, so its reads of
        // other produced pivots must reach h + radius. Members ascending,
        // uses in array order, in-place halo updates visible within the
        // pass.
        for _ in 0..m_len.max(1) {
            let mut changed = false;
            for (mi, &k) in s.members.iter().enumerate() {
                let ki = k.index();
                let mut ext = 0u32;
                for u in self.use_range(ki) {
                    let c = self.u_cidx[u] as usize;
                    if self.u_flags[u] & WRITES != 0 && s.produced[c] {
                        ext = ext.max(s.halo[c]);
                    }
                }
                for u in self.use_range(ki) {
                    if self.u_flags[u] & READS == 0 {
                        continue;
                    }
                    let c = self.u_cidx[u] as usize;
                    if !s.produced[c] {
                        continue;
                    }
                    // Only reads of values produced by this or an earlier
                    // member need staged coverage.
                    if s.min_writer[c] > mi as u32 {
                        continue;
                    }
                    let need = ext + u32::from(self.u_read_radius[u]);
                    if need > s.halo[c] {
                        s.halo[c] = need;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // --- Medium decision per pivot: register staging suffices when
        // every thread only ever touches its own site and no halo is
        // needed (§II-D1); anything else is an SMEM tile.
        for &cu in &s.touched {
            let c = cu as usize;
            let slot = s.pivot_slot[c];
            if slot == NO_SLOT {
                continue;
            }
            let h = s.halo[c];
            let p = &mut s.pivots[slot as usize];
            p.halo = h.min(255) as u8;
            p.smem = s.max_thread_load[c] > 1 || h > 0 || s.max_read_radius[c] > 0;
        }

        // --- Barrier placement: readers of a produced SMEM pivot after its
        // first writer. Member-major sweep; one qualifying read decides
        // the member.
        s.barrier_before.clear();
        s.barrier_before.resize(m_len, false);
        for (mi, &k) in s.members.iter().enumerate() {
            let ki = k.index();
            for u in self.use_range(ki) {
                if self.u_flags[u] & READS == 0 {
                    continue;
                }
                let c = self.u_cidx[u] as usize;
                let slot = s.pivot_slot[c];
                if slot == NO_SLOT || !s.produced[c] || !s.pivots[slot as usize].smem {
                    continue;
                }
                if mi as u32 > s.min_writer[c] {
                    s.barrier_before[mi] = true;
                    break;
                }
            }
        }

        // --- SMEM demand with Eq. 7 bank-conflict padding.
        let elem = info.elem_bytes();
        let banks = u64::from(info.gpu.smem_banks);
        let padded = |raw: u64| if raw == 0 { 0 } else { raw + raw / banks };
        let raw_of = |pivots: &[PivotSpec]| -> u64 {
            pivots
                .iter()
                .filter(|p| p.smem)
                .map(|p| info.tile_area(u32::from(p.halo)) * elem)
                .sum()
        };
        let mut smem_bytes = padded(raw_of(&s.pivots));

        // --- §II-C relaxation (opt-in): when the fused kernel's SMEM
        // demand exceeds capacity, demote clean (loaded) pivots to the
        // hardware read-only cache, largest tiles first (stable: ties keep
        // array order), as long as they fit its capacity. Produced pivots
        // must stay in SMEM (coherence).
        let mut ro_bytes = 0u64;
        if info.gpu.use_readonly_cache {
            let capacity = u64::from(info.gpu.smem_per_smx);
            let ro_capacity = u64::from(info.gpu.readonly_cache_bytes);
            s.ro_order.clear();
            for (i, p) in s.pivots.iter().enumerate() {
                if p.smem && !p.produced {
                    s.ro_order.push(i as u32);
                }
            }
            // Stable insertion sort: std's stable sort may heap-allocate a
            // merge buffer, which would break the zero-alloc guarantee.
            for i in 1..s.ro_order.len() {
                let cur = s.ro_order[i];
                let key = info.tile_area(u32::from(s.pivots[cur as usize].halo));
                let mut j = i;
                while j > 0 {
                    let prev = s.ro_order[j - 1];
                    if info.tile_area(u32::from(s.pivots[prev as usize].halo)) < key {
                        s.ro_order[j] = prev;
                        j -= 1;
                    } else {
                        break;
                    }
                }
                s.ro_order[j] = cur;
            }
            for idx in 0..s.ro_order.len() {
                if smem_bytes <= capacity {
                    break;
                }
                let i = s.ro_order[idx] as usize;
                let tile = info.tile_area(u32::from(s.pivots[i].halo)) * elem;
                if ro_bytes + tile > ro_capacity {
                    continue;
                }
                s.pivots[i].smem = false;
                s.pivots[i].ro_cache = true;
                ro_bytes += tile;
                smem_bytes = padded(raw_of(&s.pivots));
            }
        }

        // --- Widest produced halo → Hal (Eq. 4/5 bookkeeping).
        let max_halo: u32 = s
            .pivots
            .iter()
            .filter(|p| p.produced)
            .map(|p| u32::from(p.halo))
            .max()
            .unwrap_or(0);
        let halo_bytes = info.halo_area(max_halo) * elem;
        let threads64 = u64::from(info.threads.max(1));

        // --- Eq. 6 register projection: bookkeeping + addressing
        // registers for the union of touched arrays (R_Adr; `|ShrLst|` is
        // the popcount of the OR-ed touch bitsets), the widest member's
        // live stencil operands (RegFac-scaled, from metadata), and one
        // fetch/value register per staged pivot (R_fetch, Eq. 5) plus the
        // per-thread share of a produced SMEM pivot's halo ring.
        let union_arrays: u32 = s.union_words.iter().map(|w| w.count_ones()).sum();
        debug_assert_eq!(union_arrays as usize, s.touched.len());
        let live = s
            .members
            .iter()
            .map(|&k| self.k_live_regs[k.index()])
            .max()
            .unwrap_or(0);
        let mut staging_regs = 0u32;
        for p in &s.pivots {
            staging_regs += 1;
            if p.smem && p.produced && p.halo > 0 {
                staging_regs += info.halo_area(u32::from(p.halo)).div_ceil(threads64) as u32;
            }
        }
        let base_regs = s
            .members
            .iter()
            .map(|&k| self.k_regs[k.index()])
            .max()
            .unwrap_or(0);
        let projected_regs = if m_len == 1 {
            base_regs
        } else {
            // Plus the per-segment scheduling registers the compiler keeps
            // live across barriers (2 per extra member). The residual the
            // codeless projection cannot see — operand pipelining scaled by
            // the widest pivot's thread load — is what produces the
            // occasional measured-unprofitable fusion (§VI-D2).
            12 + 2 * union_arrays + live + staging_regs + 2 * (m_len as u32 - 1)
        };

        // --- Eq. 10 numerator: member FLOPs plus redundant halo compute by
        // the writers of each produced SMEM pivot, one exact integer term
        // per (member, pivot).
        let mut flops: u64 = s.members.iter().map(|&k| self.k_flops[k.index()]).sum();
        let tile0 = info.tile_area(0).max(1);
        for &k in &s.members {
            for u in self.use_range(k.index()) {
                if self.u_flags[u] & WRITES == 0 {
                    continue;
                }
                let c = self.u_cidx[u] as usize;
                let slot = s.pivot_slot[c];
                if slot == NO_SLOT {
                    continue;
                }
                let p = &s.pivots[slot as usize];
                if !p.produced || !p.smem || p.halo == 0 {
                    continue;
                }
                flops += self.u_write_flops[u] * info.halo_area(u32::from(p.halo)) / tile0;
            }
        }

        let active_threads = s
            .members
            .iter()
            .map(|&k| self.k_active_threads[k.index()])
            .min()
            .unwrap_or(0);
        let barriers = s.barrier_before.iter().filter(|&&b| b).count() as u32;

        SpecView {
            tables: self,
            members: &s.members,
            pivots: &s.pivots,
            barrier_before: &s.barrier_before,
            smem_bytes,
            projected_regs,
            flops,
            halo_bytes,
            ro_bytes,
            active_threads,
            complex: barriers > 0,
            barriers,
            gen,
            stamp: &s.stamp,
            touched: &s.touched,
            pivot_slot: &s.pivot_slot,
            max_reader1: &s.max_reader1,
            load_min: &s.load_min,
            load_sum: &s.load_sum,
            store_sum: &s.store_sum,
        }
    }
}

/// Reusable synthesis scratch: dense per-compact-array slots validated by
/// an epoch stamp, plus the output buffers a [`SpecView`] borrows.
///
/// Lifetime rules: one scratch per thread (the search evaluator owns the
/// one its memo misses synthesize into). A scratch warms to a program's
/// dimensions on first use and never allocates again for that program.
#[derive(Debug, Clone, Default)]
pub struct SynthScratch {
    gen: u32,
    stamp: Vec<u32>,
    touch_count: Vec<u32>,
    min_writer: Vec<u32>,
    max_reader1: Vec<u32>,
    max_thread_load: Vec<u32>,
    max_read_radius: Vec<u8>,
    halo: Vec<u32>,
    produced: Vec<bool>,
    pivot_slot: Vec<u32>,
    load_min: Vec<u64>,
    load_sum: Vec<u64>,
    store_sum: Vec<u64>,
    touched: Vec<u32>,
    union_words: Vec<u64>,
    members: Vec<KernelId>,
    pivots: Vec<PivotSpec>,
    barrier_before: Vec<bool>,
    ro_order: Vec<u32>,
    /// Group-membership bitset for the structural checks (path closure).
    pub(crate) group_bits: BitSet,
    /// Reachability scratch for `path_closure_violation_with`.
    pub(crate) reach: BitSet,
}

impl SynthScratch {
    /// An empty scratch; it sizes itself to the tables on first use.
    pub fn new() -> Self {
        SynthScratch::default()
    }

    /// Resize every slot and reserve every output buffer to its upper
    /// bound for `tables`, so no later call can ever grow a buffer.
    fn ensure(&mut self, tables: &SynthTables, n_kernels: usize) {
        let n = tables.n_compact();
        if self.stamp.len() != n {
            self.gen = 0;
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.touch_count.clear();
            self.touch_count.resize(n, 0);
            self.min_writer.clear();
            self.min_writer.resize(n, 0);
            self.max_reader1.clear();
            self.max_reader1.resize(n, 0);
            self.max_thread_load.clear();
            self.max_thread_load.resize(n, 0);
            self.max_read_radius.clear();
            self.max_read_radius.resize(n, 0);
            self.halo.clear();
            self.halo.resize(n, 0);
            self.produced.clear();
            self.produced.resize(n, false);
            self.pivot_slot.clear();
            self.pivot_slot.resize(n, NO_SLOT);
            self.load_min.clear();
            self.load_min.resize(n, 0);
            self.load_sum.clear();
            self.load_sum.resize(n, 0);
            self.store_sum.clear();
            self.store_sum.resize(n, 0);
            self.touched.clear();
            self.touched.reserve(n);
            self.pivots.clear();
            self.pivots.reserve(n);
            self.ro_order.clear();
            self.ro_order.reserve(n);
        }
        if self.union_words.len() != tables.words {
            self.union_words.clear();
            self.union_words.resize(tables.words, 0);
        }
        if self.members.capacity() < n_kernels {
            self.members.reserve(n_kernels);
        }
        if self.barrier_before.capacity() < n_kernels {
            self.barrier_before.reserve(n_kernels);
        }
    }
}

/// A synthesized fusion specification borrowed from a [`SynthScratch`] —
/// the allocation-free counterpart of [`GroupSpec`]. Valid until the next
/// `synthesize_into` on the same scratch.
pub struct SpecView<'a> {
    pub(crate) tables: &'a SynthTables,
    /// Members in segment (invocation) order.
    pub members: &'a [KernelId],
    /// Staged pivot arrays (`F^Pivot` of Table II), ascending by array id.
    pub pivots: &'a [PivotSpec],
    /// Which members need a `__syncthreads()` before their segment.
    pub barrier_before: &'a [bool],
    /// SMEM bytes per block including Eq. 7 bank-conflict padding.
    pub smem_bytes: u64,
    /// Projected registers per thread (Eq. 6).
    pub projected_regs: u32,
    /// Total FLOPs per invocation including halo redundancy.
    pub flops: u64,
    /// `Hal` of the widest produced pivot, in bytes.
    pub halo_bytes: u64,
    /// Bytes routed through the read-only cache (§II-C relaxation).
    pub ro_bytes: u64,
    /// `T_B`: least active threads per block among members.
    pub active_threads: u32,
    /// True if any barrier is required (complex fusion, §II-D2).
    pub complex: bool,
    barriers: u32,
    gen: u32,
    stamp: &'a [u32],
    pub(crate) touched: &'a [u32],
    pub(crate) pivot_slot: &'a [u32],
    pub(crate) max_reader1: &'a [u32],
    pub(crate) load_min: &'a [u64],
    pub(crate) load_sum: &'a [u64],
    pub(crate) store_sum: &'a [u64],
}

impl SpecView<'_> {
    /// Number of barriers in the fused kernel.
    pub fn barrier_count(&self) -> u32 {
        self.barriers
    }

    /// The pivot entry for `a`, if staged — an O(1) double index. The
    /// epoch stamp guards against slots left over from a previous
    /// candidate on the same scratch.
    pub fn pivot(&self, a: ArrayId) -> Option<&PivotSpec> {
        let c = *self.tables.compact.get(a.index())?;
        if c == NO_SLOT || self.stamp[c as usize] != self.gen {
            return None;
        }
        let slot = self.pivot_slot[c as usize];
        if slot == NO_SLOT {
            return None;
        }
        Some(&self.pivots[slot as usize])
    }

    /// Materialize an owned [`GroupSpec`]: what `PlanContext::validate`,
    /// `check_group` and [`GroupSpec::synthesize`] hand to consumers off
    /// the search's hot path.
    pub fn to_spec(&self) -> GroupSpec {
        GroupSpec {
            members: self.members.to_vec(),
            pivots: self.pivots.to_vec(),
            barrier_before: self.barrier_before.to_vec(),
            smem_bytes: self.smem_bytes,
            projected_regs: self.projected_regs,
            flops: self.flops,
            halo_bytes: self.halo_bytes,
            ro_bytes: self.ro_bytes,
            active_threads: self.active_threads,
            complex: self.complex,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::{Expr, Program};

    /// k0: B = A; k1: C = B; k2: D = B[-1] + B[+1] (the spec.rs fixture).
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(b) * Expr::lit(2.0))
            .build();
        pb.kernel("k2")
            .write(
                d,
                Expr::load(b, Offset::new(-1, 0, 0)) + Expr::load(b, Offset::new(1, 0, 0)),
            )
            .build();
        pb.build()
    }

    #[test]
    fn view_pivot_lookup_is_an_index_and_guards_stale_slots() {
        let info = ProgramInfo::extract(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let tables = SynthTables::build(&info);
        let mut scratch = SynthScratch::new();
        // First candidate stages B (pivot); record the slot...
        let v = tables.synthesize_into(&info, &[KernelId(0), KernelId(2)], &mut scratch);
        assert_eq!(
            v.pivot(ArrayId(1)).copied(),
            Some(PivotSpec {
                array: ArrayId(1),
                halo: 1,
                smem: true,
                produced: true,
                ro_cache: false,
            }),
            "B is staged"
        );
        assert!(v.pivot(ArrayId(0)).is_none(), "A touched but not a pivot");
        // ...then a candidate not touching D must not resurface it, and a
        // lone pointwise kernel stages nothing at all: B's slot from the
        // previous candidate is re-stamped, not inherited.
        let v = tables.synthesize_into(&info, &[KernelId(1)], &mut scratch);
        assert!(
            v.pivot(ArrayId(3)).is_none(),
            "D from the previous candidate must be stale"
        );
        assert!(v.pivots.is_empty());
        for a in 0..4u32 {
            assert_eq!(v.pivot(ArrayId(a)), None, "pivot({a})");
        }
        assert_eq!(v.pivot(ArrayId(99)), None, "out of the compact table");
    }

    #[test]
    fn single_member_view_is_passthrough() {
        let info = ProgramInfo::extract(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let tables = SynthTables::build(&info);
        let mut scratch = SynthScratch::new();
        let v = tables.synthesize_into(&info, &[KernelId(2)], &mut scratch);
        assert_eq!(v.members, &[KernelId(2)]);
        assert_eq!(v.projected_regs, info.kernels[2].regs_per_thread);
        assert_eq!(v.flops, info.kernels[2].flops);
        assert!(!v.complex);
    }

    #[test]
    fn member_order_is_canonical() {
        let info = ProgramInfo::extract(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let tables = SynthTables::build(&info);
        let mut scratch = SynthScratch::new();
        let s1 = tables
            .synthesize_into(&info, &[KernelId(2), KernelId(0)], &mut scratch)
            .to_spec();
        let s2 = tables
            .synthesize_into(&info, &[KernelId(0), KernelId(2)], &mut scratch)
            .to_spec();
        assert_eq!(s1.members, s2.members);
        assert_eq!(s1.smem_bytes, s2.smem_bytes);
    }

    #[test]
    fn tables_index_every_touched_array() {
        let info = ProgramInfo::extract(&program(), &GpuSpec::k20x(), FpPrecision::Double);
        let t = SynthTables::build(&info);
        assert_eq!(t.n_compact(), 4);
        for (c, &a) in t.arrays.iter().enumerate() {
            assert_eq!(t.compact[a.index()] as usize, c);
        }
        // Compact order must mirror ArrayId order (pivot ordering relies
        // on it).
        assert!(t.arrays.windows(2).all(|w| w[0] < w[1]));
    }
}
