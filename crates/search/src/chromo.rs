//! Flat, group-encoded chromosome: the native currency of the HGGA inner
//! loop.
//!
//! A [`Chromosome`] stores every kernel id in one contiguous arena; groups
//! are `(start, len)` slots over that arena, each carrying a cached
//! [`GroupEval`] so genetic operators never re-probe groups they did not
//! touch. Sealing checks the group condensation with the one Kahn pass,
//! [`condensation_order_with`], over the chromosome itself (it is a
//! [`Grouping`]), so no [`FusionPlan`] is built per candidate.
//!
//! Invariants the HGGA relies on (see DESIGN.md §10):
//!
//! * `group_of[k]` always names the live slot holding kernel `k` — it is
//!   updated eagerly by every mutator.
//! * `order` lists live slot ids in the transient Vec-of-Vecs order the
//!   `Vec<Vec<KernelId>>` operators produced; [`Chromosome::finalize`]
//!   sorts it into normalized plan order, which keeps repair bit for bit
//!   on the recorded trajectories (`hgga`'s tests).
//! * A slot's `eval` is trusted only when `eval_known`; operators that
//!   probed a candidate group pass the probe result along so finalize
//!   resolves the remaining unknowns with at most one memo lookup each.
//! * `cost` is NaN between mutations; only [`Chromosome::finalize`]
//!   produces a comparable objective, summing group times in normalized
//!   order so the f64 result is bitwise equal to [`Evaluator::plan`] on
//!   the converted [`FusionPlan`].

use crate::eval::{Evaluator, GroupEval};
use kfuse_core::batch::CandidateBatch;
use kfuse_core::fuse::{condensation_order_with, CondensationScratch, FuseError, Grouping};
use kfuse_core::plan::FusionPlan;
use kfuse_ir::KernelId;
use kfuse_obs::Counter;

const NO_SLOT: u32 = u32::MAX;

/// One group: a region of the member arena plus cached evaluation state.
#[derive(Clone, Copy, Debug)]
struct Slot {
    start: u32,
    len: u32,
    eval: GroupEval,
    eval_known: bool,
    alive: bool,
}

/// Flat grouping chromosome with per-group cached evaluations.
#[derive(Clone, Debug)]
pub struct Chromosome {
    /// Member arena; live slots own disjoint regions (dead regions linger
    /// until [`Chromosome::finalize`] repacks).
    arena: Vec<KernelId>,
    slots: Vec<Slot>,
    /// Live slot ids in transient group order.
    order: Vec<u32>,
    /// Kernel index → live slot id; eagerly maintained.
    group_of: Vec<u32>,
    cost: f64,
    /// True when every live region is sorted and `order` is sorted by
    /// first member — i.e. the groups are in [`FusionPlan`] normal form.
    normalized: bool,
    n_kernels: usize,
}

/// Reusable buffers for chromosome maintenance and the genetic operators.
/// One per solve — never shared across threads.
#[derive(Default)]
pub struct OpScratch {
    // Chromosome internals.
    cond: CondensationScratch,
    arena2: Vec<KernelId>,
    slots2: Vec<Slot>,
    // Operator buffers (owned here so operators allocate nothing steady-state).
    pub(crate) probe: Vec<KernelId>,
    pub(crate) orphans: Vec<KernelId>,
    pub(crate) split_a: Vec<KernelId>,
    pub(crate) split_b: Vec<KernelId>,
    pub(crate) idxs: Vec<usize>,
    pub(crate) multi: Vec<usize>,
    pub(crate) injected: Vec<bool>,
    pub(crate) donors: Vec<u32>,
    pub(crate) chosen: Vec<u32>,
    /// Candidate queue: operators queue candidate moves here and rescore
    /// them lane-per-candidate in one [`Evaluator::group_batch`] flush.
    pub(crate) cands: CandidateBatch,
    /// Evaluations written back by [`Evaluator::group_batch`], indexed by
    /// candidate position in `cands`.
    pub(crate) bevals: Vec<GroupEval>,
    /// One packed descriptor per queued sample, replayed after the flush:
    /// `[kind-or-slot, i, j, vi, candidate index]` (operators assign their
    /// own meanings per field).
    pub(crate) descs: Vec<[u32; 5]>,
}

impl OpScratch {
    /// Fresh scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Chromosome {
    /// The identity chromosome: one singleton slot per kernel, evaluations
    /// filled from the evaluator's dense singleton baseline.
    pub fn identity(ev: &Evaluator) -> Self {
        let n = ev.ctx.n_kernels();
        let arena: Vec<KernelId> = (0..n).map(|k| KernelId(k as u32)).collect();
        let slots = (0..n)
            .map(|k| Slot {
                start: k as u32,
                len: 1,
                eval: ev.singleton(KernelId(k as u32)),
                eval_known: true,
                alive: true,
            })
            .collect();
        Chromosome {
            arena,
            slots,
            order: (0..n as u32).collect(),
            group_of: (0..n as u32).collect(),
            cost: f64::NAN,
            normalized: true,
            n_kernels: n,
        }
    }

    /// Import a (normalized) [`FusionPlan`]. Singleton evaluations come from
    /// the dense baseline; multi-member groups stay unresolved until
    /// [`Chromosome::finalize`].
    pub fn from_plan(plan: &FusionPlan, ev: &Evaluator) -> Self {
        let n = ev.ctx.n_kernels();
        let mut arena = Vec::with_capacity(n);
        let mut slots = Vec::with_capacity(plan.groups.len());
        let mut group_of = vec![NO_SLOT; n];
        for g in &plan.groups {
            let sid = slots.len() as u32;
            let start = arena.len() as u32;
            arena.extend_from_slice(g);
            for &k in g {
                group_of[k.index()] = sid;
            }
            let (eval, eval_known) = if let [k] = g.as_slice() {
                (ev.singleton(*k), true)
            } else {
                (GroupEval { time_s: f64::NAN }, false)
            };
            slots.push(Slot {
                start,
                len: g.len() as u32,
                eval,
                eval_known,
                alive: true,
            });
        }
        Chromosome {
            arena,
            order: (0..slots.len() as u32).collect(),
            slots,
            group_of,
            cost: f64::NAN,
            normalized: true,
            n_kernels: n,
        }
    }

    /// The finalized objective. NaN if the chromosome has been mutated
    /// since the last [`Chromosome::finalize`].
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Number of live groups.
    pub fn group_count(&self) -> usize {
        self.order.len()
    }

    /// Total kernels covered.
    pub fn n_kernels(&self) -> usize {
        self.n_kernels
    }

    /// Members of the group at transient position `pos`.
    pub fn members_at(&self, pos: usize) -> &[KernelId] {
        self.slot_members(self.order[pos])
    }

    /// Slot id at transient position `pos`.
    pub fn slot_id_at(&self, pos: usize) -> u32 {
        self.order[pos]
    }

    /// Members of slot `sid`.
    pub fn slot_members(&self, sid: u32) -> &[KernelId] {
        let s = &self.slots[sid as usize];
        &self.arena[s.start as usize..(s.start + s.len) as usize]
    }

    /// Cached evaluation of slot `sid`, if resolved.
    pub fn slot_eval(&self, sid: u32) -> Option<GroupEval> {
        let s = &self.slots[sid as usize];
        s.eval_known.then_some(s.eval)
    }

    /// Cached evaluation of the group at position `pos`, if resolved.
    pub fn eval_at(&self, pos: usize) -> Option<GroupEval> {
        self.slot_eval(self.order[pos])
    }

    /// Slot currently holding kernel `k`.
    pub fn slot_of(&self, k: KernelId) -> u32 {
        self.group_of[k.index()]
    }

    /// Transient position of slot `sid` (linear scan; operators use this
    /// only off the per-sample hot path).
    pub fn position_of_slot(&self, sid: u32) -> usize {
        self.order
            .iter()
            .position(|&s| s == sid)
            .expect("slot not in order")
    }

    /// Convert to the boundary [`FusionPlan`] type.
    pub fn to_plan(&self) -> FusionPlan {
        let groups: Vec<Vec<KernelId>> = self
            .order
            .iter()
            .map(|&sid| self.slot_members(sid).to_vec())
            .collect();
        if self.normalized {
            FusionPlan::from_sorted_groups(groups)
        } else {
            FusionPlan::new(groups)
        }
    }

    fn touch(&mut self) {
        self.cost = f64::NAN;
        self.normalized = false;
    }

    /// Append a new group at the end of the transient order. Pass the eval
    /// when the operator already probed the members. Returns the slot id.
    pub fn push_group(&mut self, members: &[KernelId], eval: Option<GroupEval>) -> u32 {
        debug_assert!(!members.is_empty());
        let sid = self.slots.len() as u32;
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(members);
        for &k in members {
            self.group_of[k.index()] = sid;
        }
        self.slots.push(Slot {
            start,
            len: members.len() as u32,
            eval: eval.unwrap_or(GroupEval { time_s: f64::NAN }),
            eval_known: eval.is_some(),
            alive: true,
        });
        self.order.push(sid);
        self.touch();
        sid
    }

    /// Append kernel `k` to the group at position `pos`, with the probed
    /// evaluation of the grown group. The region relocates to the arena
    /// tail so it can grow in place later.
    pub fn push_member(&mut self, pos: usize, k: KernelId, eval: GroupEval) {
        let sid = self.order[pos];
        let s = self.slots[sid as usize];
        let at_tail = (s.start + s.len) as usize == self.arena.len();
        if !at_tail {
            let new_start = self.arena.len() as u32;
            let range = s.start as usize..(s.start + s.len) as usize;
            self.arena.extend_from_within(range);
            self.slots[sid as usize].start = new_start;
        }
        self.arena.push(k);
        let s = &mut self.slots[sid as usize];
        s.len += 1;
        s.eval = eval;
        s.eval_known = true;
        self.group_of[k.index()] = sid;
        self.touch();
    }

    /// Remove the member at index `vi` of the group at position `pos`. The
    /// caller must have re-homed the kernel *first* (its `group_of` entry
    /// already points elsewhere). If members remain, `eval` must carry the
    /// probed evaluation of the shrunk group; an emptied slot dies.
    pub fn remove_member(&mut self, pos: usize, vi: usize, eval: Option<GroupEval>) {
        let sid = self.order[pos];
        let s = self.slots[sid as usize];
        debug_assert!(vi < s.len as usize);
        let base = s.start as usize;
        self.arena
            .copy_within(base + vi + 1..base + s.len as usize, base + vi);
        let s = &mut self.slots[sid as usize];
        s.len -= 1;
        if s.len == 0 {
            s.alive = false;
            self.order.remove(pos);
        } else {
            let e = eval.expect("shrunk group needs its probed eval");
            s.eval = e;
            s.eval_known = true;
        }
        self.touch();
    }

    /// Merge the groups at positions `i` and `j` into a *new* slot appended
    /// at the end of the transient order (members of `i` then `j`),
    /// mirroring the legacy `remove(hi); remove(lo); push(merged)` shape.
    pub fn merge_append(&mut self, i: usize, j: usize, eval: GroupEval) {
        debug_assert_ne!(i, j);
        let (si, sj) = (self.order[i], self.order[j]);
        let start = self.arena.len() as u32;
        let sid = self.slots.len() as u32;
        for src in [si, sj] {
            let s = self.slots[src as usize];
            let range = s.start as usize..(s.start + s.len) as usize;
            self.arena.extend_from_within(range);
            self.slots[src as usize].alive = false;
        }
        let len = self.arena.len() as u32 - start;
        for idx in start as usize..self.arena.len() {
            let k = self.arena[idx];
            self.group_of[k.index()] = sid;
        }
        self.slots.push(Slot {
            start,
            len,
            eval,
            eval_known: true,
            alive: true,
        });
        let (lo, hi) = (i.min(j), i.max(j));
        self.order.remove(hi);
        self.order.remove(lo);
        self.order.push(sid);
        self.touch();
    }

    /// Merge the group at position `j` into the one at position `i`, which
    /// keeps its slot id and transient position (`extend` semantics).
    pub fn merge_into(&mut self, i: usize, j: usize, eval: GroupEval) {
        debug_assert_ne!(i, j);
        let (si, sj) = (self.order[i], self.order[j]);
        let s = self.slots[si as usize];
        let at_tail = (s.start + s.len) as usize == self.arena.len();
        if !at_tail {
            let new_start = self.arena.len() as u32;
            let range = s.start as usize..(s.start + s.len) as usize;
            self.arena.extend_from_within(range);
            self.slots[si as usize].start = new_start;
        }
        let d = self.slots[sj as usize];
        let range = d.start as usize..(d.start + d.len) as usize;
        self.arena.extend_from_within(range.clone());
        for idx in range {
            let k = self.arena[idx];
            self.group_of[k.index()] = si;
        }
        let s = &mut self.slots[si as usize];
        s.len += d.len;
        s.eval = eval;
        s.eval_known = true;
        self.slots[sj as usize].alive = false;
        self.order.remove(j);
        self.touch();
    }

    /// Replace the membership of the group at position `pos` with a subset
    /// of its current members (bipartition keep-side). The dropped members
    /// must be re-homed by the caller via [`Chromosome::push_group`].
    pub fn replace_members(&mut self, pos: usize, members: &[KernelId], eval: Option<GroupEval>) {
        let sid = self.order[pos];
        let s = self.slots[sid as usize];
        debug_assert!(!members.is_empty() && members.len() <= s.len as usize);
        let base = s.start as usize;
        self.arena[base..base + members.len()].copy_from_slice(members);
        let s = &mut self.slots[sid as usize];
        s.len = members.len() as u32;
        match eval {
            Some(e) => {
                s.eval = e;
                s.eval_known = true;
            }
            None => s.eval_known = false,
        }
        for &k in members {
            self.group_of[k.index()] = sid;
        }
        self.touch();
    }

    /// Mark the group at position `pos` dead without disturbing positions;
    /// pair with [`Chromosome::compact_order`] once all evictions are done
    /// (crossover removes several groups while iterating).
    pub fn kill_group(&mut self, pos: usize) {
        let sid = self.order[pos];
        self.slots[sid as usize].alive = false;
        self.touch();
    }

    /// Drop dead entries from the transient order, preserving relative
    /// order of the survivors.
    pub fn compact_order(&mut self) {
        let slots = &self.slots;
        self.order.retain(|&sid| slots[sid as usize].alive);
    }

    /// Remove the group at position `pos`, appending its members to
    /// `orphans` (mutate's eliminate case).
    pub fn remove_group_at(&mut self, pos: usize, orphans: &mut Vec<KernelId>) {
        let sid = self.order[pos];
        orphans.extend_from_slice(self.slot_members(sid));
        self.slots[sid as usize].alive = false;
        self.order.remove(pos);
        self.touch();
    }

    /// Split slot `sid` into singletons appended at the arena/order tails.
    fn split_slot(&mut self, sid: u32, ev: &Evaluator) {
        let s = self.slots[sid as usize];
        self.slots[sid as usize].alive = false;
        for idx in s.start as usize..(s.start + s.len) as usize {
            let k = self.arena[idx];
            let new_sid = self.slots.len() as u32;
            let start = self.arena.len() as u32;
            self.arena.push(k);
            self.slots.push(Slot {
                start,
                len: 1,
                eval: ev.singleton(k),
                eval_known: true,
                alive: true,
            });
            self.group_of[k.index()] = new_sid;
            self.order.push(new_sid);
        }
    }

    /// Sort members within each live region and the order by first member.
    fn normalize(&mut self) {
        if self.normalized {
            return;
        }
        let arena = &mut self.arena;
        for &sid in &self.order {
            let s = &self.slots[sid as usize];
            arena[s.start as usize..(s.start + s.len) as usize].sort_unstable();
        }
        let slots = &self.slots;
        let arena = &self.arena;
        self.order
            .sort_unstable_by_key(|&sid| arena[slots[sid as usize].start as usize]);
        self.normalized = true;
    }

    /// Compact arena and slots so live data is contiguous and slot ids
    /// equal transient positions.
    fn repack(&mut self, scratch: &mut OpScratch) {
        scratch.arena2.clear();
        scratch.slots2.clear();
        for &sid in &self.order {
            let s = self.slots[sid as usize];
            let start = scratch.arena2.len() as u32;
            scratch
                .arena2
                .extend_from_slice(&self.arena[s.start as usize..(s.start + s.len) as usize]);
            scratch.slots2.push(Slot { start, ..s });
        }
        std::mem::swap(&mut self.arena, &mut scratch.arena2);
        std::mem::swap(&mut self.slots, &mut scratch.slots2);
        self.order.clear();
        self.order.extend(0..self.slots.len() as u32);
        for (sid, s) in self.slots.iter().enumerate() {
            for &k in &self.arena[s.start as usize..(s.start + s.len) as usize] {
                self.group_of[k.index()] = sid as u32;
            }
        }
    }

    /// Normalize, repair to feasibility (split infeasible multi-member
    /// groups into singletons, then split condensation-cycle victims until
    /// acyclic — bit-for-bit the legacy `repair`), repack, and compute the
    /// objective. After this the chromosome is in plan normal form and
    /// [`Chromosome::cost`] equals `ev.plan(&self.to_plan())`.
    pub fn finalize(&mut self, ev: &Evaluator, scratch: &mut OpScratch) {
        ev.count(Counter::Finalizes, 1);
        self.normalize();

        // Phase 1: singletons pass unchecked (exactly like legacy repair);
        // multi-member groups must be feasible or dissolve.
        //
        // Every unresolved multi-member eval is gathered up front and
        // probed as one batch: the loop below only appends slots past
        // `initial` (splits), so every multi-member group it visits is
        // resolved here.
        let initial = self.order.len();
        scratch.cands.clear();
        scratch.descs.clear();
        for pos in 0..initial {
            let sid = self.order[pos];
            let s = self.slots[sid as usize];
            if s.len >= 2 && !s.eval_known {
                scratch
                    .cands
                    .push(&self.arena[s.start as usize..(s.start + s.len) as usize]);
                scratch.descs.push([sid, 0, 0, 0, 0]);
            }
        }
        ev.group_batch(&scratch.cands, &mut scratch.bevals);
        for (d, e) in scratch.descs.iter().zip(&scratch.bevals) {
            let slot = &mut self.slots[d[0] as usize];
            slot.eval = *e;
            slot.eval_known = true;
            ev.count(Counter::GroupsRescored, 1);
        }
        let mut killed = false;
        for pos in 0..initial {
            let sid = self.order[pos];
            let s = self.slots[sid as usize];
            if s.len == 1 {
                if !s.eval_known {
                    let k = self.arena[s.start as usize];
                    let slot = &mut self.slots[sid as usize];
                    slot.eval = ev.singleton(k);
                    slot.eval_known = true;
                    ev.count(Counter::GroupsRescored, 1);
                }
                continue;
            }
            debug_assert!(s.eval_known);
            if !s.eval.feasible() {
                self.split_slot(sid, ev);
                ev.count(Counter::GroupsSplit, 1);
                killed = true;
            }
        }
        if killed {
            self.compact_order();
            self.normalize_order_only();
        }

        // Phase 2: split the first stuck group in plan order until the
        // condensation is acyclic — the legacy victim choice.
        loop {
            ev.count_condensation();
            let stuck = match condensation_order_with(self, &ev.ctx.exec, &mut scratch.cond) {
                Ok(_) => break,
                Err(FuseError::OrderCycle(stuck, _)) => stuck,
                Err(e) => unreachable!("a chromosome partitions its kernels: {e}"),
            };
            self.split_slot(self.order[stuck], ev);
            self.compact_order();
            self.normalize_order_only();
        }

        self.repack(scratch);

        // Objective: ordered sum in plan order, infinity on the first
        // infeasible group — bitwise identical to `Evaluator::plan`.
        let mut total = 0.0;
        for &sid in &self.order {
            let s = &self.slots[sid as usize];
            debug_assert!(s.eval_known);
            if !s.eval.feasible() {
                total = f64::INFINITY;
                break;
            }
            total += s.eval.time_s;
        }
        self.cost = total;
    }

    /// Re-sort only the order (regions already member-sorted; splits append
    /// sorted singletons, so per-region order is intact).
    fn normalize_order_only(&mut self) {
        let slots = &self.slots;
        let arena = &self.arena;
        self.order
            .sort_unstable_by_key(|&sid| arena[slots[sid as usize].start as usize]);
        self.normalized = true;
    }

    /// Internal consistency check for the unit tests below.
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut seen = vec![false; self.n_kernels];
        for &sid in &self.order {
            let s = &self.slots[sid as usize];
            assert!(s.alive, "dead slot {sid} in order");
            assert!(s.len >= 1);
            for &k in self.slot_members(sid) {
                assert!(!seen[k.index()], "kernel {k} in two groups");
                seen[k.index()] = true;
                assert_eq!(self.group_of[k.index()], sid, "stale group_of for {k}");
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "chromosome does not cover all kernels"
        );
    }
}

/// The live groups in transient order; in plan normal form after
/// [`Chromosome::finalize`] normalizes.
impl Grouping for Chromosome {
    fn group_count(&self) -> usize {
        self.order.len()
    }

    fn group(&self, i: usize) -> &[KernelId] {
        self.members_at(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use kfuse_core::pipeline::prepare;
    use kfuse_core::plan::PlanContext;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::Expr;

    fn context() -> PlanContext {
        // Chain k0→k1→k2 plus a cross-linked pair; rich enough to exercise
        // merges, cycles and infeasibility under arbitrary grouping.
        let mut pb = ProgramBuilder::new("p", [64, 4, 1]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        let e = pb.array("E");
        let x = pb.array("X");
        let y = pb.array("Y");
        pb.kernel("k0").write(b, Expr::at(a)).build();
        pb.kernel("k1").write(c, Expr::at(b)).build();
        pb.kernel("k2").write(d, Expr::at(c)).build();
        pb.kernel("k3").write(y, Expr::at(x)).build();
        pb.kernel("k4").write(e, Expr::at(y) + Expr::at(a)).build();
        pb.kernel("k5").write(x, Expr::at(d) + Expr::at(e)).build();
        let p = pb.build();
        let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
        ctx
    }

    fn k(i: u32) -> KernelId {
        KernelId(i)
    }

    #[test]
    fn identity_roundtrip_matches_evaluator() {
        let ctx = context();
        let model = kfuse_core::model::ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let mut scratch = OpScratch::new();
        let mut ch = Chromosome::identity(&ev);
        ch.check_invariants();
        ch.finalize(&ev, &mut scratch);
        let plan = ch.to_plan();
        assert_eq!(plan, FusionPlan::identity(ctx.n_kernels()));
        assert_eq!(ch.cost(), ev.plan(&plan));
    }

    #[test]
    fn from_plan_finalize_matches_full_eval() {
        let ctx = context();
        let model = kfuse_core::model::ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let mut scratch = OpScratch::new();
        let plan = FusionPlan::new(vec![
            vec![k(0), k(1)],
            vec![k(2)],
            vec![k(3), k(4)],
            vec![k(5)],
        ]);
        let mut ch = Chromosome::from_plan(&plan, &ev);
        ch.finalize(&ev, &mut scratch);
        ch.check_invariants();
        let out = ch.to_plan();
        // finalize repairs; the repaired plan must score exactly its cost.
        assert_eq!(ch.cost(), ev.plan(&out));
        assert!(ch.cost().is_finite());
    }

    #[test]
    fn mutator_sequence_tracks_full_eval() {
        let ctx = context();
        let model = kfuse_core::model::ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let mut scratch = OpScratch::new();
        let mut ch = Chromosome::identity(&ev);
        ch.finalize(&ev, &mut scratch);

        // Merge k0,k1 via merge_into (positions = slot ids after repack).
        let merged = [k(0), k(1)];
        let e01 = ev.group(&merged);
        if e01.feasible() {
            ch.merge_into(0, 1, e01);
            ch.finalize(&ev, &mut scratch);
            ch.check_invariants();
            assert_eq!(ch.cost(), ev.plan(&ch.to_plan()));
        }
    }

    #[test]
    fn sealing_splits_the_first_stuck_group_the_condensation_check_names() {
        // {k1,k4} and {k2,k3} are mutually ordered (k1→k2, k3→k4); {k5}
        // waits on both, so Kahn's pass leaves groups 1, 2 and 3 stuck.
        let ctx = context();
        let model = kfuse_core::model::ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let mut scratch = OpScratch::new();
        let plan = FusionPlan::new(vec![
            vec![k(0)],
            vec![k(1), k(4)],
            vec![k(2), k(3)],
            vec![k(5)],
        ]);
        assert!(ev.group(&plan.groups[1]).feasible() && ev.group(&plan.groups[2]).feasible());
        let mut ch = Chromosome::from_plan(&plan, &ev);
        let mut cond = CondensationScratch::new();
        let over_plan = condensation_order_with(&plan, &ctx.exec, &mut cond).map(<[usize]>::to_vec);
        let over_chromosome =
            condensation_order_with(&ch, &ctx.exec, &mut cond).map(<[usize]>::to_vec);
        assert_eq!(over_plan, Err(FuseError::OrderCycle(1, 2)));
        assert_eq!(over_chromosome, over_plan);

        // Both pairs are feasible, so only the cycle repair splits: one
        // check finds the cycle, the second passes the repaired grouping.
        let before = ev.snapshot();
        ch.finalize(&ev, &mut scratch);
        ch.check_invariants();
        let after = ev.snapshot();
        assert_eq!(
            after.get(Counter::GroupsSplit),
            before.get(Counter::GroupsSplit)
        );
        assert_eq!(
            after.get(Counter::CondensationChecks),
            before.get(Counter::CondensationChecks) + 2
        );
        assert_eq!(
            ch.to_plan(),
            FusionPlan::new(vec![
                vec![k(0)],
                vec![k(1)],
                vec![k(2), k(3)],
                vec![k(4)],
                vec![k(5)],
            ])
        );
        assert_eq!(ch.cost(), ev.plan(&ch.to_plan()));
    }
}
