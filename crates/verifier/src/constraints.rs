//! Independent checker for the plan-level constraint system (Fig. 4).
//!
//! Everything here is re-derived from kernel *metadata* alone, on purpose:
//! the hazard-edge sweep, the transitive closure, the sharing components,
//! the group resource synthesis (SMEM with Eq. 7 padding, Eq. 6 register
//! projection, read-only-cache demotion) and the group condensation are
//! all separate implementations from the ones in `kfuse_core` that the
//! search evaluators call. A bug in either side shows up as a feasibility
//! disagreement in the differential harness instead of silently shipping
//! an illegal plan.
//!
//! The only shared ingredients are *data* (the extracted [`ProgramInfo`])
//! and the projection model itself — constraint 1.1 (profitability) is
//! defined relative to a [`PerfModel`], so the model is an input, not a
//! re-implementation target.

use crate::diag::{self, Diagnostic, Report, Span};
use kfuse_core::metadata::ProgramInfo;
use kfuse_core::model::PerfModel;
use kfuse_core::plan::FusionPlan;
use kfuse_core::spec::{GroupSpec, PivotSpec};
use kfuse_core::util::{rows_bytes, vec_bytes};
use kfuse_ir::KernelId;
use std::borrow::Cow;

/// The verifier's per-program tables, derived from [`ProgramInfo`] alone
/// and independent of any plan: hazard successors, their transitive
/// closure and the sharing components. A caller that checks many plans of
/// one program (the daemon keeps one per kept context) builds them once
/// and checks each plan with [`PlanChecker::with_tables`].
#[derive(Debug, Clone)]
pub struct CheckerTables {
    /// Hazard-edge successor lists (RAW/WAW/WAR + epoch ordering edges).
    succs: Vec<Vec<usize>>,
    /// Words per closure row (`n / 64`, rounded up).
    words: usize,
    /// Row `u` (`words` words at `u * words`): bit `v` is set when a path
    /// `u -> v` exists (excluding `u` itself).
    reach: Vec<u64>,
    /// Sharing-component label per kernel (union-find over shared arrays).
    comp: Vec<usize>,
}

impl CheckerTables {
    /// Derive the tables from metadata.
    pub fn new(info: &ProgramInfo) -> Self {
        let n = info.kernels.len();
        let n_arrays = info.n_arrays;

        // Hazard sweep in invocation (id) order: a reader depends on the
        // last writer (RAW), a writer on the previous writer (WAW) and on
        // every reader of the previous value (WAR).
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_writer: Vec<Option<usize>> = vec![None; n_arrays];
        let mut readers_since: Vec<Vec<usize>> = vec![Vec::new(); n_arrays];
        for (ki, m) in info.kernels.iter().enumerate() {
            for u in m.uses.iter().filter(|u| u.reads) {
                let a = u.array.index();
                match last_writer[a] {
                    Some(w) if w != ki => succs[w].push(ki),
                    _ => {}
                }
                readers_since[a].push(ki);
            }
            for u in m.uses.iter().filter(|u| u.writes) {
                let a = u.array.index();
                match last_writer[a] {
                    Some(w) if w != ki => succs[w].push(ki),
                    _ => {}
                }
                for &r in readers_since[a].iter().filter(|&&r| r != ki) {
                    succs[r].push(ki);
                }
                last_writer[a] = Some(ki);
                readers_since[a].clear();
            }
        }
        // Host synchronization points totally order consecutive epochs.
        let n_epochs = info.epochs.iter().max().map_or(0, |&e| e as usize + 1);
        let mut by_epoch: Vec<Vec<usize>> = vec![Vec::new(); n_epochs];
        for (k, &e) in info.epochs.iter().enumerate() {
            by_epoch[e as usize].push(k);
        }
        for pair in by_epoch.windows(2) {
            for &u in &pair[0] {
                succs[u].extend_from_slice(&pair[1]);
            }
        }
        for s in &mut succs {
            s.sort_unstable();
            s.dedup();
        }

        // Transitive closure by backwards dynamic programming (ids are a
        // topological order: every hazard edge points forward, so the rows
        // a row ORs in lie after it and are final).
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        for u in (0..n).rev() {
            let (head, done) = reach.split_at_mut((u + 1) * words);
            let row = &mut head[u * words..];
            for &v in &succs[u] {
                row[v / 64] |= 1 << (v % 64);
                let from = &done[(v - u - 1) * words..][..words];
                for (w, f) in row.iter_mut().zip(from) {
                    *w |= f;
                }
            }
        }

        // Sharing components by union-find: two kernels touching the same
        // array are kin; constraint 1.5 requires one component per group.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        let mut touching: Vec<Vec<usize>> = vec![Vec::new(); n_arrays];
        for (ki, m) in info.kernels.iter().enumerate() {
            for u in &m.uses {
                touching[u.array.index()].push(ki);
            }
        }
        for ks in &touching {
            for w in ks.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let comp: Vec<usize> = (0..n).map(|k| find(&mut parent, k)).collect();

        CheckerTables {
            succs,
            words,
            reach,
            comp,
        }
    }

    /// Heap bytes the tables hold (capacities, not allocator footprint).
    pub fn heap_bytes(&self) -> usize {
        rows_bytes(&self.succs) + vec_bytes(&self.reach) + vec_bytes(&self.comp)
    }
}

/// Plan verifier over a program's [`CheckerTables`], owned or borrowed.
pub struct PlanChecker<'a> {
    info: &'a ProgramInfo,
    tables: Cow<'a, CheckerTables>,
}

impl<'a> PlanChecker<'a> {
    /// Build the checker's own tables from metadata.
    pub fn new(info: &'a ProgramInfo) -> Self {
        PlanChecker {
            info,
            tables: Cow::Owned(CheckerTables::new(info)),
        }
    }

    /// A checker over tables built earlier from this very `info`.
    pub fn with_tables(info: &'a ProgramInfo, tables: &'a CheckerTables) -> Self {
        debug_assert_eq!(
            tables.comp.len(),
            info.kernels.len(),
            "tables of another program"
        );
        PlanChecker {
            info,
            tables: Cow::Borrowed(tables),
        }
    }

    /// Number of kernels.
    pub fn n_kernels(&self) -> usize {
        self.info.kernels.len()
    }

    /// True if a hazard path `a -> b` exists (independent reachability).
    pub fn reaches(&self, a: KernelId, b: KernelId) -> bool {
        let b = b.index();
        self.row(a.index())[b / 64] & (1 << (b % 64)) != 0
    }

    /// Closure row of kernel `u`.
    fn row(&self, u: usize) -> &[u64] {
        &self.tables.reach[u * self.tables.words..][..self.tables.words]
    }

    /// Run every plan-level check. With a model, profitability (1.1) is
    /// checked too; without one, only the structural and capacity
    /// constraints are.
    pub fn check(&self, plan: &FusionPlan, model: Option<&dyn PerfModel>) -> Report {
        let n = self.n_kernels();
        let mut diags = Vec::new();

        // 1.2 / 1.4 — exact cover: every kernel in exactly one group.
        let mut count = vec![0usize; n];
        let mut cover_ok = true;
        for (gi, g) in plan.groups.iter().enumerate() {
            for &k in g {
                if k.index() >= n {
                    cover_ok = false;
                    diags.push(Diagnostic::error(
                        diag::KF_KERNEL_DUPLICATED,
                        Span::group_kernel(gi, k.0),
                        format!("group {gi} names unknown kernel {k} (program has {n} kernels)"),
                        "remove the stray id from the plan".to_string(),
                    ));
                } else {
                    count[k.index()] += 1;
                }
            }
        }
        for (k, &c) in count.iter().enumerate() {
            if c == 0 {
                cover_ok = false;
                diags.push(Diagnostic::error(
                    diag::KF_KERNEL_MISSING,
                    Span::kernel(k as u32),
                    format!("kernel K{k} is not covered by any group"),
                    format!("add K{k} to a group (a singleton group leaves it unfused)"),
                ));
            } else if c > 1 {
                cover_ok = false;
                diags.push(Diagnostic::error(
                    diag::KF_KERNEL_DUPLICATED,
                    Span::kernel(k as u32),
                    format!("kernel K{k} is covered by {c} groups"),
                    format!("keep K{k} in exactly one group"),
                ));
            }
        }
        if !cover_ok {
            // Group-level checks assume a partition; stop here.
            return Report::new(diags);
        }

        for (gi, g) in plan.groups.iter().enumerate() {
            self.check_group_into(gi, g, model, &mut diags);
        }

        if let Some(d) = self.condensation_cycle(plan) {
            diags.push(d);
        }
        Report::new(diags)
    }

    /// All checks for one group, appended to `diags`.
    fn check_group_into(
        &self,
        gi: usize,
        g: &[KernelId],
        model: Option<&dyn PerfModel>,
        diags: &mut Vec<Diagnostic>,
    ) {
        let info = self.info;
        if g.len() >= 2 {
            // §II-C: no fusion across host synchronization points.
            let e0 = info.epochs[g[0].index()];
            if let Some(&k) = g.iter().find(|k| info.epochs[k.index()] != e0) {
                diags.push(Diagnostic::error(
                    diag::KF_SYNC_SPLIT,
                    Span::group_kernel(gi, k.0),
                    format!(
                        "group {gi} spans host-sync epochs {e0} and {} ({k} is on the far side)",
                        info.epochs[k.index()]
                    ),
                    "split the group at the synchronization point".to_string(),
                ));
            }
            // §II-C: no fusion across CUDA streams.
            let s0 = info.streams[g[0].index()];
            if let Some(&k) = g.iter().find(|k| info.streams[k.index()] != s0) {
                diags.push(Diagnostic::error(
                    diag::KF_STREAM_SPLIT,
                    Span::group_kernel(gi, k.0),
                    format!(
                        "group {gi} mixes stream {s0} with stream {} ({k})",
                        info.streams[k.index()]
                    ),
                    "group only kernels issued into the same stream".to_string(),
                ));
            }
            // 1.5 — kinship: one sharing component per group.
            let c0 = self.tables.comp[g[0].index()];
            if let Some(&k) = g.iter().find(|k| self.tables.comp[k.index()] != c0) {
                diags.push(Diagnostic::error(
                    diag::KF_KINSHIP,
                    Span::group_kernel(gi, k.0),
                    format!(
                        "group {gi} members {} and {k} share no array directly or transitively \
                         (degree of kinship 0)",
                        g[0]
                    ),
                    "only fuse kernels connected in the sharing graph".to_string(),
                ));
            }
            // 1.3 — path closure on the order-of-execution DAG.
            if let Some(v) = self.path_closure_violator(g) {
                diags.push(Diagnostic::error(
                    diag::KF_PATH_CLOSURE,
                    Span::group_kernel(gi, v.0),
                    format!(
                        "group {gi} violates path closure: outside kernel {v} lies on a \
                         dependency path between two members"
                    ),
                    format!("include {v} in the group or split the group"),
                ));
            }
        }

        let spec = self.derive_spec(g);
        // 1.6 — SMEM capacity (only active when the group stages tiles).
        let capacity = u64::from(info.gpu.smem_per_smx);
        if spec.smem_bytes > 0 && spec.smem_bytes > capacity {
            diags.push(Diagnostic::error(
                diag::KF_SMEM_OVERFLOW,
                Span::group(gi),
                format!(
                    "group {gi} needs {} B of SMEM per block (padded, Eq. 7) but the SMX has {} B",
                    spec.smem_bytes, capacity
                ),
                "drop a pivot from the group or split it".to_string(),
            ));
        }
        // 1.7 — registers per thread.
        if spec.projected_regs > info.gpu.max_regs_per_thread {
            diags.push(Diagnostic::error(
                diag::KF_REG_OVERFLOW,
                Span::group(gi),
                format!(
                    "group {gi} projects {} registers/thread (Eq. 6) over the limit of {}",
                    spec.projected_regs, info.gpu.max_regs_per_thread
                ),
                "split the group to shrink its working set".to_string(),
            ));
        }
        // 1.1 — profitability against the chosen projection model.
        if let Some(model) = model {
            let projected = model.project(info, &spec);
            if g.len() >= 2 {
                let original: f64 = g.iter().map(|&k| info.meta(k).runtime_s).sum();
                if projected >= original || projected.is_nan() {
                    diags.push(Diagnostic::error(
                        diag::KF_UNPROFITABLE,
                        Span::group(gi),
                        format!(
                            "group {gi} projects {projected:.3e} s, not faster than the \
                             original sum {original:.3e} s"
                        ),
                        "leave these kernels unfused or regroup them".to_string(),
                    ));
                }
            } else if !projected.is_finite() {
                diags.push(Diagnostic::error(
                    diag::KF_UNPROFITABLE,
                    Span::group(gi),
                    format!("group {gi} has a non-finite projected runtime ({projected})"),
                    "check the kernel's metadata".to_string(),
                ));
            }
        }
    }

    /// First outside kernel sandwiched between two members, if any.
    fn path_closure_violator(&self, g: &[KernelId]) -> Option<KernelId> {
        let mut in_group = vec![0u64; self.tables.words];
        let mut downstream = vec![0u64; self.tables.words];
        for &k in g {
            in_group[k.index() / 64] |= 1 << (k.index() % 64);
            for (w, r) in downstream.iter_mut().zip(self.row(k.index())) {
                *w |= r;
            }
        }
        // Outside kernels reachable from a member, in id order: the first
        // that reaches a member back is sandwiched.
        for (wi, (&d, &m)) in downstream.iter().zip(&in_group).enumerate() {
            let mut outside = d & !m;
            while outside != 0 {
                let c = wi * 64 + outside.trailing_zeros() as usize;
                outside &= outside - 1;
                if self.row(c).iter().zip(&in_group).any(|(r, m)| r & m != 0) {
                    return Some(KernelId(c as u32));
                }
            }
        }
        None
    }

    /// Detect a cycle in the plan's group condensation (requires a valid
    /// partition). A cycle means no launch order realizes the plan.
    fn condensation_cycle(&self, plan: &FusionPlan) -> Option<Diagnostic> {
        let n = self.n_kernels();
        let m = plan.groups.len();
        let mut group_of = vec![0usize; n];
        for (gi, g) in plan.groups.iter().enumerate() {
            for &k in g {
                group_of[k.index()] = gi;
            }
        }
        let mut gsuccs: Vec<Vec<usize>> = vec![Vec::new(); m];
        for u in 0..n {
            for &v in &self.tables.succs[u] {
                let (gu, gv) = (group_of[u], group_of[v]);
                if gu != gv {
                    gsuccs[gu].push(gv);
                }
            }
        }
        let mut indeg = vec![0usize; m];
        for gs in &mut gsuccs {
            gs.sort_unstable();
            gs.dedup();
            for &v in gs.iter() {
                indeg[v] += 1;
            }
        }
        // Kahn peeling; whatever survives sits on a cycle.
        let mut queue: Vec<usize> = (0..m).filter(|&g| indeg[g] == 0).collect();
        let mut peeled = 0usize;
        while let Some(g) = queue.pop() {
            peeled += 1;
            for &v in &gsuccs[g] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if peeled == m {
            return None;
        }
        let stuck = (0..m).find(|&g| indeg[g] > 0).unwrap_or(0);
        Some(Diagnostic::error(
            diag::KF_CONDENSATION_CYCLE,
            Span::group(stuck),
            format!(
                "the plan's group condensation has a dependency cycle through group {stuck}; \
                 no launch order can realize it"
            ),
            "split one of the mutually dependent groups".to_string(),
        ))
    }

    /// The verifier's own re-derivation of the group resource synthesis
    /// (pivot selection, cascaded halos, Eq. 6 registers, Eq. 7 padded
    /// SMEM, §II-C read-only-cache demotion) — the one deliberate
    /// duplicate of `kfuse-core`'s synthesis. Field-for-field equivalence
    /// with `SynthTables::synthesize_into` is asserted by the differential
    /// tests.
    pub fn derive_spec(&self, group: &[KernelId]) -> GroupSpec {
        let info = self.info;
        let mut members = group.to_vec();
        members.sort_unstable();
        let metas: Vec<_> = members.iter().map(|&k| info.meta(k)).collect();

        // The arrays the members use, ascending and deduplicated: every
        // per-array table below is indexed by position in this list, so
        // the work scales with the group, not with the program.
        let mut ids: Vec<u32> = metas
            .iter()
            .flat_map(|m| m.uses.iter().map(|u| u.array.0))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let slot = |a: kfuse_ir::ArrayId| ids.binary_search(&a.0).expect("a member's array");

        // Per-array aggregation over the members, in member order.
        #[derive(Default, Clone, Copy)]
        struct Usage {
            /// Distinct members that read or write the array.
            touchers: u32,
            last_toucher: Option<usize>,
            first_writer: Option<usize>,
            last_reader: Option<usize>,
            thread_load: u32,
            read_radius: u8,
            pivot: bool,
            produced: bool,
            halo: u32,
        }
        let mut usage: Vec<Usage> = vec![Usage::default(); ids.len()];
        for (mi, m) in metas.iter().enumerate() {
            for u in &m.uses {
                let e = &mut usage[slot(u.array)];
                if (u.reads || u.writes) && e.last_toucher != Some(mi) {
                    e.touchers += 1;
                    e.last_toucher = Some(mi);
                }
                if u.reads {
                    e.last_reader = Some(mi);
                }
                if u.writes && e.first_writer.is_none() {
                    e.first_writer = Some(mi);
                }
                e.thread_load = e.thread_load.max(u.thread_load);
                e.read_radius = e.read_radius.max(u.read_radius);
            }
        }
        let union_arrays = ids.len() as u32;

        // Pivot selection: cross-member reuse or an already-staged array.
        // Produced: some member reads the array at or after a writer.
        for e in &mut usage {
            e.pivot = e.touchers >= 2 || e.thread_load > 1;
            e.produced = matches!((e.first_writer, e.last_reader), (Some(w), Some(r)) if r >= w);
        }

        // Cascaded halo fixpoint, swept in member order with in-place
        // updates (a member's extension sees halos raised earlier in the
        // same sweep), capped at |members| sweeps.
        for _ in 0..members.len().max(1) {
            let mut changed = false;
            for (mi, m) in metas.iter().enumerate() {
                let ext: u32 = m
                    .uses
                    .iter()
                    .filter(|u| u.writes)
                    .map(|u| &usage[slot(u.array)])
                    .filter(|e| e.pivot && e.produced)
                    .map(|e| e.halo)
                    .max()
                    .unwrap_or(0);
                for u in m.uses.iter().filter(|u| u.reads) {
                    let e = &mut usage[slot(u.array)];
                    if !e.pivot || !e.produced || e.first_writer.is_none_or(|w| w > mi) {
                        continue;
                    }
                    let need = ext + u32::from(u.read_radius);
                    if need > e.halo {
                        e.halo = need;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Staging medium and barrier placement: a member reading a produced
        // SMEM pivot after its first writer waits at a barrier.
        let smem = |e: &Usage| e.thread_load > 1 || e.halo > 0 || e.read_radius > 0;
        let mut barrier_before = vec![false; members.len()];
        for (mi, m) in metas.iter().enumerate() {
            barrier_before[mi] = m.uses.iter().filter(|u| u.reads).any(|u| {
                let e = &usage[slot(u.array)];
                e.pivot && e.produced && smem(e) && e.first_writer.is_some_and(|w| mi > w)
            });
        }
        let mut pivots: Vec<PivotSpec> = ids
            .iter()
            .zip(&usage)
            .filter(|(_, e)| e.pivot)
            .map(|(&a, e)| PivotSpec {
                array: kfuse_ir::ArrayId(a),
                halo: e.halo.min(255) as u8,
                smem: smem(e),
                produced: e.produced,
                ro_cache: false,
            })
            .collect();

        let elem = info.elem_bytes();
        let pad = |raw: u64| -> u64 {
            if raw == 0 {
                0
            } else {
                raw + raw / u64::from(info.gpu.smem_banks)
            }
        };
        let raw_smem = |pv: &[PivotSpec]| -> u64 {
            pv.iter()
                .filter(|p| p.smem)
                .map(|p| info.tile_area(u32::from(p.halo)) * elem)
                .sum()
        };
        let mut smem_bytes = pad(raw_smem(&pivots));

        // §II-C relaxation: demote clean pivots to the read-only cache,
        // largest tile first, until the SMEM demand fits.
        let mut ro_bytes = 0u64;
        if info.gpu.use_readonly_cache {
            let capacity = u64::from(info.gpu.smem_per_smx);
            let ro_capacity = u64::from(info.gpu.readonly_cache_bytes);
            let mut order: Vec<usize> = (0..pivots.len())
                .filter(|&i| pivots[i].smem && !pivots[i].produced)
                .collect();
            order.sort_by_key(|&i| std::cmp::Reverse(info.tile_area(u32::from(pivots[i].halo))));
            for i in order {
                if smem_bytes <= capacity {
                    break;
                }
                let tile = info.tile_area(u32::from(pivots[i].halo)) * elem;
                if ro_bytes + tile > ro_capacity {
                    continue;
                }
                pivots[i].smem = false;
                pivots[i].ro_cache = true;
                ro_bytes += tile;
                smem_bytes = pad(raw_smem(&pivots));
            }
        }

        let max_halo: u32 = pivots
            .iter()
            .filter(|p| p.produced)
            .map(|p| u32::from(p.halo))
            .max()
            .unwrap_or(0);
        let halo_bytes = info.halo_area(max_halo) * elem;
        let threads = u64::from(info.threads.max(1));

        // Eq. 6 register projection.
        let live = metas.iter().map(|m| m.live_regs).max().unwrap_or(0);
        let mut staging_regs = 0u32;
        for p in &pivots {
            staging_regs += 1;
            if p.smem && p.produced && p.halo > 0 {
                staging_regs += info.halo_area(u32::from(p.halo)).div_ceil(threads) as u32;
            }
        }
        let projected_regs = if members.len() == 1 {
            metas.iter().map(|m| m.regs_per_thread).max().unwrap_or(0)
        } else {
            12 + 2 * union_arrays + live + staging_regs + 2 * (members.len() as u32 - 1)
        };

        // FLOPs with redundant halo recomputation (Eq. 10 numerator).
        let mut flops: u64 = metas.iter().map(|m| m.flops).sum();
        for p in pivots.iter().filter(|p| p.produced && p.smem && p.halo > 0) {
            let ring = info.halo_area(u32::from(p.halo));
            let tile = info.tile_area(0);
            for m in &metas {
                if let Some(u) = m.use_of(p.array) {
                    if u.writes {
                        flops += u.write_flops * ring / tile.max(1);
                    }
                }
            }
        }

        let complex = barrier_before.iter().any(|&b| b);
        GroupSpec {
            members,
            pivots,
            barrier_before,
            smem_bytes,
            projected_regs,
            flops,
            halo_bytes,
            ro_bytes,
            active_threads: metas.iter().map(|m| m.active_threads).min().unwrap_or(0),
            complex,
        }
    }
}

/// One-shot convenience: build a [`PlanChecker`] and run every check.
pub fn check_plan(info: &ProgramInfo, plan: &FusionPlan, model: Option<&dyn PerfModel>) -> Report {
    PlanChecker::new(info).check(plan, model)
}

/// [`check_plan`] wrapped in a `constraint_pass` span on the given
/// observability handle (arg 0: plan groups, arg 1: diagnostics found).
pub fn check_plan_with(
    info: &ProgramInfo,
    plan: &FusionPlan,
    model: Option<&dyn PerfModel>,
    obs: kfuse_obs::ObsHandle<'_>,
) -> Report {
    let mut span = obs.span(kfuse_obs::SpanId::ConstraintPass);
    span.set_arg(0, plan.groups.len() as u64);
    let report = check_plan(info, plan, model);
    span.set_arg(1, report.diagnostics.len() as u64);
    report
}
