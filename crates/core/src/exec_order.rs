//! Order-of-execution graph (§II-B2).
//!
//! A DAG over kernels whose edges are the precedence constraints a fusion
//! must not violate: read-after-write (true dependence), write-after-read
//! (anti) and write-after-write (output) hazards over shared arrays.
//! Applied after the expandable-array relaxation, most anti/output hazards
//! on expandable arrays have been renamed away, which is exactly how the
//! paper enlarges the feasible fusion space.
//!
//! The graph carries its transitive closure as bitsets so the path-closure
//! constraint (1.3) can be checked in O(n·|F|/64) per candidate group —
//! the HGGA evaluates millions of groups.

use crate::util::{rows_bytes, vec_bytes, BitSet};
use kfuse_ir::{KernelId, Program};

/// The order-of-execution DAG with reachability.
#[derive(Debug, Clone)]
pub struct ExecOrderGraph {
    n: usize,
    /// Direct predecessor lists (edges u → v stored at `preds[v]`).
    pub preds: Vec<Vec<KernelId>>,
    /// Direct successor lists.
    pub succs: Vec<Vec<KernelId>>,
    /// `reach[u]` = all v with a path u → v (excluding u).
    reach: Vec<BitSet>,
}

/// Epoch-stamped "already emitted" marks for
/// [`ExecOrderGraph::group_succs_into`], held in the caller's scratch so
/// deduplicating a successor summary costs one compare per edge instead
/// of a sort. One per thread; reused across calls without clearing.
#[derive(Debug, Clone, Default)]
pub struct SuccStamps {
    epoch: u32,
    /// `stamp[g] == epoch` iff group `g` was seen in the current call.
    stamp: Vec<u32>,
}

impl SuccStamps {
    /// Start a new summary: every group becomes unseen.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The epoch wrapped: stale stamps could alias it.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark group `g`; true the first time it is marked since `begin`.
    fn first_visit(&mut self, g: u32) -> bool {
        let g = g as usize;
        if g >= self.stamp.len() {
            self.stamp.resize(g + 1, 0);
        }
        let fresh = self.stamp[g] != self.epoch;
        self.stamp[g] = self.epoch;
        fresh
    }
}

impl ExecOrderGraph {
    /// Build from a program (ideally post-relaxation).
    ///
    /// Kernel invocation order is the id order; every hazard edge points
    /// forward in that order, so the result is a DAG by construction.
    pub fn build(p: &Program) -> Self {
        let n = p.kernels.len();
        let n_arrays = p.arrays.len();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];

        // Per-array last writer / readers-since-last-write, swept in order.
        let mut last_writer: Vec<Option<usize>> = vec![None; n_arrays];
        let mut readers_since: Vec<Vec<usize>> = vec![Vec::new(); n_arrays];

        for (ki, k) in p.kernels.iter().enumerate() {
            let reads: Vec<usize> = k.reads().keys().map(|a| a.index()).collect();
            let writes: Vec<usize> = k.writes().iter().map(|a| a.index()).collect();

            for &a in &reads {
                // RAW: reader depends on the last writer.
                if let Some(w) = last_writer[a] {
                    if w != ki {
                        edges[w].push(ki);
                    }
                }
                readers_since[a].push(ki);
            }
            for &a in &writes {
                // WAW: writer depends on the previous writer.
                if let Some(w) = last_writer[a] {
                    if w != ki {
                        edges[w].push(ki);
                    }
                }
                // WAR: writer depends on readers of the previous value.
                for &r in &readers_since[a] {
                    if r != ki {
                        edges[r].push(ki);
                    }
                }
                last_writer[a] = Some(ki);
                readers_since[a].clear();
            }
        }

        // Host sync points totally order the epochs they separate.
        let epochs = p.epochs();
        if let Some(&max_e) = epochs.iter().max() {
            for e in 0..max_e {
                let cur: Vec<usize> = (0..n).filter(|&k| epochs[k] == e).collect();
                let next: Vec<usize> = (0..n).filter(|&k| epochs[k] == e + 1).collect();
                for &u in &cur {
                    for &v in &next {
                        edges[u].push(v);
                    }
                }
            }
        }

        for e in &mut edges {
            e.sort_unstable();
            e.dedup();
        }

        // Transitive closure, processing in reverse id order (ids are a
        // topological order since all edges point forward).
        let mut reach: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for u in (0..n).rev() {
            // Clone to appease the borrow checker; successor sets are
            // already final because successors have larger ids.
            let mut r = BitSet::new(n);
            for &v in &edges[u] {
                r.insert(v);
                r.union_with(&reach[v]);
            }
            reach[u] = r;
        }

        let mut preds: Vec<Vec<KernelId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<KernelId>> = vec![Vec::new(); n];
        for (u, es) in edges.iter().enumerate() {
            for &v in es {
                succs[u].push(KernelId(v as u32));
                preds[v].push(KernelId(u as u32));
            }
        }

        ExecOrderGraph {
            n,
            preds,
            succs,
            reach,
        }
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no kernels.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True if a path `a → b` exists.
    pub fn reaches(&self, a: KernelId, b: KernelId) -> bool {
        self.reach[a.index()].contains(b.index())
    }

    /// Heap bytes the graph owns: edge lists and closure rows.
    pub fn heap_bytes(&self) -> usize {
        rows_bytes(&self.preds)
            + rows_bytes(&self.succs)
            + vec_bytes(&self.reach)
            + self.reach.iter().map(BitSet::heap_bytes).sum::<usize>()
    }

    /// Summarize the inter-group edges leaving one group: collect into
    /// `out` the distinct groups (per the `group_of` map) that the direct
    /// successors of `members` fall into, excluding the group `own`
    /// itself. This is the per-group building block of the
    /// plan-condensation DAG that [`crate::fuse::condensation_order_with`]
    /// orders.
    ///
    /// The list is deduplicated through `seen` but **not sorted**: it
    /// comes out in first-encounter order over `members`. Kahn's pass only
    /// counts in-degrees and keys its ready heap by the group itself, so
    /// it never observes successor order; a caller that does (the
    /// hierarchical solver's cycle search) sorts its own copy.
    pub fn group_succs_into(
        &self,
        members: &[KernelId],
        group_of: &[u32],
        own: u32,
        seen: &mut SuccStamps,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        seen.begin();
        // Stamping `own` first folds the self-edge test into the dedup.
        seen.first_visit(own);
        for &k in members {
            for &s in &self.succs[k.index()] {
                let g = group_of[s.index()];
                debug_assert_ne!(g, u32::MAX, "group map does not cover kernel {s}");
                if seen.first_visit(g) {
                    out.push(g);
                }
            }
        }
    }

    /// Check the path-closure constraint (1.3) for a candidate group: for
    /// every kernel `c` outside the group, `c` must not lie strictly
    /// between two group members (some member reaches `c` and `c` reaches
    /// some member). Returns the first violating kernel, if any.
    /// `from_group` is caller-owned scratch, reset (and only on first use
    /// resized) to this graph's kernel count.
    pub fn path_closure_violation_with(
        &self,
        group: &BitSet,
        from_group: &mut BitSet,
    ) -> Option<KernelId> {
        // reaches_from_group[c] = some member reaches c
        from_group.reset(self.n);
        for m in group.iter() {
            from_group.union_with(&self.reach[m]);
        }
        for c in from_group.iter() {
            if group.contains(c) {
                continue;
            }
            // Does c reach back into the group?
            if self.reach[c].intersects(group) {
                return Some(KernelId(c as u32));
            }
        }
        None
    }

    /// True if `a` and `b` are order-independent (no path either way).
    pub fn independent(&self, a: KernelId, b: KernelId) -> bool {
        !self.reaches(a, b) && !self.reaches(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::Expr;

    /// k0 → k1 → k3 (RAW chain), k2 independent.
    fn chain_program() -> Program {
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        let d = pb.array("D");
        let e = pb.array("E");
        let x = pb.array("X");
        pb.kernel("k0").write(b, Expr::at(a)).build(); // B = A
        pb.kernel("k1").write(c, Expr::at(b)).build(); // C = B
        pb.kernel("k2").write(x, Expr::at(e)).build(); // X = E (indep)
        pb.kernel("k3").write(d, Expr::at(c)).build(); // D = C
        pb.build()
    }

    #[test]
    fn raw_edges_and_reachability() {
        let g = ExecOrderGraph::build(&chain_program());
        assert!(g.reaches(KernelId(0), KernelId(1)));
        assert!(g.reaches(KernelId(1), KernelId(3)));
        assert!(g.reaches(KernelId(0), KernelId(3))); // transitive
        assert!(!g.reaches(KernelId(3), KernelId(0)));
        assert!(g.independent(KernelId(2), KernelId(0)));
        assert!(g.independent(KernelId(2), KernelId(3)));
    }

    #[test]
    fn war_and_waw_edges() {
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let a = pb.array("A");
        let b = pb.array("B");
        let c = pb.array("C");
        pb.kernel("k0").write(c, Expr::at(b)).build(); // reads B
        pb.kernel("k1").write(b, Expr::at(a)).build(); // writes B: WAR k0→k1
        pb.kernel("k2")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build(); // WAW k1→k2
        let g = ExecOrderGraph::build(&pb.build());
        assert!(g.reaches(KernelId(0), KernelId(1)), "WAR edge");
        assert!(g.reaches(KernelId(1), KernelId(2)), "WAW edge");
    }

    #[test]
    fn path_closure_detects_sandwiched_kernel() {
        let g = ExecOrderGraph::build(&chain_program());
        // Group {k0, k3} leaves k1 strictly between them.
        let mut grp = BitSet::new(4);
        grp.insert(0);
        grp.insert(3);
        let mut reach = BitSet::default();
        assert_eq!(
            g.path_closure_violation_with(&grp, &mut reach),
            Some(KernelId(1))
        );

        // Group {k0, k1, k3} is closed.
        grp.insert(1);
        assert_eq!(g.path_closure_violation_with(&grp, &mut reach), None);

        // Group {k0, k2} has no internal ordering at all.
        let mut grp2 = BitSet::new(4);
        grp2.insert(0);
        grp2.insert(2);
        assert_eq!(g.path_closure_violation_with(&grp2, &mut reach), None);
    }

    #[test]
    fn relaxation_enlarges_feasible_space() {
        // QFLX pattern: without relaxation K10 must precede K12 (WAR);
        // after relaxation they are independent.
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let a = pb.array("A");
        let q = pb.array("QFLX");
        let o1 = pb.array("O1");
        let o2 = pb.array("O2");
        pb.kernel("K8").write(q, Expr::at(a)).build();
        pb.kernel("K10").write(o1, Expr::at(q)).build();
        pb.kernel("K12")
            .write(q, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("K14").write(o2, Expr::at(q)).build();
        let p = pb.build();

        let before = ExecOrderGraph::build(&p);
        assert!(before.reaches(KernelId(1), KernelId(2)), "WAR before relax");

        let relaxed = crate::relax::relax_expandable(&p).program;
        let after = ExecOrderGraph::build(&relaxed);
        assert!(
            after.independent(KernelId(1), KernelId(2)),
            "relaxation must remove the K10→K12 precedence"
        );
        // True dependencies survive.
        assert!(after.reaches(KernelId(0), KernelId(1)));
        assert!(after.reaches(KernelId(2), KernelId(3)));
    }
}
