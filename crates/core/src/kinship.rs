//! Degree of kinship (Table II) and the kernel sharing graph.
//!
//! Two kernels have kinship 1 if they directly share a data array; kinship
//! `n-1` if a chain of `n` kernels exists in which each consecutive pair
//! shares an array; 0 (here: `None`) otherwise. Constraint (1.5) requires
//! every pair inside a new kernel to have kinship > 0 — i.e. each group
//! must lie within one connected component of the sharing graph.

use crate::depgraph::DependencyGraph;
use crate::util::{rows_bytes, vec_bytes};
use kfuse_ir::KernelId;

/// Undirected graph over kernels: adjacency = "shares at least one array".
#[derive(Debug, Clone)]
pub struct ShareGraph {
    n: usize,
    adj: Vec<Vec<u32>>,
    /// Connected-component label per kernel.
    comp: Vec<u32>,
}

impl ShareGraph {
    /// Build from the dependency graph of an `n_kernels`-kernel program.
    pub fn build(dep: &DependencyGraph, n_kernels: usize) -> Self {
        let n = n_kernels;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for a in 0..dep.classes.len() {
            let sharing = dep.sharing_set(kfuse_ir::ArrayId(a as u32));
            for i in 0..sharing.len() {
                for j in i + 1..sharing.len() {
                    adj[sharing[i].index()].push(sharing[j].0);
                    adj[sharing[j].index()].push(sharing[i].0);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }

        // The planner needs adjacency and components only; an exact
        // degree of kinship is a BFS at query time.
        let mut comp = vec![u32::MAX; n];
        let mut next_comp = 0u32;
        for s in 0..n {
            if comp[s] != u32::MAX {
                continue;
            }
            let mut stack = vec![s];
            comp[s] = next_comp;
            while let Some(u) = stack.pop() {
                for &v in &adj[u] {
                    let v = v as usize;
                    if comp[v] == u32::MAX {
                        comp[v] = next_comp;
                        stack.push(v);
                    }
                }
            }
            next_comp += 1;
        }

        ShareGraph { n, adj, comp }
    }

    /// Kernels directly sharing an array with `k`.
    pub fn neighbors(&self, k: KernelId) -> &[u32] {
        &self.adj[k.index()]
    }

    /// Heap bytes the graph owns: adjacency lists and component labels.
    pub fn heap_bytes(&self) -> usize {
        rows_bytes(&self.adj) + vec_bytes(&self.comp)
    }

    /// Degree of kinship `(a, b)°`: chain length minus one, `None` if no
    /// chain exists. `Some(0)` for a kernel with itself. A single-source
    /// BFS per query: the planner itself asks only for
    /// [`ShareGraph::component`] (constraint 1.5).
    pub fn kinship(&self, a: KernelId, b: KernelId) -> Option<u8> {
        if self.comp[a.index()] != self.comp[b.index()] {
            return None;
        }
        let (src, dst) = (a.index(), b.index());
        let mut dist = vec![u8::MAX; self.n];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            if u == dst {
                return Some(dist[u]);
            }
            for &v in &self.adj[u] {
                let v = v as usize;
                if dist[v] == u8::MAX {
                    dist[v] = dist[u].saturating_add(1);
                    queue.push_back(v);
                }
            }
        }
        None
    }

    /// Connected-component label of `k`.
    pub fn component(&self, k: KernelId) -> u32 {
        self.comp[k.index()]
    }

    /// True if every pair in `group` has kinship > 0 (constraint 1.5) —
    /// equivalently all members share one component.
    pub fn group_connected(&self, group: impl IntoIterator<Item = KernelId>) -> bool {
        let mut it = group.into_iter();
        let Some(first) = it.next() else { return true };
        let c = self.component(first);
        it.all(|k| self.component(k) == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::{Expr, Program};

    /// Fig. 3 sharing structure: A,B share array A; C,E share T and V;
    /// D,E share Q; C and D are linked only through E (kinship 2).
    fn fig3_like() -> Program {
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let [a, b_, c_, d_, mx, mn, r, t, v, w, p_, q, u] = pb.arrays([
            "A", "B", "C", "D", "Mx", "Mn", "R", "T", "V", "W", "P", "Q", "U",
        ]);
        // Kern_A: A = B+C; D = f(A)
        pb.kernel("A")
            .write(a, Expr::at(b_) + Expr::at(c_))
            .write(d_, Expr::at(a))
            .build();
        // Kern_B: Mx, Mn = f(A)
        pb.kernel("B")
            .write(mx, Expr::at(a) * Expr::lit(0.5))
            .write(mn, Expr::at(a) * Expr::lit(-0.5))
            .build();
        // Kern_C: R = f(T); W = f(V)
        pb.kernel("C")
            .write(r, Expr::at(t) + Expr::lit(1.0))
            .write(w, Expr::at(v).min(Expr::lit(0.0)))
            .build();
        // Kern_D: P = f(Q)
        pb.kernel("D")
            .write(p_, Expr::at(q) / Expr::lit(2.0))
            .build();
        // Kern_E: U = f(T, Q, V)
        pb.kernel("E")
            .write(u, Expr::at(t) + Expr::at(q) * Expr::at(v))
            .build();
        pb.build()
    }

    fn graph() -> ShareGraph {
        let p = fig3_like();
        let dep = DependencyGraph::build(&p);
        ShareGraph::build(&dep, p.kernels.len())
    }

    #[test]
    fn direct_sharing_is_kinship_one() {
        let g = graph();
        // Kern_A and Kern_B share A.
        assert_eq!(g.kinship(KernelId(0), KernelId(1)), Some(1));
        // Kern_C and Kern_E share T (and V).
        assert_eq!(g.kinship(KernelId(2), KernelId(4)), Some(1));
    }

    #[test]
    fn table2_example_kinship_c_d_is_two() {
        // The paper's Table II: (Kern_C, Kern_D)° = 2 via Kern_E.
        let g = graph();
        assert_eq!(g.kinship(KernelId(2), KernelId(3)), Some(2));
    }

    #[test]
    fn disconnected_kernels_have_no_kinship() {
        let g = graph();
        // {A,B} and {C,D,E} are separate components.
        assert_eq!(g.kinship(KernelId(0), KernelId(2)), None);
        assert_ne!(g.component(KernelId(0)), g.component(KernelId(4)));
    }

    #[test]
    fn group_connectivity_constraint() {
        let g = graph();
        assert!(g.group_connected([KernelId(2), KernelId(3), KernelId(4)]));
        assert!(g.group_connected([KernelId(0), KernelId(1)]));
        assert!(!g.group_connected([KernelId(0), KernelId(2)]));
        assert!(g.group_connected(std::iter::empty::<KernelId>()));
    }

    #[test]
    fn self_kinship_is_zero() {
        let g = graph();
        assert_eq!(g.kinship(KernelId(0), KernelId(0)), Some(0));
    }

    #[test]
    fn every_pair_has_the_degree_the_distance_matrix_held() {
        // The all-pairs matrix this graph used to precompute, written
        // out: {A,B} and {C,D,E} are the components, C–D go through E.
        const X: Option<u8> = None;
        let expected = [
            [Some(0), Some(1), X, X, X],
            [Some(1), Some(0), X, X, X],
            [X, X, Some(0), Some(2), Some(1)],
            [X, X, Some(2), Some(0), Some(1)],
            [X, X, Some(1), Some(1), Some(0)],
        ];
        let g = graph();
        for a in 0..5u32 {
            for b in 0..5u32 {
                assert_eq!(
                    g.kinship(KernelId(a), KernelId(b)),
                    expected[a as usize][b as usize],
                    "kinship({a},{b})"
                );
            }
        }
    }
}
