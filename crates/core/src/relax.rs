//! Expandable read-write relaxation (§II-B1c).
//!
//! For an array written by several kernels (e.g. `QFLX` in Fig. 1, written
//! by K_8 and again by K_12), every write *generation* except the last is
//! renamed into a fresh redundant copy and the reads belonging to that
//! generation are redirected. This removes the write-after-read and
//! write-after-write precedence constraints between generations, enlarging
//! the space of legal fusions at the cost of extra device memory — exactly
//! the trade the paper describes.
//!
//! The *last* generation keeps the original array so the program's final
//! outputs stay in place (functional equivalence with the unrelaxed program
//! is checked by integration tests).

use crate::depgraph::{DependencyGraph, TouchClass};
use kfuse_ir::{ArrayDecl, ArrayId, Program};

/// Result of the relaxation.
#[derive(Debug, Clone)]
pub struct Relaxation {
    /// The transformed program (renamed reads/writes, extra array decls).
    pub program: Program,
    /// Number of redundant copies added (the capacity cost).
    pub copies_added: usize,
}

/// Apply the expandable-array relaxation to `p`.
///
/// Kernels that read *and* write the same expandable array (accumulation)
/// keep the read bound to the previous generation.
pub fn relax_expandable(p: &Program) -> Relaxation {
    let mut program = p.clone();
    let copies_added = relax_in_place(&mut program);
    Relaxation {
        program,
        copies_added,
    }
}

/// [`relax_expandable`] on a program the caller owns; returns the number
/// of redundant copies added.
///
/// Two steps, each linear in the program. First every generation of
/// every expandable array is named: copies are appended to the array
/// table in array order, so their ids do not depend on the kernels.
/// Then one walk over the kernels in invocation order renames loads,
/// staging entries and targets in place, against a table holding, per
/// array, the name its current generation goes by. Arrays do not
/// interact — a copy's id is fresh, so no rename produces an id another
/// array's renames look for — which is why one walk with a table equals
/// one walk per array.
pub(crate) fn relax_in_place(p: &mut Program) -> usize {
    let dep = DependencyGraph::build(p);
    let n_arrays = p.arrays.len();

    // names[first[a]..first[a + 1]]: the ids carrying generations 0..n-2
    // of array `a` (fresh copies; the last generation keeps `a`). Empty
    // for an array that is not relaxed.
    let mut names: Vec<ArrayId> = Vec::new();
    let mut first: Vec<u32> = Vec::with_capacity(n_arrays + 1);
    for a_idx in 0..n_arrays {
        first.push(names.len() as u32);
        let writers = dep.writers[a_idx].len();
        if dep.classes[a_idx] != TouchClass::ExpandableReadWrite || writers < 2 {
            continue;
        }
        let array = ArrayId(a_idx as u32);
        for g in 0..writers - 1 {
            let id = ArrayId(p.arrays.len() as u32);
            p.arrays.push(ArrayDecl {
                id,
                name: format!("{}__r{}", p.arrays[a_idx].name, g + 1),
                redundant_copy_of: Some(array),
            });
            names.push(id);
        }
    }
    first.push(names.len() as u32);
    let copies_added = names.len();

    // Per original array: the name reads resolve to (the array itself
    // before its first write — initial input data lives there; the
    // remaining WAR edge against the final writer is kept by the
    // order-of-execution graph) and the number of generations written.
    let mut read_name: Vec<ArrayId> = (0..n_arrays as u32).map(ArrayId).collect();
    let mut written: Vec<u32> = vec![0; n_arrays];
    // Arrays whose generation this kernel advanced, and to which name.
    let mut advanced: Vec<(ArrayId, ArrayId)> = Vec::new();

    for k in &mut p.kernels {
        if copies_added > 0 {
            // Reads use the generation *before* this kernel's write, and
            // staging directives follow the reads they serve.
            for st in k.segments.iter_mut().flat_map(|s| &mut s.statements) {
                st.expr
                    .for_each_array_mut(&mut |x| *x = read_name[x.index()]);
            }
            for st in &mut k.staging {
                if let Some(&name) = read_name.get(st.array.index()) {
                    st.array = name;
                }
            }
            advanced.clear();
            for st in k.segments.iter_mut().flat_map(|s| &mut s.statements) {
                let a = st.target.index();
                let (lo, hi) = (first[a] as usize, first[a + 1] as usize);
                if lo == hi {
                    continue;
                }
                let seen = advanced.iter().find(|(array, _)| *array == st.target);
                st.target = match seen {
                    Some(&(_, name)) => name,
                    None => {
                        // This kernel writes the next generation; the
                        // last one keeps the array's own name.
                        let g = lo + written[a] as usize;
                        written[a] += 1;
                        let name = if g < hi { names[g] } else { st.target };
                        advanced.push((st.target, name));
                        name
                    }
                };
            }
            for &(array, name) in &advanced {
                read_name[array.index()] = name;
            }
        }

        // Renaming may alias two staging entries onto one array;
        // deduplicate keeping the widest halo (SMEM wins over register).
        // The entries come out in array order, renamed or not.
        if k.staging.len() > 1 {
            let mut dedup: std::collections::BTreeMap<ArrayId, kfuse_ir::Staging> =
                std::collections::BTreeMap::new();
            for st in &k.staging {
                dedup
                    .entry(st.array)
                    .and_modify(|e| {
                        e.halo = e.halo.max(st.halo);
                        if st.medium == kfuse_ir::StagingMedium::Smem {
                            e.medium = kfuse_ir::StagingMedium::Smem;
                        }
                    })
                    .or_insert(*st);
            }
            k.staging = dedup.into_values().collect();
        }
    }
    copies_added
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::{Expr, KernelId};

    /// The QFLX pattern from Fig. 1: K8 writes, K10 reads, K12 writes,
    /// K14 reads.
    fn qflx_program() -> Program {
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let a = pb.array("A");
        let qflx = pb.array("QFLX");
        let out1 = pb.array("OUT1");
        let out2 = pb.array("OUT2");
        pb.kernel("K8")
            .write(qflx, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("K10").write(out1, Expr::at(qflx)).build();
        pb.kernel("K12")
            .write(qflx, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("K14").write(out2, Expr::at(qflx)).build();
        pb.build()
    }

    #[test]
    fn qflx_generations_are_renamed() {
        let p = qflx_program();
        let r = relax_expandable(&p);
        assert_eq!(r.copies_added, 1);
        let q = ArrayId(1);
        let copy = ArrayId(4);
        assert_eq!(r.program.array(copy).redundant_copy_of, Some(q));

        // K8 now writes the copy, K10 reads it.
        let k8 = &r.program.kernels[0];
        assert_eq!(k8.writes(), vec![copy]);
        let k10 = &r.program.kernels[1];
        assert!(k10.reads().contains_key(&copy));
        assert!(!k10.reads().contains_key(&q));

        // K12 keeps the original array; K14 reads it.
        let k12 = &r.program.kernels[2];
        assert_eq!(k12.writes(), vec![q]);
        let k14 = &r.program.kernels[3];
        assert!(k14.reads().contains_key(&q));
    }

    #[test]
    fn relaxation_removes_cross_generation_precedence() {
        let p = qflx_program();
        let r = relax_expandable(&p);
        let dep = DependencyGraph::build(&r.program);
        // Original array QFLX now has a single writer (last generation):
        // it is plain ReadWrite, not Expandable.
        assert_eq!(dep.class(ArrayId(1)), TouchClass::ReadWrite);
        assert_eq!(dep.class(ArrayId(4)), TouchClass::ReadWrite);
        // K10 no longer shares QFLX with K12/K14.
        let sharing_q = dep.sharing_set(ArrayId(1));
        assert!(!sharing_q.contains(&KernelId(1)));
    }

    #[test]
    fn non_expandable_arrays_untouched() {
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let a = pb.array("A");
        let b = pb.array("B");
        pb.kernel("k0").write(b, Expr::at(a)).build();
        pb.kernel("k1")
            .write(b, Expr::at(b) + Expr::lit(1.0))
            .build();
        // B is written twice but k1 also reads it: still expandable by
        // class; accumulation reads previous generation.
        let p = pb.build();
        let r = relax_expandable(&p);
        assert_eq!(r.copies_added, 1);
        // k1 reads generation 1 (the copy written by k0), writes original.
        let k1 = &r.program.kernels[1];
        assert!(k1.reads().contains_key(&ArrayId(2)));
        assert_eq!(k1.writes(), vec![b]);
    }

    #[test]
    fn program_without_expandable_arrays_is_identity() {
        let mut pb = ProgramBuilder::new("p", [32, 8, 2]);
        let a = pb.array("A");
        let b = pb.array("B");
        pb.kernel("k0").write(b, Expr::at(a)).build();
        let p = pb.build();
        let r = relax_expandable(&p);
        assert_eq!(r.copies_added, 0);
        assert_eq!(r.program, p);
    }

    #[test]
    fn relaxed_program_validates() {
        let r = relax_expandable(&qflx_program());
        assert!(r.program.validate().is_ok());
    }
}
