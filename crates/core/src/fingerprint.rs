//! Order-insensitive program fingerprinting for cross-solve plan reuse.
//!
//! The evaluation memo already content-addresses *groups* by an
//! order-insensitive fingerprint; this module lifts the same idea to whole
//! programs so a persistent plan cache can serve repeat solves (the
//! runtime-fusion regime of Kristensen et al.). Two programs
//! that differ only in kernel invocation order or array naming/numbering
//! must collide, while a change to any constraint-relevant quantity —
//! launch geometry, per-array touch facts, epochs, streams, the device —
//! must produce a different fingerprint.
//!
//! The construction is a bounded Weisfeiler–Leman style refinement over
//! the bipartite kernel/array touch graph of [`ProgramInfo`]:
//!
//! 1. every kernel gets a **local signature** ([`kernel_signatures`])
//!    hashing its launch facts, capacity facts, epoch/stream placement and
//!    the *multiset* of its per-array usage facts — no kernel or array ids
//!    enter the hash, so renumbering cannot change it;
//! 2. [`kernel_colors`] refines those signatures through the arrays: each
//!    array is colored by the commutative sum of its touchers' colors
//!    (keyed by how each toucher uses it), and each kernel re-mixes the
//!    colors of the arrays it touches. Two rounds bind the dependency
//!    structure — producer/consumer chains, shared inputs — into the
//!    per-kernel colors while staying permutation-invariant;
//! 3. [`program_fingerprint`] combines the color multiset with the global
//!    launch/device facts.
//!
//! Fingerprints are advisory — cache consumers re-validate any served
//! plan through the independent verifier, so a collision is
//! correctness-neutral (exactly like the group memo, which compares full
//! member lists on a fingerprint match).

use crate::metadata::{ArrayUse, ProgramInfo};

/// splitmix64 finalizer — the same mixer the evaluation memo uses, kept
/// local so `kfuse-core` does not depend on `kfuse-search`.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold `v` into a running hash (order-sensitive chain).
fn fold(acc: u64, v: u64) -> u64 {
    mix64(acc ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Hash a string by folding its bytes (device names, precision tags).
fn str_hash(s: &str) -> u64 {
    s.as_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |acc, &b| fold(acc, b as u64))
}

/// Usage-fact hash of one [`ArrayUse`], deliberately excluding the array
/// id: every constraint-relevant per-array quantity (Table III) enters,
/// so a changed radius, intent, or traffic count changes the signature,
/// but renumbering the array does not.
fn use_sig(u: &ArrayUse) -> u64 {
    let mut h = 0x517c_c1b7_2722_0a95;
    h = fold(h, u.thread_load as u64);
    h = fold(h, u.flops);
    h = fold(h, u.write_flops);
    h = fold(h, u.read_radius as u64);
    h = fold(h, (u.reads as u64) << 1 | u.writes as u64);
    h = fold(h, u.load_elems);
    h = fold(h, u.store_elems);
    h
}

/// Per-kernel **local** signatures: launch + capacity + placement facts
/// and the multiset of usage facts, independent of kernel/array numbering
/// and of the rest of the program. Stable under small perturbations
/// elsewhere in the program: a 10%-perturbed program keeps 90% of its
/// local signatures bit-identical.
pub fn kernel_signatures(info: &ProgramInfo) -> Vec<u64> {
    info.kernels
        .iter()
        .enumerate()
        .map(|(ki, m)| {
            let mut h = 0x2545_f491_4f6c_dd1d;
            h = fold(h, m.threads as u64);
            h = fold(h, m.blocks as u64);
            h = fold(h, m.blocks_smx as u64);
            h = fold(h, m.regs_per_thread as u64);
            h = fold(h, m.regs_addr as u64);
            h = fold(h, m.live_regs as u64);
            h = fold(h, m.flops);
            h = fold(h, m.halo_bytes);
            h = fold(h, m.runtime_s.to_bits());
            h = fold(h, m.traffic_elems);
            h = fold(h, info.epochs[ki] as u64);
            h = fold(h, info.streams[ki] as u64);
            // Usage multiset: commutative sum, length-aware (the group-memo
            // fingerprint idiom).
            let uses: u64 = (m.uses.len() as u64)
                .wrapping_mul(0xa076_1d64_78bd_642f)
                .wrapping_add(
                    m.uses
                        .iter()
                        .map(|u| mix64(use_sig(u)))
                        .fold(0, u64::wrapping_add),
                );
            fold(h, uses)
        })
        .collect()
}

/// Refine the local signatures through the kernel/array touch graph
/// (two Weisfeiler–Leman rounds), yielding per-kernel colors that encode
/// each kernel's dependency neighborhood but not its numbering.
pub fn kernel_colors(info: &ProgramInfo) -> Vec<u64> {
    refine(info, kernel_signatures(info))
}

/// The refinement of [`kernel_colors`] over precomputed local signatures.
fn refine(info: &ProgramInfo, mut colors: Vec<u64>) -> Vec<u64> {
    for _round in 0..2 {
        // Array colors: length-aware commutative sum over touchers, each
        // keyed by how that kernel uses the array.
        let mut acolor: Vec<u64> = vec![0; info.n_arrays];
        let mut adeg: Vec<u64> = vec![0; info.n_arrays];
        for (ki, m) in info.kernels.iter().enumerate() {
            for u in &m.uses {
                acolor[u.array.index()] =
                    acolor[u.array.index()].wrapping_add(mix64(colors[ki] ^ use_sig(u)));
                adeg[u.array.index()] += 1;
            }
        }
        for (c, d) in acolor.iter_mut().zip(&adeg) {
            *c = c.wrapping_add(d.wrapping_mul(0xa076_1d64_78bd_642f));
        }
        // Kernel refinement: re-mix each kernel with the colors of the
        // arrays it touches (again commutatively over its uses).
        for (ki, m) in info.kernels.iter().enumerate() {
            let neigh: u64 = m
                .uses
                .iter()
                .map(|u| mix64(acolor[u.array.index()] ^ use_sig(u)))
                .fold(0, u64::wrapping_add);
            colors[ki] = fold(colors[ki], neigh);
        }
    }
    colors
}

/// The order-insensitive program fingerprint: global launch/device facts
/// chained with the length-aware commutative sum of the kernel colors.
pub fn program_fingerprint(info: &ProgramInfo) -> u64 {
    let colors = kernel_colors(info);
    program_fingerprint_with(info, &colors)
}

/// [`program_fingerprint`] from precomputed colors (avoids re-running the
/// refinement when the caller also needs per-kernel or region hashes).
pub fn program_fingerprint_with(info: &ProgramInfo, colors: &[u64]) -> u64 {
    let mut h = 0x9e6c_63d0_876a_46ad;
    h = fold(h, str_hash(&info.gpu.name));
    h = fold(h, str_hash(&format!("{:?}", info.precision)));
    h = fold(h, info.block_x as u64);
    h = fold(h, info.block_y as u64);
    h = fold(h, info.threads as u64);
    h = fold(h, info.blocks as u64);
    h = fold(h, info.nz as u64);
    h = fold(h, info.sites);
    h = fold(h, info.n_arrays as u64);
    h = fold(h, info.kernels.len() as u64);
    let kernels: u64 = (colors.len() as u64)
        .wrapping_mul(0xa076_1d64_78bd_642f)
        .wrapping_add(colors.iter().map(|&c| mix64(c)).fold(0, u64::wrapping_add));
    fold(h, kernels)
}

/// What a plan cache keys a program by: the per-kernel local signatures
/// (near-match overlap, remapping) and the whole-program fingerprint.
/// One computation yields both — the colors are refined from the
/// signatures — and [`crate::plan::PlanContext::identity`] keeps it, so
/// a request computes it once however many layers ask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramIdentity {
    /// [`kernel_signatures`].
    pub signatures: Vec<u64>,
    /// [`program_fingerprint`].
    pub fingerprint: u64,
}

impl ProgramIdentity {
    /// Signatures and fingerprint of `info`.
    pub fn of(info: &ProgramInfo) -> Self {
        let signatures = kernel_signatures(info);
        let colors = refine(info, signatures.clone());
        ProgramIdentity {
            fingerprint: program_fingerprint_with(info, &colors),
            signatures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::stencil::Offset;
    use kfuse_ir::{ArrayId, Expr, Kernel, KernelId, Program, Segment, Statement};
    use proptest::prelude::*;

    fn info_of(p: &Program) -> ProgramInfo {
        ProgramInfo::extract(p, &GpuSpec::k20x(), FpPrecision::Double)
    }

    /// A chain + fan-out program with stencil reads.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p", [128, 64, 4]);
        let a = pb.array("A");
        let [b, c, d, e] = pb.arrays(["B", "C", "D", "E"]);
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::load(a, Offset::new(1, 0, 0)))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(b) * Expr::lit(2.0))
            .build();
        pb.kernel("k2").write(d, Expr::at(b) + Expr::at(a)).build();
        pb.kernel("k3").write(e, Expr::at(c) - Expr::at(d)).build();
        pb.build()
    }

    /// Rename every array by permuting declaration order (remapping all
    /// references), preserving semantics exactly.
    fn permute_arrays(p: &Program, perm: &[usize]) -> Program {
        // perm[old] = new id.
        let map = |a: ArrayId| ArrayId(perm[a.index()] as u32);
        let mut arrays = vec![None; p.arrays.len()];
        for d in &p.arrays {
            let nd = kfuse_ir::ArrayDecl {
                id: map(d.id),
                name: format!("r{}", perm[d.id.index()]),
                redundant_copy_of: d.redundant_copy_of.map(map),
            };
            let slot = nd.id.index();
            arrays[slot] = Some(nd);
        }
        let kernels = p
            .kernels
            .iter()
            .map(|k| Kernel {
                id: k.id,
                name: k.name.clone(),
                segments: k
                    .segments
                    .iter()
                    .map(|s| Segment {
                        source: s.source,
                        barrier_before: s.barrier_before,
                        statements: s
                            .statements
                            .iter()
                            .map(|st| Statement {
                                target: map(st.target),
                                expr: st.expr.map_arrays(&map),
                            })
                            .collect(),
                    })
                    .collect(),
                staging: k
                    .staging
                    .iter()
                    .map(|s| kfuse_ir::kernel::Staging {
                        array: map(s.array),
                        halo: s.halo,
                        medium: s.medium,
                    })
                    .collect(),
            })
            .collect();
        Program {
            name: p.name.clone(),
            grid: p.grid,
            launch: p.launch,
            arrays: arrays.into_iter().map(Option::unwrap).collect(),
            kernels,
            host_syncs: p.host_syncs.clone(),
            streams: p.streams.clone(),
        }
    }

    /// Reorder kernels of a program whose kernels are mutually independent
    /// (safe to permute without changing semantics), renumbering ids.
    fn permute_kernels(p: &Program, perm: &[usize]) -> Program {
        let mut kernels: Vec<Kernel> = vec![
            Kernel {
                id: KernelId(0),
                name: String::new(),
                segments: Vec::new(),
                staging: Vec::new(),
            };
            p.kernels.len()
        ];
        for (old, k) in p.kernels.iter().enumerate() {
            let ni = perm[old];
            let mut nk = k.clone();
            nk.id = KernelId(ni as u32);
            for s in &mut nk.segments {
                s.source = KernelId(ni as u32);
            }
            kernels[ni] = nk;
        }
        let mut streams = vec![0u32; p.kernels.len()];
        for (old, &s) in p.streams.iter().enumerate() {
            streams[perm[old]] = s;
        }
        Program {
            name: p.name.clone(),
            grid: p.grid,
            launch: p.launch,
            arrays: p.arrays.clone(),
            kernels,
            host_syncs: p.host_syncs.clone(),
            streams,
        }
    }

    /// Independent producers from one shared input: any kernel order is
    /// semantically identical.
    fn independent_program(n: usize) -> Program {
        let mut pb = ProgramBuilder::new("ind", [128, 64, 4]);
        let a = pb.array("A");
        for i in 0..n {
            let out = pb.array(format!("O{i}"));
            pb.kernel(format!("k{i}"))
                .write(
                    out,
                    Expr::at(a) * Expr::lit(1.0 + i as f64)
                        + Expr::load(a, Offset::new((i % 3) as i8, 0, 0)),
                )
                .build();
        }
        pb.build()
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let p = program();
        assert_eq!(
            program_fingerprint(&info_of(&p)),
            program_fingerprint(&info_of(&p))
        );
    }

    #[test]
    fn array_renaming_is_invisible() {
        let p = program();
        let q = permute_arrays(&p, &[4, 2, 0, 3, 1]);
        assert!(q.validate().is_ok());
        assert_eq!(
            program_fingerprint(&info_of(&p)),
            program_fingerprint(&info_of(&q))
        );
    }

    #[test]
    fn kernel_reordering_is_invisible() {
        let p = independent_program(6);
        let q = permute_kernels(&p, &[3, 0, 5, 1, 4, 2]);
        assert!(q.validate().is_ok());
        assert_eq!(
            program_fingerprint(&info_of(&p)),
            program_fingerprint(&info_of(&q))
        );
    }

    #[test]
    fn constraint_relevant_changes_are_visible() {
        let base = program_fingerprint(&info_of(&program()));

        // Wider grid.
        let mut pb = program();
        pb.grid.nz = 8;
        assert_ne!(base, program_fingerprint(&info_of(&pb)), "grid change");

        // Extra FLOP in one kernel (changes flops + runtime).
        let mut pf = program();
        let st = &mut pf.kernels[1].segments[0].statements[0];
        st.expr = st.expr.clone() + Expr::lit(1.0);
        assert_ne!(base, program_fingerprint(&info_of(&pf)), "flop change");

        // A host sync splits the epochs.
        let mut pe = program();
        pe.host_syncs = vec![2];
        assert_ne!(base, program_fingerprint(&info_of(&pe)), "epoch change");

        // Stream placement.
        let mut ps = program();
        ps.streams = vec![0, 0, 1, 0];
        assert_ne!(base, program_fingerprint(&info_of(&ps)), "stream change");

        // Different device.
        let info = ProgramInfo::extract(&program(), &GpuSpec::k40(), FpPrecision::Double);
        assert_ne!(base, program_fingerprint(&info), "gpu change");

        // Different precision.
        let info = ProgramInfo::extract(&program(), &GpuSpec::k20x(), FpPrecision::Single);
        assert_ne!(base, program_fingerprint(&info), "precision change");
    }

    #[test]
    fn dependency_structure_is_visible() {
        // Same kernels, but k3 reads C,D vs C,A: local sigs of k0..k2 are
        // unchanged, so only the refinement can tell the two apart — and
        // the changed use set of k3 itself. Rewire a *middle* kernel's
        // consumer instead to exercise the neighborhood binding: two
        // programs where k1 reads B vs reads A (same shape/flops).
        let mut pb = ProgramBuilder::new("p1", [128, 64, 4]);
        let a = pb.array("A");
        let [b, c] = pb.arrays(["B", "C"]);
        pb.kernel("k0").write(b, Expr::at(a)).build();
        pb.kernel("k1").write(c, Expr::at(b)).build();
        let chain = pb.build();

        let mut pb = ProgramBuilder::new("p2", [128, 64, 4]);
        let a = pb.array("A");
        let [b, c] = pb.arrays(["B", "C"]);
        pb.kernel("k0").write(b, Expr::at(a)).build();
        pb.kernel("k1").write(c, Expr::at(a)).build();
        let fan = pb.build();

        assert_ne!(
            program_fingerprint(&info_of(&chain)),
            program_fingerprint(&info_of(&fan)),
            "chain vs fan-out must differ"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Fingerprints are invariant under random kernel reorderings and
        /// array renamings of an independent-kernel program.
        #[test]
        fn invariant_under_renumbering(
            n in 3usize..8,
            kseed in 0u64..1000,
            aseed in 0u64..1000,
        ) {
            let p = independent_program(n);
            let base = program_fingerprint(&info_of(&p));

            // Deterministic pseudo-random permutations from the seeds.
            let mut kperm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                kperm.swap(i, (mix64(kseed.wrapping_add(i as u64)) as usize) % (i + 1));
            }
            let n_arrays = p.arrays.len();
            let mut aperm: Vec<usize> = (0..n_arrays).collect();
            for i in (1..n_arrays).rev() {
                aperm.swap(i, (mix64(aseed.wrapping_add(i as u64)) as usize) % (i + 1));
            }

            let q = permute_arrays(&permute_kernels(&p, &kperm), &aperm);
            prop_assert!(q.validate().is_ok());
            prop_assert_eq!(base, program_fingerprint(&info_of(&q)));
        }

        /// Perturbing one kernel's arithmetic changes the fingerprint but
        /// leaves every other kernel's local signature bit-identical.
        #[test]
        fn perturbation_is_local_to_the_touched_kernel(
            n in 4usize..8,
            victim in 0usize..4,
        ) {
            let p = independent_program(n);
            let mut q = p.clone();
            let st = &mut q.kernels[victim].segments[0].statements[0];
            st.expr = st.expr.clone() + Expr::lit(7.0);

            let (si, sq) = (
                kernel_signatures(&info_of(&p)),
                kernel_signatures(&info_of(&q)),
            );
            prop_assert_ne!(
                program_fingerprint(&info_of(&p)),
                program_fingerprint(&info_of(&q))
            );
            prop_assert_ne!(si[victim], sq[victim]);
            for i in 0..n {
                if i != victim {
                    prop_assert_eq!(si[i], sq[i]);
                }
            }
        }
    }
}
