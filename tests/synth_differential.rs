//! Differential testing of group synthesis: `kfuse-core`'s one synthesis
//! sweep (`synthesize_batch`, a lane materialized by `lane_spec`) against
//! the one deliberate duplicate, the independent verifier's re-derivation
//! (`PlanChecker::derive_spec`), on all ten `GroupSpec` fields — plus
//! bitwise agreement of every performance model's `project` (over the
//! verifier's spec) and `project_batch` (over the core's lanes), with the
//! group alone in its batch (fill 1) and in lane 7 of a full one.
//!
//! Groups are sampled with no feasibility filter, so the sweep covers
//! degenerate shapes (singletons, disconnected members, capacity
//! violations) as well as profitable fusions, across all three GPU specs.

use kernel_fusion::prelude::*;
use kfuse_core::batch::{synthesize_batch, BatchScratch, LANES};
use kfuse_core::metadata::ProgramInfo;
use kfuse_core::spec::GroupSpec;
use kfuse_core::synth::SynthTables;
use kfuse_ir::stencil::Offset;
use kfuse_verify::PlanChecker;
use kfuse_workloads::synth::{generate, SynthConfig};
use proptest::prelude::*;

fn small_config(seed: u64, kernels: usize) -> SynthConfig {
    SynthConfig {
        name: format!("synthdiff_{seed}"),
        kernels,
        arrays: kernels * 2,
        data_copies: 2,
        sharing_set: 3,
        thread_load: 4,
        kinship: 3,
        grid: [64, 16, 2],
        block: (32, 4),
        dep_prob: 0.5,
        reads_per_kernel: 2,
        pointwise_prob: 0.3,
        sync_interval: None,
        seed,
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random group of 1–6 distinct kernels out of `n`.
fn random_group(n: usize, state: &mut u64) -> Vec<KernelId> {
    let len = 1 + (splitmix64(state) % 6) as usize;
    let mut g: Vec<KernelId> = (0..len)
        .map(|_| KernelId((splitmix64(state) % n as u64) as u32))
        .collect();
    g.sort_unstable();
    g.dedup();
    g
}

fn gpus() -> [GpuSpec; 3] {
    [GpuSpec::k20x(), GpuSpec::k40(), GpuSpec::gtx750ti()]
}

fn assert_specs_eq(a: &GroupSpec, b: &GroupSpec, what: &str) {
    assert_eq!(a.members, b.members, "{what}: members");
    assert_eq!(a.pivots, b.pivots, "{what}: pivots");
    assert_eq!(a.barrier_before, b.barrier_before, "{what}: barrier_before");
    assert_eq!(a.smem_bytes, b.smem_bytes, "{what}: smem_bytes");
    assert_eq!(a.projected_regs, b.projected_regs, "{what}: projected_regs");
    assert_eq!(a.flops, b.flops, "{what}: flops");
    assert_eq!(a.halo_bytes, b.halo_bytes, "{what}: halo_bytes");
    assert_eq!(a.ro_bytes, b.ro_bytes, "{what}: ro_bytes");
    assert_eq!(a.active_threads, b.active_threads, "{what}: active_threads");
    assert_eq!(a.complex, b.complex, "{what}: complex");
}

fn models() -> Vec<Box<dyn PerfModel>> {
    vec![
        Box::new(RooflineModel),
        Box::new(SimpleModel),
        Box::new(ProposedModel::default()),
    ]
}

fn check_program_on(gpu: &GpuSpec, seed: u64, kernels: usize) {
    let p = generate(&small_config(seed, kernels));
    let (_, ctx) = pipeline::prepare(&p, gpu, FpPrecision::Double);
    let checker = PlanChecker::new(&ctx.info);
    let models = models();
    let mut scratch = BatchScratch::new();
    let mut state = seed ^ 0x5EED_CAFE;
    // Batch-mates for the full-batch lane: the previous groups drawn.
    let mut mates: Vec<Vec<KernelId>> = vec![vec![KernelId(0)]; LANES - 1];
    for i in 0..32 {
        let group = random_group(ctx.n_kernels(), &mut state);
        let derived = checker.derive_spec(&group);
        let mut full: Vec<&[KernelId]> = mates.iter().map(Vec::as_slice).collect();
        full.push(&group);
        for (cands, lane) in [(vec![&group[..]], 0), (full, LANES - 1)] {
            let what = format!("{} {group:?} fill {}", gpu.name, cands.len());
            // The independent verifier re-derives the spec the core
            // synthesizes...
            let view = synthesize_batch(&ctx.synth, &ctx.info, &cands, &mut scratch);
            assert_specs_eq(
                &view.lane_spec(lane),
                &derived,
                &format!("core vs verifier, {what}"),
            );
            // ...and every model projects the two bitwise identically.
            for m in &models {
                let mut lane_t = [f64::NAN; LANES];
                m.project_batch(&ctx.info, &view, &mut lane_t);
                let spec_t = m.project(&ctx.info, &derived);
                assert_eq!(
                    spec_t.to_bits(),
                    lane_t[lane].to_bits(),
                    "{} project vs project_batch, {what}",
                    m.name(),
                );
            }
        }
        mates[i % (LANES - 1)] = group;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Core == verifier over random programs, all three GPUs.
    #[test]
    fn synthesis_paths_agree(seed in 0u64..10_000, kernels in 4usize..16) {
        for gpu in gpus() {
            check_program_on(&gpu, seed, kernels);
        }
    }
}

/// Every non-empty subset of `p`'s kernels on `gpu`, twice over one
/// scratch (the second pass runs every candidate over slots the first
/// left behind), core against verifier.
fn check_all_subsets(p: &Program, gpu: &GpuSpec) {
    let info = ProgramInfo::extract(p, gpu, FpPrecision::Double);
    let tables = SynthTables::build(&info);
    let checker = PlanChecker::new(&info);
    let mut scratch = BatchScratch::new();
    let n = info.kernels.len() as u32;
    for pass in 0..2 {
        for mask in 1u32..(1 << n) {
            let group: Vec<KernelId> = (0..n)
                .filter(|k| mask & (1 << k) != 0)
                .map(KernelId)
                .collect();
            let view = synthesize_batch(&tables, &info, &[&group], &mut scratch);
            assert_specs_eq(
                &view.lane_spec(0),
                &checker.derive_spec(&group),
                &format!("{} mask {mask:b} pass {pass} on {}", p.name, gpu.name),
            );
        }
    }
}

/// The three hand-built programs of `spec.rs`'s expected-value tests —
/// pointwise + radius consumers of one produced array, a cascaded
/// producer chain (B halo 2, C halo 1 when all fuse), and shared radius
/// reads of a clean input — over all subsets on every GPU.
#[test]
fn spec_fixtures_all_subsets_all_gpus_twice_over_one_scratch() {
    let mut pb = ProgramBuilder::new("p", [128, 64, 8]);
    let [a, b, c, d] = pb.arrays(["A", "B", "C", "D"]);
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
    let fan = pb.build();

    let mut pb = ProgramBuilder::new("chain", [128, 64, 8]);
    let [a, b, c, d] = pb.arrays(["A", "B", "C", "D"]);
    pb.kernel("k0")
        .write(b, Expr::at(a) * Expr::lit(2.0))
        .build();
    pb.kernel("k1")
        .write(c, Expr::load(b, Offset::new(1, 0, 0)))
        .build();
    pb.kernel("k2")
        .write(d, Expr::load(c, Offset::new(1, 0, 0)))
        .build();
    let chain = pb.build();

    let mut pb = ProgramBuilder::new("shared", [128, 64, 8]);
    let [a, b, c] = pb.arrays(["A", "B", "C"]);
    pb.kernel("k0")
        .write(b, Expr::at(a) + Expr::load(a, Offset::new(-1, 0, 0)))
        .build();
    pb.kernel("k1")
        .write(c, Expr::at(a) + Expr::load(a, Offset::new(0, 1, 0)))
        .build();
    let shared = pb.build();

    for gpu in gpus() {
        for p in [&fan, &chain, &shared] {
            check_all_subsets(p, &gpu);
        }
    }
}

/// A handcrafted fixture covering all four touch classes (read-only
/// shared input, produced read-write pivot consumed at a radius, an
/// expandable double-written array, and write-only outputs) swept over
/// every subset of its kernels on every GPU.
#[test]
fn all_touch_classes_all_subsets_all_gpus() {
    let mut pb = ProgramBuilder::new("touchmix", [64, 32, 4]);
    let a = pb.array("A"); // read-only, shared by all
    let b = pb.array("B"); // read-write: produced by k0, consumed at radius
    let q = pb.array("Q"); // expandable: written by k0 and k2
    let [w0, w1, w2] = pb.arrays(["W0", "W1", "W2"]); // write-only outputs
    pb.kernel("k0")
        .write(b, Expr::at(a) + Expr::lit(1.0))
        .write(q, Expr::at(a) * Expr::lit(2.0))
        .build();
    pb.kernel("k1")
        .write(w0, Expr::load(b, Offset::new(1, 0, 0)) + Expr::at(q))
        .build();
    pb.kernel("k2")
        .write(q, Expr::at(a) - Expr::lit(1.0))
        .write(w1, Expr::at(b))
        .build();
    pb.kernel("k3")
        .write(w2, Expr::load(q, Offset::new(-1, 0, 0)))
        .build();
    let p = pb.build();

    for gpu in gpus() {
        // The relaxed program: Q's second writer gets its own copy.
        let (relaxed, _) = pipeline::prepare(&p, &gpu, FpPrecision::Double);
        check_all_subsets(&relaxed, &gpu);
    }
}
