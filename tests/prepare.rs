//! `pipeline::prepare` is pinned bit for bit: the relaxed program, the
//! extracted metadata and the program fingerprint of every built-in
//! example, on two devices, must hash to the digests recorded before the
//! front end was made one walk per layer (PR 18). The digests are
//! constants — no old implementation is kept alive to compare against.
//! The same goes for what `ctx.validate` synthesizes from that context:
//! its specs hash to digests recorded before the owned `GroupSpec` route
//! became the SoA route materialized (PR 19).

use kernel_fusion::prelude::*;
use kfuse_core::fingerprint::program_fingerprint;

/// FNV-1a over the bytes of a JSON text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(example, gpu, relaxed program, ProgramInfo, program_fingerprint)`
/// for fourteen examples on two devices, the first two digests FNV-1a of
/// the compact JSON.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64, u64)] = &[
    ("quickstart", "k20x", 0x7ef2cad77f76f123, 0x7273276508f115e6, 0x8f90aaa1bb5b1336),
    ("quickstart", "gtx750ti", 0x7ef2cad77f76f123, 0xb85f50525686c088, 0x9ca423ebf25bfa2d),
    ("rk3", "k20x", 0xcaf4e5c0b2577ca4, 0xd06078ec03b6f66e, 0xa4d4c628dbf247d2),
    ("rk3", "gtx750ti", 0xcaf4e5c0b2577ca4, 0xd893712f6fbca892, 0x935c24077628c7e3),
    ("fig3", "k20x", 0x6910d2d28773e091, 0x103d8c27e52a3aa3, 0xa8d4f962e490f8ad),
    ("fig3", "gtx750ti", 0x6910d2d28773e091, 0x4a5f7795f815f32b, 0xcb399e45df8125ca),
    ("scale-les", "k20x", 0xe6900e406783fff5, 0x0eb6a1d52b837d6e, 0x92b5d0cc2168ddaa),
    ("scale-les", "gtx750ti", 0xe6900e406783fff5, 0x8f3b5db4842de84d, 0xf971ca0adde557fe),
    ("homme", "k20x", 0x159486ac6b375fe1, 0x0009a0b7ab3bc079, 0x3c1863d0cbbd719e),
    ("homme", "gtx750ti", 0x159486ac6b375fe1, 0x38b850af76143b51, 0xe0f4cb610ae22cee),
    ("suite", "k20x", 0x8cd1d9706c0c37ae, 0x5d9ac9a947a2135f, 0x411dd1d7f08d2324),
    ("suite", "gtx750ti", 0x8cd1d9706c0c37ae, 0x39f756e975f80350, 0x92691f19e43b377d),
    ("synth20", "k20x", 0xde639210eef7736d, 0xbb9baf594d5944d1, 0x476b6d399eaa8574),
    ("synth20", "gtx750ti", 0xde639210eef7736d, 0xb5d57015b4927b5c, 0xa9720c5690b2085a),
    ("synth40", "k20x", 0x2d06af2cdee5e7b9, 0xe5b3e54f76b43798, 0x553415aad39f7b97),
    ("synth40", "gtx750ti", 0x2d06af2cdee5e7b9, 0xab4243e987996d00, 0xd2f1980874d00346),
    ("synth60", "k20x", 0x3ab98355c3378380, 0x2e3969f54545ca54, 0xfdbd08ae8fb4a36c),
    ("synth60", "gtx750ti", 0x3ab98355c3378380, 0x6296517927409aa8, 0x457d3e53d28c1552),
    ("synth100", "k20x", 0xe1898f93afef3446, 0xef675ba50756e02f, 0x71d4f24c79bc5b4f),
    ("synth100", "gtx750ti", 0xe1898f93afef3446, 0xc71971776d813639, 0x3a229e5a694c3f6a),
    ("synth150", "k20x", 0x1b975e2f6b6f11a0, 0x12cac2c41c203729, 0x1a19ee15c6376245),
    ("synth150", "gtx750ti", 0x1b975e2f6b6f11a0, 0x67e9c6b1048520ca, 0x0efc7805fafb4e17),
    ("synth300", "k20x", 0xc011d672b2fb8b32, 0xe447503cdd068e63, 0x0f245a8ba855dc32),
    ("synth300", "gtx750ti", 0xc011d672b2fb8b32, 0x48dbd1842f22f0c9, 0xfa31a4016e5bdaa8),
    ("synth500", "k20x", 0xa1d8857d78019ceb, 0x08eaf3fc02b067c9, 0x7f57dc426f8b921a),
    ("synth500", "gtx750ti", 0xa1d8857d78019ceb, 0x8b60e28e20171996, 0xb3d00a28cf2af859),
    ("synth1000", "k20x", 0x8973376126d39dd7, 0x48cec71030f486be, 0xcd086a971d94ff5d),
    ("synth1000", "gtx750ti", 0x8973376126d39dd7, 0x55beae23a8740a00, 0x3c1e3f162f977bea),
];

fn digests(name: &str, gpu_name: &str) -> (u64, u64, u64) {
    let p = kfuse_workloads::by_name(name).unwrap();
    let gpu = GpuSpec::by_name(gpu_name).unwrap();
    let (relaxed, ctx) = pipeline::prepare(&p, &gpu, gpu.default_precision());
    assert_eq!(ctx.program.as_ref(), Some(&relaxed), "{name}/{gpu_name}");
    (
        fnv1a(serde_json::to_string(&relaxed).unwrap().as_bytes()),
        fnv1a(serde_json::to_string(&ctx.info).unwrap().as_bytes()),
        program_fingerprint(&ctx.info),
    )
}

#[test]
fn prepare_outputs_hash_to_the_digests_recorded_at_the_parent() {
    let actual: Vec<_> = GOLDEN
        .iter()
        .map(|&(name, gpu, ..)| {
            let (relaxed, info, fp) = digests(name, gpu);
            (name, gpu, relaxed, info, fp)
        })
        .collect();
    if actual != GOLDEN {
        for (name, gpu, relaxed, info, fp) in &actual {
            eprintln!("    ({name:?}, {gpu:?}, {relaxed:#018x}, {info:#018x}, {fp:#018x}),");
        }
        panic!("prepare output moved: the table above is what this tree produces");
    }
}

/// FNV-1a over every ordered pair's degree of kinship (`None` as 255).
fn kinship_digest(name: &str) -> u64 {
    let p = kfuse_workloads::by_name(name).unwrap();
    let gpu = GpuSpec::k20x();
    let (_, ctx) = pipeline::prepare(&p, &gpu, gpu.default_precision());
    let n = ctx.n_kernels() as u32;
    let table: Vec<u8> = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .map(|(a, b)| {
            ctx.share
                .kinship(KernelId(a), KernelId(b))
                .unwrap_or(u8::MAX)
        })
        .collect();
    fnv1a(&table)
}

/// The on-demand BFS answers what the dense all-pairs matrix (deleted in
/// PR 18) answered: the digests were taken from the matrix at the parent.
#[test]
fn kinship_bfs_answers_what_the_distance_matrix_did() {
    for (name, golden) in KINSHIP_GOLDEN {
        assert_eq!(kinship_digest(name), *golden, "{name}");
    }
}

#[rustfmt::skip]
const KINSHIP_GOLDEN: &[(&str, u64)] = &[
    ("fig3", 0x303cac297ff62973),
    ("scale-les", 0x6b29399bc84451ad),
    ("homme", 0x977cb11f5c124103),
    ("synth100", 0x850dd7adfd68dd7b),
];

/// FNV-1a of the compact JSON of the `Vec<GroupSpec>` that `ctx.validate`
/// returns for the identity plan and for the `GreedySolver` plan.
fn validate_digests(name: &str, gpu_name: &str) -> (u64, u64) {
    let p = kfuse_workloads::by_name(name).unwrap();
    let gpu = GpuSpec::by_name(gpu_name).unwrap();
    let (_, ctx) = pipeline::prepare(&p, &gpu, gpu.default_precision());
    let digest = |plan: &FusionPlan| {
        let specs = ctx.validate(plan).expect("plan validates");
        assert_eq!(specs.len(), plan.groups.len(), "{name}/{gpu_name}");
        fnv1a(serde_json::to_string(&specs).unwrap().as_bytes())
    };
    let greedy = GreedySolver.solve(&ctx, &ProposedModel::default()).plan;
    (
        digest(&FusionPlan::identity(ctx.n_kernels())),
        digest(&greedy),
    )
}

/// `(example, gpu, identity-plan specs, greedy-plan specs)`: eight
/// built-ins on all three devices.
#[rustfmt::skip]
const VALIDATE_GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("quickstart", "k20x", 0x65c3aaddecfb181c, 0x6935ff0b75f6b733),
    ("quickstart", "k40", 0x65c3aaddecfb181c, 0x6935ff0b75f6b733),
    ("quickstart", "gtx750ti", 0x65c3aaddecfb181c, 0x6935ff0b75f6b733),
    ("rk3", "k20x", 0xb04f1d8eba88e9e1, 0x426d7b38f4339dd5),
    ("rk3", "k40", 0xb04f1d8eba88e9e1, 0x426d7b38f4339dd5),
    ("rk3", "gtx750ti", 0xee5c9b3ddc08a7f9, 0xe3809e3eef3f5860),
    ("fig3", "k20x", 0x372064a13f0be056, 0x8b9a1b829238d7f2),
    ("fig3", "k40", 0x372064a13f0be056, 0x8b9a1b829238d7f2),
    ("fig3", "gtx750ti", 0x90f7b6d8bbe5496a, 0x69a7abd81e84bc87),
    ("scale-les", "k20x", 0x2087da2490ec59b3, 0x00c8ce21a13e3d15),
    ("scale-les", "k40", 0x2087da2490ec59b3, 0xeaf1f1ad1c25ec38),
    ("scale-les", "gtx750ti", 0xbca36db0f11482a2, 0xeb460b91aea4ed46),
    ("homme", "k20x", 0xdcc0262ba34d0731, 0x391d44ce0b2241b5),
    ("homme", "k40", 0xdcc0262ba34d0731, 0x391d44ce0b2241b5),
    ("homme", "gtx750ti", 0x684c6ba921ccadd1, 0x31bae42c47302c90),
    ("suite", "k20x", 0xb0c6b1f933821881, 0x1e898b15bbbf0653),
    ("suite", "k40", 0xb0c6b1f933821881, 0x3c95da013869dd49),
    ("suite", "gtx750ti", 0x6b8ed8db32b050b9, 0x1c40d3f3b6e35644),
    ("synth60", "k20x", 0x23359cd1d3142cbd, 0xe22df56008bd8e23),
    ("synth60", "k40", 0x23359cd1d3142cbd, 0x2bf93a49a191833e),
    ("synth60", "gtx750ti", 0x067e889d4a11603d, 0xdd630da7a8b438a1),
    ("synth100", "k20x", 0x0654010d580e1f84, 0x901868dbeabc0d5c),
    ("synth100", "k40", 0x0654010d580e1f84, 0xd716de6df8b49956),
    ("synth100", "gtx750ti", 0x4fbdd3bc7f0d4392, 0x475247e9b28d82f6),
];

/// The digests were taken from the `BTreeMap`-based body of
/// `GroupSpec::synthesize` at the parent, before it was deleted.
#[test]
fn validate_specs_hash_to_the_digests_recorded_at_the_parent() {
    let actual: Vec<_> = VALIDATE_GOLDEN
        .iter()
        .map(|&(name, gpu, ..)| {
            let (identity, greedy) = validate_digests(name, gpu);
            (name, gpu, identity, greedy)
        })
        .collect();
    if actual != VALIDATE_GOLDEN {
        for (name, gpu, identity, greedy) in &actual {
            eprintln!("    ({name:?}, {gpu:?}, {identity:#018x}, {greedy:#018x}),");
        }
        panic!("validate output moved: the table above is what this tree produces");
    }
}
