//! JSON round-trip tests for the public data types (the CLI's program
//! exchange format).

use kernel_fusion::prelude::*;
use kfuse_core::metadata::ProgramInfo;
use kfuse_workloads::{motivating, scale_les, SuiteParams, TestSuite};

#[test]
fn program_roundtrips_through_json() {
    let p = scale_les::rk_core([96, 32, 4]);
    let json = serde_json::to_string(&p).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
    assert!(back.validate().is_ok());
}

#[test]
fn fused_program_roundtrips_with_staging_and_syncs() {
    let (p, _) = motivating::program([96, 32, 4]);
    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    let r = pipeline::run(
        &p,
        &gpu,
        FpPrecision::Double,
        &model,
        &HggaSolver::with_seed(3),
    )
    .unwrap();
    let json = serde_json::to_string(&r.fused).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(r.fused, back);
}

#[test]
fn plan_roundtrips() {
    let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(2)], vec![KernelId(1)]]);
    let json = serde_json::to_string(&plan).unwrap();
    let back: FusionPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(plan, back);
}

#[test]
fn program_info_serializes() {
    let p = TestSuite::generate_on_grid(
        &SuiteParams {
            kernels: 10,
            arrays: 20,
            ..SuiteParams::default()
        },
        [96, 32, 4],
        (32, 4),
    );
    let info = ProgramInfo::extract(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let json = serde_json::to_string(&info).unwrap();
    let back: ProgramInfo = serde_json::from_str(&json).unwrap();
    assert_eq!(info.kernels.len(), back.kernels.len());
    assert_eq!(info.epochs, back.epochs);
}

#[test]
fn legacy_program_json_without_host_syncs_loads() {
    // host_syncs carries #[serde(default)]: programs serialized before the
    // field existed must still parse.
    let p = scale_les::rk_core([96, 32, 4]);
    let mut v: serde_json::Value = serde_json::to_value(&p).unwrap();
    v.as_object_mut().unwrap().remove("host_syncs");
    let back: Program = serde_json::from_value(v).unwrap();
    assert!(back.host_syncs.is_empty());
    assert!(back.validate().is_ok());
}

#[test]
fn gpu_spec_roundtrips() {
    for gpu in [GpuSpec::k20x(), GpuSpec::k40(), GpuSpec::gtx750ti()] {
        let json = serde_json::to_string(&gpu).unwrap();
        let back: GpuSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(gpu, back);
    }
}

// ---------------------------------------------------------------------------
// The JSON text layer itself (`vendor/serde_json`): every program, request
// and cache entry enters and leaves the system through it.
// ---------------------------------------------------------------------------

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{Map, Number, Value};

/// A string mixing what the printer escapes (quotes, backslashes, control
/// characters) with 1- to 4-byte UTF-8 sequences, including the first and
/// last code point of each length.
fn gen_string(rng: &mut SmallRng) -> String {
    const PICKS: [char; 16] = [
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        '\u{80}',
        '\u{7ff}',
        '\u{800}',
        '\u{ffff}',
        '\u{10ffff}',
    ];
    (0..rng.gen_range(0usize..12))
        .map(|_| match rng.gen_range(0u32..4) {
            0 => PICKS[rng.gen_range(0usize..PICKS.len())],
            1 => char::from(rng.gen_range(0x20u8..0x7f)),
            2 => char::from_u32(rng.gen_range(0x80u32..0xd800)).expect("below the surrogates"),
            _ => char::from_u32(rng.gen_range(0x1_0000u32..0x11_0000)).expect("a 4-byte scalar"),
        })
        .collect()
}

fn gen_number(rng: &mut SmallRng) -> Number {
    match rng.gen_range(0u32..8) {
        0 => Number::from_u64(u64::MAX),
        1 => Number::from_u64(rng.gen_range(0u64..1000)),
        2 => Number::from_u64(rng.gen()),
        3 => Number::from_i64(i64::MIN),
        4 => Number::from_i64(-1 - (rng.gen::<u64>() >> 1) as i64),
        5 => Number::from_f64([0.0, -0.0, 3.0, 0.1, 1e21, 1e300, 5e-324][rng.gen_range(0usize..7)]),
        6 => Number::from_f64(rng.gen::<f64>() * 1e6 - 5e5),
        _ => loop {
            let f = f64::from_bits(rng.gen());
            if f.is_finite() {
                break Number::from_f64(f);
            }
        },
    }
}

fn gen_value(rng: &mut SmallRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0u32..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 | 3 => Value::Number(gen_number(rng)),
        4 => Value::String(gen_string(rng)),
        5 => Value::Array(
            (0..rng.gen_range(0usize..5))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => {
            // Up to 12 keys, so objects fall on both sides of the size at
            // which the parser hashes keys; a drawn key may repeat.
            let mut m = Map::new();
            for _ in 0..rng.gen_range(0usize..13) {
                m.insert(gen_string(rng), gen_value(rng, depth - 1));
            }
            Value::Object(m)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any tree prints (compact and pretty) to text that parses back to an
    /// equal tree, and printing is a fixed point of parse-then-print.
    #[test]
    fn value_trees_roundtrip_through_both_printers(seed in 0u64..u64::MAX) {
        let tree = gen_value(&mut SmallRng::seed_from_u64(seed), 4);
        let compact = serde_json::to_string(&tree).unwrap();
        let pretty = serde_json::to_string_pretty(&tree).unwrap();
        let from_compact: Value = serde_json::from_str(&compact).unwrap();
        let from_pretty: Value = serde_json::from_slice(pretty.as_bytes()).unwrap();
        prop_assert_eq!(&from_compact, &tree);
        prop_assert_eq!(&from_pretty, &tree);
        prop_assert_eq!(serde_json::to_string(&from_pretty).unwrap(), compact);
        prop_assert_eq!(serde_json::to_string_pretty(&from_compact).unwrap(), pretty);
        prop_assert_eq!(serde_json::to_vec(&tree).unwrap(), compact.into_bytes());
    }
}

#[test]
fn every_example_parses_equal_from_compact_and_pretty_and_reprints_identically() {
    let names = [
        "quickstart",
        "rk3",
        "fig3",
        "scale-les",
        "homme",
        "suite",
        "synth60",
        "synth500",
    ];
    for name in names {
        let p = kfuse_workloads::by_name(name).unwrap();
        let compact = serde_json::to_string(&p).unwrap();
        let pretty = serde_json::to_string_pretty(&p).unwrap();
        let a: Program = serde_json::from_str(&compact).unwrap();
        let b: Program = serde_json::from_str(&pretty).unwrap();
        assert_eq!(a, p, "{name}");
        assert_eq!(b, p, "{name}");
        assert_eq!(serde_json::to_string(&b).unwrap(), compact, "{name}");
        assert_eq!(serde_json::to_string_pretty(&a).unwrap(), pretty, "{name}");
    }
}

/// A document of about `bytes` bytes, nearly all of it inside strings.
fn string_heavy_document(bytes: usize) -> String {
    let mut doc = String::with_capacity(bytes + 128);
    doc.push('[');
    for i in 0.. {
        if doc.len() >= bytes {
            break;
        }
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(&format!(
            r#"{{"name":"kernel_{i:07}","doc":"advect ρ·u along i — flux form, 3rd-order upwind","tags":["a\"b","c\\d"]}}"#
        ));
    }
    doc.push(']');
    doc
}

/// Fastest of five parses of each document, the two interleaved so a
/// slow phase of the machine falls on both.
fn parse_times(small: &str, large: &str) -> (f64, f64) {
    let time = |doc: &str| {
        let t = std::time::Instant::now();
        let v: Value = serde_json::from_str(doc).unwrap();
        let dt = t.elapsed().as_secs_f64();
        assert!(v.as_array().is_some_and(|a| !a.is_empty()));
        dt
    };
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        best = (best.0.min(time(small)), best.1.min(time(large)));
    }
    best
}

/// Parsing is linear in the input: four times the bytes cost about four
/// times the time. The quadratic string scan this guards against read 16.
/// No absolute threshold — only the ratio, at a size large enough to time.
#[test]
fn parse_time_scales_linearly_with_input_size() {
    let mut n = 64 * 1024;
    loop {
        let (small, large) = (string_heavy_document(n), string_heavy_document(4 * n));
        let (t_small, t_large) = parse_times(&small, &large);
        if t_small < 5e-3 {
            n *= 2;
            continue;
        }
        assert!(
            t_large <= 8.0 * t_small,
            "{} B parse in {t_small:.4} s but {} B in {t_large:.4} s ({:.1}x for 4x the bytes)",
            small.len(),
            large.len(),
            t_large / t_small
        );
        break;
    }
}

#[test]
fn malformed_documents_are_errors_never_panics() {
    for doc in [
        "",
        " ",
        "[1",
        "1 2",
        "[1,]",
        "[,1]",
        "{\"a\":1,}",
        "{\"a\":1",
        "{\"a\"}",
        "{\"a\" 1}",
        "{a:1}",
        "{1:1}",
        "\"abc",
        "\"abc\\",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\u12g4\"",
        "\"\\ud800\"",
        "\"\\udc00\\ud800\"",
        "nul",
        "truex",
        "-",
        "1e",
        "1.e5x",
        "+1",
        "]",
        "}",
        "[1}",
        "{\"a\":[}",
        "\u{feff}1",
    ] {
        assert!(serde_json::from_str::<Value>(doc).is_err(), "{doc:?}");
    }
    // Every proper prefix of a valid document, cut at every byte — so also
    // inside escapes, numbers, keywords and multi-byte characters.
    let p = kfuse_workloads::by_name("quickstart").unwrap();
    let mut v = serde_json::to_value(&p).unwrap();
    v.as_object_mut().unwrap().insert(
        "note".into(),
        Value::String("é \"漢\" \\ 😀 \u{1} end".into()),
    );
    let text = serde_json::to_string_pretty(&v).unwrap() + "\n";
    assert!(serde_json::from_slice::<Value>(text.as_bytes()).is_ok());
    let body = text.trim_end().len();
    for cut in 0..body {
        let r = serde_json::from_slice::<Value>(&text.as_bytes()[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes parsed");
    }
}
