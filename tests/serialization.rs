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

/// A kept program text — vouched for by a callback that knows only it —
/// changes no reading of a request line: whatever follows it on the line,
/// the vouched route answers what the plain one does, errors and their
/// bytes included. A text that begins like the kept one and breaks later
/// is not vouched for, and neither is a span that is no array or object.
#[test]
fn vouching_changes_no_parse_and_no_error() {
    let kept = serde_json::to_string(&kfuse_workloads::by_name("rk3").unwrap()).unwrap();
    let vouch = |rest: &str| rest.starts_with(kept.as_str()).then_some(kept.len());
    let read = |line: &str, vouch: serde::Vouch<'_>| {
        serde_json::from_str_vouched::<Request>(line, vouch)
            .map(|r| format!("{r:?}"))
            .map_err(|e| e.to_string())
    };
    let plain = |line: &str| read(line, &|_| None);
    let at = kept.find(r#""kernels":"#).unwrap();
    assert!(at > 64);
    let broken = format!("{}\"kernels\";{}", &kept[..at], &kept[at + 10..]);
    let head = r#"{"id":"v","op":"solve","program":"#;
    let mut failures = 0;
    for (program, tail) in [
        (kept.as_str(), "}"),
        (kept.as_str(), r#","op":"verify","plan":[[0]]}"#),
        (kept.as_str(), " }"),
        (kept.as_str(), "x}"),
        (kept.as_str(), "}}"),
        (kept.as_str(), ",}"),
        (kept.as_str(), ""),
        (&kept[..kept.len() - 1], "}"),
        (&kept[..kept.len() - 1], ""),
        (broken.as_str(), "}"),
    ] {
        let line = format!("{head}{program}{tail}");
        let want = plain(&line);
        failures += usize::from(want.is_err());
        assert_eq!(read(&line, &vouch), want, "{tail:?}");
        // The vouched span is where the plain route's error says it is.
        if let Err(e) = &want {
            if program == kept && !tail.is_empty() {
                let byte: usize = e.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(byte >= head.len() + kept.len(), "{e}");
            }
        }
    }
    assert_eq!(failures, 7);

    // A callback that vouches for a span which is no container — here the
    // first two digits of a number — is not taken at its word.
    let line = r#"{"op":"solve","program":12345}"#;
    let lying = |rest: &str| rest.starts_with("12").then_some(2);
    assert_eq!(read(line, &lying), plain(line));
    let lying = |rest: &str| rest.starts_with('{').then_some(1);
    let line = format!("{head}{kept}}}");
    assert_eq!(read(&line, &lying), plain(&line));
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

/// Fastest of five runs of `read` on each document, the two interleaved
/// so a slow phase of the machine falls on both.
fn best_times(small: &str, large: &str, read: fn(&str)) -> (f64, f64) {
    let time = |doc: &str| {
        let t = std::time::Instant::now();
        read(doc);
        t.elapsed().as_secs_f64()
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
/// The skip route (`Scanner::value_text`) is held to the same ratio on
/// the same two documents.
#[test]
fn parse_time_scales_linearly_with_input_size() {
    let parse = |doc: &str| {
        let v: Value = serde_json::from_str(doc).unwrap();
        assert!(v.as_array().is_some_and(|a| !a.is_empty()));
    };
    let skip = |doc: &str| assert_eq!(Scanner::new(doc).value_text().unwrap().len(), doc.len());
    let mut n = 64 * 1024;
    loop {
        let (small, large) = (string_heavy_document(n), string_heavy_document(4 * n));
        let (t_small, t_large) = best_times(&small, &large, parse);
        if t_small < 5e-3 {
            n *= 2;
            continue;
        }
        for (route, (t_small, t_large)) in [
            ("parse", (t_small, t_large)),
            ("skip", best_times(&small, &large, skip)),
        ] {
            assert!(
                t_large <= 8.0 * t_small,
                "{route}: {} B in {t_small:.4} s but {} B in {t_large:.4} s ({:.1}x for 4x the bytes)",
                small.len(),
                large.len(),
                t_large / t_small
            );
        }
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

/// RFC 8259 §7: a string carries U+0000–U+001F escaped, and `\u` takes
/// exactly four hex digits. Both are named errors on every route.
#[test]
fn strings_reject_raw_control_characters_and_signed_hex_escapes() {
    for (line, error) in [
        (
            r#"{"id":"a\u+123","op":"ping"}"#,
            "invalid \\u escape at byte 9",
        ),
        (
            "{\"id\":\"a\tb\u{1}c\",\"op\":\"ping\"}",
            "control character in string at byte 8",
        ),
        (
            "{\"op\":\"ping\",\"x\":[\"\u{1f}\"]}",
            "control character in string at byte 19",
        ),
    ] {
        assert_eq!(
            agree::<Request>(line.as_bytes()),
            Err(error.to_string()),
            "{line}"
        );
    }
    // Each control character at each offset of the word-at-a-time scan,
    // after ASCII and after a multi-byte character; DEL and above are text.
    for c in (0u8..0x20).map(char::from) {
        for before in ["", "é", "x"]
            .iter()
            .flat_map(|s| (0..20).map(|n| s.repeat(n)))
        {
            let doc = format!("[\"{before}{c}\"]");
            let want = format!("control character in string at byte {}", 2 + before.len());
            assert_eq!(agree::<Vec<String>>(doc.as_bytes()), Err(want), "{doc:?}");
        }
    }
    for text in ["\u{7f}", " ", "é\u{80}", "\u{10ffff}"] {
        let doc = format!("[\"{text}\"]");
        assert!(agree::<Vec<String>>(doc.as_bytes()).is_ok(), "{doc:?}");
    }
}

// ---------------------------------------------------------------------------
// Typed vs skip vs tree. `from_str::<T>` builds a `T` straight from the
// bytes; `Scanner::value_text` validates a value and keeps only its span;
// `from_value::<T>(from_str::<Value>(..))` builds a tree and consumes it.
// The last is the specification of the other two: same value or same
// error, on everything this system reads and on every way those texts go
// wrong.
// ---------------------------------------------------------------------------

use kfuse_search::plancache::{CacheEntry, CACHE_VERSION};
use kfuse_serve::Request;
use serde::{Deserialize, Scanner};
use std::fmt::Debug;

/// The skip route against the tree route's reading of the same bytes:
/// `Scanner::value_text` on the whole of `doc` returns the whole text
/// where the tree route accepts, and the tree route's message at the same
/// byte where it rejects. Bytes that are not UTF-8 never reach a scanner.
fn skip_agrees(doc: &[u8], tree: &serde_json::Result<Value>) {
    let Ok(text) = std::str::from_utf8(doc) else {
        assert!(tree.is_err());
        return;
    };
    let skip = Scanner::new(text).value_text().map_err(|e| e.0);
    let want = tree.as_ref().map(|_| text).map_err(ToString::to_string);
    assert_eq!(
        skip,
        want,
        "skip (left) and tree (right) disagree on {} bytes: {}",
        doc.len(),
        String::from_utf8_lossy(&doc[..doc.len().min(300)])
    );
}

/// What the three routes make of `doc` (bytes, so that a cut inside a
/// multi-byte character is an input too), as comparable text. The typed
/// and skip routes must never panic and must answer exactly what the tree
/// route does.
fn agree<T: Deserialize + Debug>(doc: &[u8]) -> Result<String, String> {
    let show =
        |r: Result<T, serde_json::Error>| r.map(|v| format!("{v:?}")).map_err(|e| e.to_string());
    let syntax = serde_json::from_slice::<Value>(doc);
    skip_agrees(doc, &syntax);
    let tree = show(syntax.and_then(serde_json::from_value::<T>));
    let typed = show(serde_json::from_slice::<T>(doc));
    assert_eq!(
        typed,
        tree,
        "typed (left) and tree (right) disagree on {} bytes: {}",
        doc.len(),
        String::from_utf8_lossy(&doc[..doc.len().min(300)])
    );
    typed
}

/// Vouches for every text the skip route accepts at the start of `rest`.
/// The documents it is used on nest far below [`serde::MAX_DEPTH`], so
/// such a text is valid wherever it stands in them.
fn vouch_valid(rest: &str) -> Option<usize> {
    Scanner::new(rest).value_text().ok().map(str::len)
}

/// [`agree`], and then the typed and skip routes once more through a
/// scanner that vouches for every valid value text: vouching changes no
/// reading, and no error or the byte it is reported at.
fn agree_vouched<T: Deserialize + Debug>(doc: &[u8]) -> Result<String, String> {
    let plain = agree::<T>(doc);
    if let Ok(text) = std::str::from_utf8(doc) {
        let vouched = serde_json::from_str_vouched::<T>(text, &vouch_valid)
            .map(|v| format!("{v:?}"))
            .map_err(|e| e.to_string());
        assert_eq!(
            vouched, plain,
            "vouched (left) and plain (right) disagree on {text:.300}"
        );
        assert_eq!(
            Scanner::with_vouch(text, &vouch_valid)
                .value_text()
                .map_err(|e| e.0),
            Scanner::new(text).value_text().map_err(|e| e.0),
            "vouched (left) and plain (right) skips disagree on {text:.300}"
        );
    }
    plain
}

/// One step from a node of a tree to a child.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// The paths of every node of `v`, parents first.
fn node_paths(v: &Value, here: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(here.clone());
    match v {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                here.push(Step::Index(i));
                node_paths(item, here, out);
                here.pop();
            }
        }
        Value::Object(m) => {
            for (k, item) in m.iter() {
                here.push(Step::Key(k.clone()));
                node_paths(item, here, out);
                here.pop();
            }
        }
        _ => {}
    }
}

fn node_mut<'v>(v: &'v mut Value, path: &[Step]) -> &'v mut Value {
    path.iter().fold(v, |v, step| match step {
        Step::Key(k) => v.as_object_mut().unwrap().get_mut(k).unwrap(),
        Step::Index(i) => &mut v.as_array_mut().unwrap()[*i],
    })
}

/// A key no type in this repository has.
const MARK: &str = "\u{1}mark";

/// The mutation corpus of one document: `visit` sees every mutant text.
/// At most `budget` nodes, evenly spread, are mutated — each replaced by a
/// value of each JSON type; each object additionally given an unknown
/// key, stripped of each of its keys in turn (required or defaulted
/// alike), and given each key a second time, with a value of another type
/// after the original and before it (last wins either way).
fn mutants(doc: &str, budget: usize, visit: &mut dyn FnMut(&[u8])) {
    // Truncations at every 97th byte; a long document (each prefix is
    // parsed, so all of them cost its length squared) at every 97·k-th.
    let cuts = 97 * doc.len().div_ceil(97 * 80).max(1);
    for cut in (0..doc.len()).step_by(cuts) {
        visit(&doc.as_bytes()[..cut]);
    }
    let tree: Value = serde_json::from_str(doc).unwrap();
    let print = |v: &Value| serde_json::to_string(v).unwrap();
    let mut paths = Vec::new();
    node_paths(&tree, &mut Vec::new(), &mut paths);
    let stride = paths.len().div_ceil(budget).max(1);
    let samples: [Value; 7] = [
        Value::Null,
        Value::Bool(true),
        Value::Number(Number::from_u64(7)),
        Value::Number(Number::from_f64(-0.5)),
        Value::String("s".into()),
        Value::Array(vec![Value::Number(Number::from_u64(1)), Value::Null]),
        serde_json::from_str(r#"{"k":[{}],"s":"é"}"#).unwrap(),
    ];
    for path in paths.iter().step_by(stride) {
        for sample in &samples {
            let mut t = tree.clone();
            *node_mut(&mut t, path) = sample.clone();
            visit(print(&t).as_bytes());
        }
        let Some(keys) = node_mut(&mut tree.clone(), path)
            .as_object()
            .map(|m| m.keys().cloned().collect::<Vec<_>>())
        else {
            continue;
        };
        let mut t = tree.clone();
        node_mut(&mut t, path)
            .as_object_mut()
            .unwrap()
            .insert("no such key".into(), samples[6].clone());
        visit(print(&t).as_bytes());
        for key in keys {
            let mut t = tree.clone();
            let m = node_mut(&mut t, path).as_object_mut().unwrap();
            let original = m.remove(&key).unwrap();
            visit(print(&t).as_bytes());
            // `MARK` is printed where the repeat goes and then renamed.
            let quoted = |k: &str| serde_json::to_string(&Value::String(k.into())).unwrap();
            let repeat = |first: Value, second: Value| {
                let mut t = tree.clone();
                let m = node_mut(&mut t, path).as_object_mut().unwrap();
                *m.get_mut(&key).unwrap() = first;
                m.insert(MARK.into(), second);
                print(&t).replacen(&quoted(MARK), &quoted(&key), 1)
            };
            let other = if original.is_null() {
                samples[4].clone()
            } else {
                Value::Null
            };
            visit(repeat(original.clone(), other.clone()).as_bytes());
            visit(repeat(other, original.clone()).as_bytes());
            visit(repeat(original.clone(), original).as_bytes());
        }
    }
}

/// `agree_vouched::<T>` on `doc` (which must parse) and on its whole
/// corpus; returns how many mutants both routes still accepted.
fn differential<T: Deserialize + Debug>(doc: &str, budget: usize) -> usize {
    agree_vouched::<T>(doc.as_bytes()).unwrap_or_else(|e| panic!("fixture does not parse: {e}"));
    let mut accepted = 0;
    mutants(doc, budget, &mut |m| {
        accepted += usize::from(agree_vouched::<T>(m).is_ok());
    });
    accepted
}

fn cache_entry_fixture() -> CacheEntry {
    CacheEntry {
        version: CACHE_VERSION,
        fingerprint: u64::MAX - 1,
        program: "é \"q\" \\ \u{1F600}".into(),
        gpu: "K20X".into(),
        precision: "Double".into(),
        n_kernels: 4,
        objective: 1.25e-3,
        kernel_sigs: vec![0, 1 << 63, u64::MAX, 7],
        groups: vec![vec![0, 2], vec![1], vec![3]],
        region_fps: vec![],
    }
}

#[test]
fn typed_route_answers_what_the_tree_route_answers() {
    // Programs: every built-in example, compact and pretty. The small ones
    // are mutated at every node, the larger ones at a sample of theirs.
    for (name, budget) in [
        ("quickstart", usize::MAX),
        ("fig3", 120),
        ("rk3", 60),
        ("synth20", 40),
        ("synth60", 8),
        ("homme", 4),
        ("suite", 4),
        ("scale-les", 1),
    ] {
        let p = kfuse_workloads::by_name(name).unwrap();
        let compact = serde_json::to_string(&p).unwrap();
        let accepted = differential::<Program>(&compact, budget);
        assert!(
            accepted > 0,
            "{name}: no mutant is harmless? (unknown keys are)"
        );
        agree_vouched::<Program>(serde_json::to_string_pretty(&p).unwrap().as_bytes()).unwrap();
    }
    let large = kfuse_workloads::by_name("synth500").unwrap();
    agree_vouched::<Program>(serde_json::to_string(&large).unwrap().as_bytes()).unwrap();
    let pretty = serde_json::to_string_pretty(&kfuse_workloads::by_name("rk3").unwrap()).unwrap();
    differential::<Program>(&pretty, 20);

    // Cache lines, plans, devices.
    differential::<CacheEntry>(
        &serde_json::to_string(&cache_entry_fixture()).unwrap(),
        usize::MAX,
    );
    let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(2)], vec![KernelId(1)]]);
    differential::<FusionPlan>(&serde_json::to_string(&plan).unwrap(), usize::MAX);
    for gpu in [GpuSpec::k20x(), GpuSpec::gtx750ti()] {
        differential::<GpuSpec>(&serde_json::to_string_pretty(&gpu).unwrap(), usize::MAX);
    }

    // Request lines: control ops, named and inline programs, a plan.
    let quick = serde_json::to_string(&kfuse_workloads::by_name("quickstart").unwrap()).unwrap();
    for line in [
        r#"{"op":"ping"}"#.to_string(),
        r#"{"id":"a","op":"solve","example":"synth60","gpu":"k40","seed":3,"budget_ms":250}"#
            .into(),
        r#"{"id":"v","op":"verify","example":"quickstart","plan":[[0,1],[]]}"#.into(),
        format!(r#"{{"program":{quick},"seed":18446744073709551615,"op":"solve","id":null}}"#),
    ] {
        differential::<Request>(&line, 100);
    }

    // Tuples, fixed arrays, maps, chars, floats, options: the std impls.
    type Std = (
        Vec<(u8, Option<f32>)>,
        std::collections::BTreeMap<u32, [i16; 2]>,
    );
    differential::<Std>(
        r#"[[[1,null],[255,2.5]],{"7":[-3,4],"0":[0,0]}]"#,
        usize::MAX,
    );
    differential::<(char, bool)>(r#"["é",false]"#, usize::MAX);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The random trees of the printer test, read back as several types:
    /// almost always a type error, now and then a value — the same either way.
    #[test]
    fn random_documents_read_the_same_on_both_routes(seed in 0u64..u64::MAX) {
        let tree = gen_value(&mut SmallRng::seed_from_u64(seed), 4);
        for text in [serde_json::to_string(&tree).unwrap(), serde_json::to_string_pretty(&tree).unwrap()] {
            prop_assert_eq!(agree_vouched::<Value>(text.as_bytes()).is_ok(), true);
            let _ = agree_vouched::<Program>(text.as_bytes());
            let _ = agree_vouched::<Request>(text.as_bytes());
            let _ = agree_vouched::<CacheEntry>(text.as_bytes());
            let _ = agree_vouched::<Vec<Option<f64>>>(text.as_bytes());
            let _ = agree_vouched::<std::collections::BTreeMap<String, Value>>(text.as_bytes());
            for cut in (0..text.len()).step_by(97) {
                let _ = agree_vouched::<Expr>(&text.as_bytes()[..cut]);
            }
            // The random tree as a request's program, where the vouching
            // callback is consulted.
            let line = format!(r#"{{"op":"solve","program":{text}}}"#);
            let _ = agree_vouched::<Request>(line.as_bytes());
        }
    }
}

#[test]
fn typed_errors_are_short_payload_free_and_depth_limited() {
    // A megabyte where a field should be: the error names the path and
    // the JSON type, never the content.
    let payload = format!("[{}]", vec!["\"PAYLOAD\""; 120_000].join(","));
    assert!(payload.len() > 1_000_000);
    let quick = serde_json::to_string(&kfuse_workloads::by_name("quickstart").unwrap()).unwrap();
    for doc in [
        payload.clone(),
        quick.replacen("\"quickstart\"", &payload, 1),
        quick.replacen("\"Add\"", &payload, 1),
        quick.replacen("{\"Const\":1.0}", &format!("{{\"Const\":{payload}}}"), 1),
        quick.replacen("\"Add\"", &format!("\"{}\"", "x".repeat(1_000_000)), 1),
        format!("{{\"{}\":1}}", "k".repeat(1_000_000)),
    ] {
        let e = agree::<Program>(doc.as_bytes()).unwrap_err();
        assert!(e.len() <= 200, "{} bytes: {e}", e.len());
        assert!(
            !e.contains("PAYLOAD") && !e.contains("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
            "{e}"
        );
    }
    // What killed the daemon once, and its typed twin: an `Expr` opening
    // 100 000 levels. Ordinary errors on both routes, for any target type.
    for doc in ["[".repeat(2_000_000), "{\"Bin\":{\"lhs\":".repeat(100_000)] {
        for e in [
            agree::<Value>(doc.as_bytes()),
            agree::<Program>(doc.as_bytes()),
            agree::<Expr>(doc.as_bytes()),
            agree::<Request>(doc.as_bytes()),
        ] {
            let e = e.unwrap_err();
            assert!(
                e.starts_with("nesting deeper than 128 levels at byte "),
                "{e}"
            );
        }
    }
    // The deepest expression that does parse, on both routes.
    let deepest = "{\"Bin\":{\"op\":\"Add\",\"rhs\":{\"Const\":1.0},\"lhs\":".repeat(63)
        + "{\"Const\":2.0}"
        + &"}}".repeat(63);
    assert!(agree::<Expr>(deepest.as_bytes()).is_ok());
}

/// The linear-scaling gate of the tree parser, for the typed one: a
/// program of four times the kernels parses in about four times the time.
#[test]
fn typed_program_parse_time_scales_linearly_with_input_size() {
    let doc = |kernels: usize| {
        serde_json::to_string(&kfuse_workloads::by_name(&format!("synth{kernels}")).unwrap())
            .unwrap()
    };
    let mut n = 300;
    loop {
        let (small, large) = (doc(n), doc(4 * n));
        assert!(large.len() > 3 * small.len() && large.len() < 5 * small.len());
        let time = |text: &str| {
            let t = std::time::Instant::now();
            let p: Program = serde_json::from_str(text).unwrap();
            let dt = t.elapsed().as_secs_f64();
            assert!(!p.kernels.is_empty());
            dt
        };
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            best = (best.0.min(time(&small)), best.1.min(time(&large)));
        }
        if best.0 < 5e-3 && 8 * n <= 20_000 {
            n *= 2;
            continue;
        }
        assert!(
            best.1 <= 8.0 * best.0,
            "{} B parse in {:.4} s but {} B in {:.4} s",
            small.len(),
            best.0,
            large.len(),
            best.1
        );
        break;
    }
}

/// The skip route, leaf by leaf, against the tree route: each leaf alone
/// and where a value stands in arrays and objects (so the byte it ends at
/// matters), and whether the tree route takes it at all.
fn leaf_agrees(leaf: &str) -> bool {
    for doc in [
        leaf.to_string(),
        format!("[{leaf}]"),
        format!("[ {leaf} ,0]"),
        format!("{{\"k\":{leaf}}}"),
        format!("{{\"k\" : {leaf} ,\"j\":[]}}"),
    ] {
        skip_agrees(doc.as_bytes(), &serde_json::from_str(&doc));
    }
    serde_json::from_str::<Value>(leaf).is_ok()
}

/// `parse_number` converts the text its grammar reads — an optional `-`,
/// digits, an optional `.` and digits, an optional exponent — and the
/// skip route checks that grammar without converting: a mantissa digit
/// and, with an exponent, an exponent digit. A value cannot start with
/// `.`, so `.5` fails where `-.5` passes.
#[test]
fn skip_route_reads_every_number_form_as_the_tree_route_does() {
    for (leaf, accepted) in [
        ("1.", true),
        ("-1.", true),
        (".5", false),
        ("-.5", true),
        ("1.e5", true),
        ("1.e", false),
        ("1e", false),
        ("1e+", false),
        (".", false),
        ("-.", false),
        ("-", false),
        ("-e5", false),
        ("00", true),
        ("-00", true),
        ("9999999999999999999999", true),
        ("1e400", true),
        ("0.0e-0", true),
        ("-0", true),
        ("1E+2", true),
        ("+1", false),
    ] {
        assert_eq!(leaf_agrees(leaf), accepted, "{leaf}");
    }
}

/// Escapes, keywords, and brackets and separators in every wrong place,
/// with the whitespace JSON allows around each.
#[test]
fn skip_route_reads_every_string_keyword_and_bracket_as_the_tree_route_does() {
    for (leaf, accepted) in [
        ("[[],{}]", true),
        ("{\"a\":[{}],\"b\":{\"c\":[]}}", true),
        ("[ \t\n\r1 , [ 2 ] ]", true),
        ("{ \"a\" :\n1 ,\r\"b\"\t: { } }", true),
        ("[1}", false),
        ("{\"a\":1]", false),
        ("[{]", false),
        ("{\"a\":[}", false),
        ("[1,]", false),
        ("[,1]", false),
        ("[1 2]", false),
        ("[[]", false),
        ("{\"a\":1,}", false),
        ("{,}", false),
        ("{\"a\" 1}", false),
        ("{\"a\":}", false),
        ("{\"a\"}", false),
        ("{\"a\":1 \"b\":2}", false),
        ("{\"a\":{}", false),
        ("{1:1}", false),
        ("{a:1}", false),
        ("[\"a\":1]", false),
        (r#""\"\\\/\b\f\n\r\t""#, true),
        (r#""éÉ\u0000""#, true),
        (r#""😀""#, true),
        (r#""\ud83d""#, false),
        (r#""\ud83dx""#, false),
        (r#""\ud83dA""#, false),
        (r#""\ud83d\ud83d""#, false),
        (r#""\ude00""#, false),
        (r#""\ude00\ud83d""#, false),
        (r#""\u12""#, false),
        (r#""\u""#, false),
        (r#""\ud83d\u12""#, false),
        (r#""\u+123""#, false),
        (r#""\u-123""#, false),
        (r#""\u12g4""#, false),
        (r#""\x""#, false),
        (r#""\"#, false),
        (r#""abc"#, false),
        ("\"\\\u{1}\"", false),
        ("\"\\\u{e9}\"", false),
        ("true", true),
        ("false", true),
        ("null", true),
        ("tru", false),
        ("nul", false),
        ("falsy", false),
        ("True", false),
    ] {
        assert_eq!(leaf_agrees(leaf), accepted, "{leaf}");
    }
}

/// Nesting at the limit and one past it, in arrays, in objects and in
/// both; and under a typed reader, whose unknown-key skip starts one
/// level down.
#[test]
fn skip_route_nests_to_the_tree_routes_limit() {
    for depth in [1, 127, 128, 129, 200] {
        for (open, leaf, close) in [
            ("[", "", "]"),
            ("{\"k\":", "0", "}"),
            ("[{\"k\":", "0", "}]"),
        ] {
            let levels = open.matches(['[', '{']).count();
            let doc = open.repeat(depth / levels) + leaf + &close.repeat(depth / levels);
            assert_eq!(
                leaf_agrees(&doc),
                depth / levels * levels <= 128,
                "{depth} {open}"
            );
        }
        let line = format!(
            r#"{{"op":"ping","x":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        assert_eq!(
            agree::<Request>(line.as_bytes()).is_ok(),
            depth < 128,
            "{depth}"
        );
    }
}

/// A request line carrying the inline `synth40` program, cut at every
/// byte: inside every key, string, number, keyword and bracket run. Each
/// cut parses its prefix into a tree, so a debug build takes every cut of
/// the first 2 KiB and every 29th after that; `run_experiments.sh` runs
/// this test optimized, at every byte.
#[test]
fn skip_route_reads_every_prefix_of_a_request_line_as_the_tree_route_does() {
    let program = serde_json::to_string(&kfuse_workloads::by_name("synth40").unwrap()).unwrap();
    let line = format!(r#"{{"id":"h1","op":"solve","program":{program},"gpu":"k20x","seed":3}}"#);
    let step = if cfg!(debug_assertions) { 29 } else { 1 };
    for cut in (0..2048).chain((2048..=line.len()).step_by(step)) {
        let doc = &line.as_bytes()[..cut];
        let tree = serde_json::from_slice::<Value>(doc);
        assert_eq!(tree.is_ok(), cut == line.len());
        skip_agrees(doc, &tree);
    }
}
