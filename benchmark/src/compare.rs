//! `results.json` (written by the ledger mode) and `--compare A B`: the
//! tool for "two sets of runs agree" and for every later parent-vs-change
//! run. One row per (end-to-end metric, workload); ratios are averaged
//! geometrically within a workload only, never across workloads.

use crate::stats;
use crate::{Report, END_TO_END, EXACT_SPEEDUP, PER_LAYER};
use serde_json::{Map, Number, Value};
use std::path::Path;
use std::process::ExitCode;

fn num(v: f64) -> Value {
    Value::Number(Number::from_f64(v))
}

fn series(runs: &[Report], pick: impl Fn(&Report) -> &[(&'static str, f64)]) -> Value {
    let mut m = Map::new();
    for (i, (name, _)) in pick(&runs[0]).iter().enumerate() {
        m.insert(
            name.to_string(),
            Value::Array(runs.iter().map(|r| num(pick(r)[i].1)).collect()),
        );
    }
    Value::Object(m)
}

/// One array of values (one per repetition) per metric per workload.
pub fn write_results(
    path: &Path,
    header: &str,
    seed: u64,
    scale: f64,
    reports: &[(String, Vec<Report>)],
) -> Result<(), String> {
    let mut workloads = Map::new();
    for (w, runs) in reports {
        let last = runs.last().expect("at least one run");
        let mut m = Map::new();
        m.insert("attempted".into(), num(last.attempted as f64));
        m.insert(
            "failed".into(),
            num(runs.iter().map(|r| r.failed).sum::<usize>() as f64),
        );
        m.insert("tail_percentile".into(), num(last.tail_percentile));
        m.insert(
            "inputs_digest".into(),
            Value::String(format!("{:016x}", last.inputs_digest)),
        );
        m.insert("end_to_end".into(), series(runs, |r| &r.end_to_end));
        m.insert("per_layer".into(), series(runs, |r| &r.per_layer));
        m.insert(
            "failed_ids".into(),
            Value::Array(
                runs.iter()
                    .flat_map(|r| &r.failed_ids)
                    .map(|s| Value::String(s.clone()))
                    .collect(),
            ),
        );
        m.insert(
            "ledger".into(),
            Value::Array(
                last.self_time_s
                    .iter()
                    .map(|(n, s)| Value::Array(vec![Value::String(n.clone()), num(*s)]))
                    .collect(),
            ),
        );
        workloads.insert(w.clone(), Value::Object(m));
    }
    let mut root = Map::new();
    root.insert("header".into(), Value::String(header.to_string()));
    root.insert("seed".into(), num(seed as f64));
    root.insert("scale".into(), num(scale));
    root.insert("workloads".into(), Value::Object(workloads));
    let text = serde_json::to_string_pretty(&Value::Object(root)).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values(v: &Value) -> Vec<f64> {
    v.as_array()
        .map_or_else(Vec::new, |a| a.iter().filter_map(Value::as_f64).collect())
}

/// `ok`, `regressed`, or `unresolved` for one row, following the guide:
/// a spread wider than the bound is `unresolved` unless every run of the
/// change reads better than every run of the parent.
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (&'static str, f64, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if ma == 0.0 {
        // Only `failed_share` is 0 on a healthy tree: any rise regresses.
        if (mb > ma) == lower_is_better && mb != ma {
            f64::INFINITY
        } else {
            0.0
        }
    } else if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let all_better = a.iter().all(|x| {
        b.iter()
            .all(|y| if lower_is_better { y < x } else { y > x })
    });
    let v = if spread > bound && bound > 0.0 {
        if all_better {
            "ok"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    };
    (v, worse_by, spread)
}

pub fn mode_compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("# A = {}\n# B = {}", a_path.display(), b_path.display());
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let mut regressed = 0;
    let workloads = a["workloads"].as_object().ok_or("A has no `workloads`")?;
    for (w, wa) in workloads.iter() {
        let wb = &b["workloads"][w.as_str()];
        if wb.is_null() {
            println!("{w:<12} missing from B");
            regressed += 1;
            continue;
        }
        if wa["inputs_digest"] != wb["inputs_digest"] {
            println!("{w:<12} note: inputs_digest differs (different seed or scale) — rows compare different inputs");
        }
        let mut gains = Vec::new();
        for (name, _unit, better, bound) in END_TO_END {
            let (va, vb) = (
                values(&wa["end_to_end"][name]),
                values(&wb["end_to_end"][name]),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{w:<12} {name:<18} missing");
                regressed += 1;
                continue;
            }
            let lower = better == "lower";
            let bound = if name == "projected_speedup" && EXACT_SPEEDUP.contains(&w.as_str()) {
                0.0
            } else {
                bound
            };
            let (v, worse_by, spread) = verdict(&va, &vb, lower, bound);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            if ma > 0.0 && mb > 0.0 {
                gains.push(if lower { ma / mb } else { mb / ma });
            }
            regressed += (v == "regressed") as usize;
            println!(
                "{w:<12} {name:<18} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>7.2}% {:>6.1}%  {v}",
                worse_by * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
        println!(
            "{w:<12} geometric mean gain of B over A (this workload only): {:.4}x",
            stats::geomean(&gains)
        );
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// BENCHMARK.json repeats the metric tables of `main.rs`; fail loudly if
/// the two drift. Its `bound` is the driver's gate, which is never
/// tighter than the bound `--compare` applies and at most 0.25. A missing
/// file is not an error (the runner also works from a bare checkout of
/// `benchmark/`).
pub fn check_benchmark_json(path: &Path) -> Result<(), String> {
    if !path.is_file() {
        return Ok(());
    }
    let v = load(path)?;
    let rows = |key: &str| -> Vec<(String, String, String, f64)> {
        v[key].as_array().map_or_else(Vec::new, |a| {
            a.iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().unwrap_or("").to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m["bound"].as_f64().unwrap_or(-1.0),
                    )
                })
                .collect()
        })
    };
    let got_e2e = rows("end_to_end");
    let want_e2e: Vec<_> = END_TO_END
        .iter()
        .filter(|(n, ..)| *n != "failed_share")
        .collect();
    let same = got_e2e.len() == want_e2e.len()
        && got_e2e.iter().zip(&want_e2e).all(|(g, w)| {
            (g.0.as_str(), g.1.as_str(), g.2.as_str()) == (w.0, w.1, w.2)
                && (w.3..=0.25).contains(&g.3)
        });
    if !same {
        return Err(format!("BENCHMARK.json end_to_end differs from main.rs::END_TO_END:\n  file {got_e2e:?}\n  code {want_e2e:?}"));
    }
    let got_layers: Vec<(String, String, String)> = rows("per_layer")
        .into_iter()
        .map(|(n, u, b, _)| (n, u, b))
        .collect();
    let want_layers: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    if got_layers != want_layers {
        return Err("BENCHMARK.json per_layer differs from main.rs::PER_LAYER".into());
    }
    println!("selftest: BENCHMARK.json repeats the metric tables of main.rs");
    Ok(())
}
