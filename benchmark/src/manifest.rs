//! The files the runner (`kfuse-e2e`) and the adapter (`kfuse-layers`)
//! exchange inside one run directory. Everything is JSONL — one record
//! per line — because the vendored JSON parser is quadratic in document
//! size and the benchmark must not spend its own time there.
//!
//! ```text
//! <dir>/manifest.json      Manifest          adapter -> runner
//! <dir>/ops.jsonl          Op per line       adapter -> runner   (timed)
//! <dir>/warmup.jsonl       Op per line       adapter -> runner   (untimed)
//! <dir>/programs/<key>.json  compact kfuse_ir::Program JSON
//! <dir>/cache/plans.jsonl  pre-populated plan cache (serving workloads)
//! <dir>/results.jsonl      OpResult per line runner  -> adapter
//! <dir>/results/<id>.plan.json, <id>.out   CLI artefacts
//! <dir>/verdicts.jsonl     Verdict per line  adapter -> runner
//! <dir>/layers.json        LayerReport       adapter -> runner   (traced run)
//! ```

// Shared by two binaries; each uses its own half.
#![allow(dead_code)]

use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::path::Path;

/// The four workloads, in the order every report lists them.
pub const WORKLOADS: [&str; 4] = ["cold_mid", "cold_large", "serve_hot", "serve_churn"];

/// Run-level facts the runner needs to drive a workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    pub workload: String,
    pub seed: u64,
    /// Operation-count scale relative to the reference list (1.0).
    pub scale: f64,
    /// `"cli"` (one `kfuse solve` process per op) or `"serve"` (wire
    /// protocol against one `kfuse serve` daemon).
    pub mode: String,
    /// Requests each connection keeps outstanding (serving workloads).
    pub window: u64,
    /// Entries pre-populated into `<dir>/cache` (0 = the daemon gets none).
    pub cache_entries: u64,
}

/// One operation of a workload's fixed list.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Op {
    /// `op0000`…, also the wire correlation id.
    pub id: String,
    /// `"cli"`, `"solve"` or `"verify"`.
    pub kind: String,
    /// Reporting class: the program name for cold workloads, the intended
    /// cache outcome (`hit`/`near`/`novel`/`verify`) for serving ones.
    pub class: String,
    /// Key of `<dir>/programs/<key>.json`.
    pub program: String,
    /// Solver seed handed to the program under test.
    pub seed: u64,
    /// `verify` only: the plan to check.
    #[serde(default)]
    pub plan: Option<Vec<Vec<u32>>>,
    /// The verdict the benchmark itself reached for this op: `"ok"` or a
    /// wire error code such as `"verifier_rejected"`.
    pub expect: String,
}

/// What the runner observed for one op (no interpretation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpResult {
    pub id: String,
    /// `"done"`, `"timeout"`, `"spawn_error"` or `"io_error"`.
    pub status: String,
    /// CLI exit code (`-1` when killed by a signal or not applicable).
    pub exit: i64,
    /// Raw wire response line (serving workloads).
    #[serde(default)]
    pub response: Option<String>,
}

/// The adapter's judgement of one op.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Verdict {
    pub id: String,
    pub pass: bool,
    /// Empty when `pass`; otherwise the first check that failed.
    pub why: String,
    /// identity-plan objective / returned-plan objective, both under
    /// `ProposedModel`, re-evaluated here; 0.0 for ops that return no plan.
    pub speedup: f64,
    /// Wire `result.outcome` (`exact_hit`/`warm_start`/`cold`/`uncached`),
    /// `"verify"` for verify ops, `"cli"` for CLI ops, `""` when unknown.
    pub outcome: String,
    /// Wire `result.generations` (0 for CLI ops: the table is not parsed).
    pub generations: u64,
}

/// Per-layer numbers from the traced replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerReport {
    /// `(metric name, value)`; names are the `per_layer` names of
    /// BENCHMARK.json that the adapter can measure in-process.
    pub metrics: Vec<(String, f64)>,
    /// `(op id, replayed layer sum in seconds)` for the overhead metrics.
    pub op_layer_sum_s: Vec<(String, f64)>,
    /// `(layer span name, total self time in seconds)`, largest first.
    pub self_time_s: Vec<(String, f64)>,
    /// Wall of the whole replay.
    pub replay_wall_s: f64,
}

pub fn read_jsonl<T: Deserialize>(path: &Path) -> Result<Vec<T>, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in std::io::BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            serde_json::from_str(&line)
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?,
        );
    }
    Ok(out)
}

pub fn write_jsonl<T: Serialize>(path: &Path, items: &[T]) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(f);
    for it in items {
        let line = serde_json::to_string(it).map_err(|e| e.to_string())?;
        writeln!(w, "{line}").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_json<T: Serialize>(path: &Path, item: &T) -> Result<(), String> {
    let text = serde_json::to_string(item).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The wire request line for `op`, given its program's JSON text. Built by
/// concatenation: the program text is sent exactly as `gen` wrote it.
pub fn request_line(op: &Op, program_json: &str) -> String {
    match &op.plan {
        Some(plan) => format!(
            "{{\"id\":\"{}\",\"op\":\"verify\",\"plan\":{},\"program\":{}}}",
            op.id,
            serde_json::to_string(plan).expect("a plan serializes"),
            program_json
        ),
        None => format!(
            "{{\"id\":\"{}\",\"op\":\"solve\",\"seed\":{},\"program\":{}}}",
            op.id, op.seed, program_json
        ),
    }
}
