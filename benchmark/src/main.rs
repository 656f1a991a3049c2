//! `kfuse-e2e` — the end-to-end planning benchmark's runner.
//!
//! Drives only the two stable outer interfaces of the system: the `kfuse`
//! binary (`kfuse solve FILE --solver hgga-hier --seed S --plan-out P`)
//! and the SERVING.md wire protocol v1 against a real `kfuse serve`
//! process. It imports nothing from the library; input generation, the
//! correctness check and the traced replay are the `kfuse-layers` binary
//! (`layers.rs`), reached as a subprocess over files (`manifest.rs`).
//!
//! Modes (see `run.sh` and README.md):
//!
//! ```text
//! kfuse-e2e --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! kfuse-e2e [--seed N] [--reps R] [--smoke]                  the ledger: all workloads, traced
//! kfuse-e2e --compare A.json B.json                          parent-vs-change verdicts
//! ```
//!
//! `--smoke` ends with the self-test: the checker must catch three faults
//! planted into the smoke run's own `serve_churn` results.

mod compare;
mod harness;
mod manifest;
mod stats;

use harness::{Connection, Daemon, TempDir, Watchdog};
use manifest::{LayerReport, Manifest, Op, OpResult, Verdict, WORKLOADS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `--seconds` at which the operation lists have their reference length
/// (`run_seconds` in BENCHMARK.json): the longest timed section, that of
/// `cold_large`, lasts this long on the reference box. The lists are
/// fixed per seed, not cut off by a clock: `--seconds` scales their
/// length, so parent and change always measure the same operations.
pub const RUN_SECONDS: f64 = 25.0;

/// Hard per-operation timeout; an op that hits it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// `(name, unit, better, bound)`: ISSUE 11's table. These are the bounds
/// `--compare` judges two sets of runs of one seed by; a row whose
/// spread exceeds its bound reads `unresolved`, never unchanged.
/// BENCHMARK.json lists the same names, units and directions
/// (the self-test checks that), with `failed_share` — 0 on a healthy tree,
/// which the driver's contract rules out for an end-to-end metric — among
/// the `per_layer` rows, and with the driver's own gate as `bound`
/// (README.md, "Two bounds").
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("setup_s", "s", "lower", 0.15),
    ("plans_per_s", "1/s", "higher", 0.10),
    ("latency_p50_s", "s", "lower", 0.10),
    ("latency_tail_s", "s", "lower", 0.10),
    ("cpu_s_per_plan", "s", "lower", 0.10),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("projected_speedup", "ratio", "higher", 0.02),
    ("failed_share", "fraction", "lower", 0.0),
];

/// Workloads whose `projected_speedup` must repeat bit for bit for one
/// seed (no cache races): `--compare` holds them to a bound of zero.
pub const EXACT_SPEEDUP: [&str; 3] = ["cold_mid", "cold_large", "serve_hot"];

/// `(name, unit, better)`, in report order. The first block comes from
/// the traced replay (`kfuse-layers trace`), the `serve.`/`cli.`/`bench.`
/// blocks from this file.
pub const PER_LAYER: [(&str, &str, &str); 74] = [
    ("ir.parse_s", "s", "lower"),
    ("ir.parse_bytes", "B", "lower"),
    ("ir.parse_mb_per_s", "MB/s", "higher"),
    ("ir.validate_s", "s", "lower"),
    ("core.relax_s", "s", "lower"),
    ("core.metadata_s", "s", "lower"),
    ("core.graphs_s", "s", "lower"),
    ("core.prepare_s", "s", "lower"),
    ("core.fingerprint_s", "s", "lower"),
    ("core.plan_validate_s", "s", "lower"),
    ("core.plan_serialize_s", "s", "lower"),
    ("core.plan_bytes", "B", "lower"),
    ("core.apply_plan_s", "s", "lower"),
    ("search.solve_s", "s", "lower"),
    ("search.solve_share", "fraction", "lower"),
    ("search.generations", "count", "lower"),
    ("search.memo_probes", "count", "lower"),
    ("search.memo_hit_rate", "fraction", "higher"),
    ("search.evals_per_s", "1/s", "higher"),
    ("search.miss_ns_per_eval", "ns", "lower"),
    ("search.avg_batch_fill", "count", "higher"),
    ("search.partition_s", "s", "lower"),
    ("search.regions", "count", "lower"),
    ("search.regions_solved", "count", "lower"),
    ("search.boundary_share", "fraction", "lower"),
    ("search.stitch_merges", "count", "higher"),
    ("search.solve_minus_partition_s", "s", "lower"),
    ("search.greedy_s", "s", "lower"),
    ("search.objective_vs_greedy", "ratio", "lower"),
    ("search.gap_vs_exhaustive", "fraction", "lower"),
    ("search.cache_open_s", "s", "lower"),
    ("search.cache_entries", "count", "higher"),
    ("search.cache_file_bytes", "B", "lower"),
    ("search.cache_lookup_exact_s", "s", "lower"),
    ("search.cache_lookup_near_s", "s", "lower"),
    ("search.cache_region_fps_s", "s", "lower"),
    ("search.cache_insert_s", "s", "lower"),
    ("search.warm_solve_s", "s", "lower"),
    ("search.warm_vs_cold_wall", "ratio", "lower"),
    ("verifier.check_plan_s", "s", "lower"),
    ("verifier.diagnostics", "count", "lower"),
    ("sim.simulated_speedup", "ratio", "higher"),
    ("sim.simulate_s", "s", "lower"),
    ("serve.ping_rtt_s", "s", "lower"),
    ("serve.exact_hit_share", "fraction", "higher"),
    ("serve.warm_start_share", "fraction", "higher"),
    ("serve.cold_share", "fraction", "lower"),
    ("serve.hit_latency_p50_s", "s", "lower"),
    ("serve.near_latency_p50_s", "s", "lower"),
    ("serve.miss_latency_p50_s", "s", "lower"),
    ("serve.verify_latency_p50_s", "s", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.generations_total", "count", "lower"),
    ("serve.overhead_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    // Median latency per program of the cold workloads: their op lists
    // are too short for a high tail percentile (`latency_tail_s` is p75
    // on `cold_mid` and p50 on `cold_large`), so the large programs show
    // here.
    ("cli.p50_s.synth100", "s", "lower"),
    ("cli.p50_s.scale-les", "s", "lower"),
    ("cli.p50_s.synth60", "s", "lower"),
    ("cli.p50_s.suite", "s", "lower"),
    ("cli.p50_s.homme", "s", "lower"),
    ("cli.p50_s.rk3", "s", "lower"),
    ("cli.p50_s.clustered2000", "s", "lower"),
    ("cli.p50_s.clustered1000", "s", "lower"),
    ("cli.p50_s.clustered500", "s", "lower"),
    ("failed_share", "fraction", "lower"),
    ("bench.unattributed_share", "fraction", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.cpu_vs_replay_ratio", "ratio", "lower"),
    ("bench.ops", "count", "higher"),
    ("bench.timed_wall_s", "s", "lower"),
    ("bench.replay_wall_s", "s", "lower"),
    ("bench.tail_percentile", "percentile", "higher"),
    ("bench.setup_gen_s", "s", "lower"),
    ("bench.check_s", "s", "lower"),
];

// ---------------------------------------------------------------------

/// Where the three binaries and the scratch space live. All paths are
/// relative to the working directory (the checkout root): the socket path
/// must stay short, and nothing outside the checkout is touched.
struct Env {
    kfuse: PathBuf,
    layers: PathBuf,
    out: PathBuf,
}

impl Env {
    fn locate() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin = exe.parent().ok_or("the runner has no parent directory")?;
        let env = Env {
            kfuse: bin.join("kfuse"),
            layers: bin.join("kfuse-layers"),
            out: PathBuf::from("benchmark/out"),
        };
        for p in [&env.kfuse, &env.layers] {
            if !p.is_file() {
                return Err(format!(
                    "{} not found — build through benchmark/run.sh",
                    p.display()
                ));
            }
        }
        Ok(env)
    }

    fn layers(&self, args: &[&str]) -> Result<(), String> {
        let status = Command::new(&self.layers)
            .args(args)
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", self.layers.display()))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("kfuse-layers {} failed ({status})", args[0]))
        }
    }
}

/// One timed operation, as observed.
struct Sample {
    latency_s: f64,
    result: OpResult,
}

/// What the runner learns from the daemon besides the responses.
struct ServeSide {
    ping_rtt_s: f64,
    /// `stats` counters before and after the timed section.
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
}

/// Everything one pass over a workload produced.
struct Pass {
    ops: Vec<Op>,
    samples: Vec<Sample>,
    verdicts: Vec<Verdict>,
    setup_s: f64,
    setup_gen_s: f64,
    check_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    inputs_digest: u64,
    /// Serving workloads only.
    serve: Option<ServeSide>,
    layers: Option<LayerReport>,
    /// The run directory lives as long as the pass (the self-test re-checks
    /// in it).
    scratch: TempDir,
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The materialised inputs of a run: request lines (serving) or argument
/// vectors (CLI), in op order.
struct Inputs {
    manifest: Manifest,
    ops: Vec<Op>,
    warmup: Vec<Op>,
    /// Wire request line per op / warm-up op (empty for CLI workloads).
    lines: Vec<String>,
    warm_lines: Vec<String>,
    digest: u64,
}

fn load_inputs(dir: &Path) -> Result<Inputs, String> {
    let manifest: Manifest = manifest::read_json(&dir.join("manifest.json"))?;
    let ops: Vec<Op> = manifest::read_jsonl(&dir.join("ops.jsonl"))?;
    let warmup: Vec<Op> = manifest::read_jsonl(&dir.join("warmup.jsonl"))?;
    let mut texts: HashMap<String, String> = HashMap::new();
    for op in ops.iter().chain(&warmup) {
        if !texts.contains_key(&op.program) {
            let path = dir.join("programs").join(format!("{}.json", op.program));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            texts.insert(op.program.clone(), text);
        }
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let serve = manifest.mode == "serve";
    let line_of = |op: &Op| manifest::request_line(op, &texts[&op.program]);
    let mut lines = Vec::new();
    for op in &ops {
        if serve {
            let line = line_of(op);
            digest = fnv1a(digest, line.as_bytes());
            lines.push(line);
        } else {
            digest = fnv1a(digest, format!("{}|{}|", op.id, op.seed).as_bytes());
            digest = fnv1a(digest, texts[&op.program].as_bytes());
        }
    }
    let warm_lines = if serve {
        warmup.iter().map(line_of).collect()
    } else {
        Vec::new()
    };
    Ok(Inputs {
        manifest,
        ops,
        warmup,
        lines,
        warm_lines,
        digest,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `"id":"…"` of a response line (responses start with the id field).
fn response_id(line: &str) -> Option<&str> {
    line.strip_prefix("{\"id\":\"")?.split('"').next()
}

fn stats_counters(conn: &mut Connection) -> Result<HashMap<String, f64>, String> {
    let line = conn.request("{\"id\":\"stats\",\"op\":\"stats\"}")?;
    let v: serde_json::Value =
        serde_json::from_str(&line).map_err(|e| format!("stats response: {e}"))?;
    let counters = v["result"]["metrics"]["counters"]
        .as_object()
        .ok_or("stats response lacks counters")?;
    Ok(counters
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

/// What one set-up leaves behind.
struct SetUp {
    inputs: Inputs,
    /// Serving workloads: the warmed daemon.
    daemon: Option<Daemon>,
    ping_rtt_s: f64,
    /// The part of the set-up spent in `kfuse-layers gen`.
    gen_s: f64,
}

/// The set-up: generate inputs and, for serving workloads, bring up a
/// daemon and have it solve the hot set.
fn set_up(env: &Env, dir: &Path, workload: &str, seed: u64, scale: f64) -> Result<SetUp, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let dir_s = dir.to_str().ok_or("non-UTF-8 scratch path")?;
    let t0 = Instant::now();
    env.layers(&[
        "gen",
        "--dir",
        dir_s,
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--scale",
        &scale.to_string(),
    ])?;
    let gen_s = t0.elapsed().as_secs_f64();
    let inputs = load_inputs(dir)?;
    if inputs.manifest.mode != "serve" {
        return Ok(SetUp {
            inputs,
            daemon: None,
            ping_rtt_s: 0.0,
            gen_s,
        });
    }
    // The hot set is solved by a daemon of its own, then that daemon is
    // drained. The daemon under measurement starts on the cache it left,
    // as a restarted service does, and answers the same requests once more
    // as hits (which also makes it load the cache file): what it holds at
    // the end of a run is then what serving took, not what set-up's
    // searches left in the allocator (150–200 MiB, differently each run).
    let start = || {
        Daemon::start(
            &env.kfuse,
            &dir.join("k.sock"),
            &dir.join("cache"),
            nproc(),
            &dir.join("daemon.log"),
        )
    };
    // One at a time on one connection: what a solve finds in the cache
    // then depends on the request order only, not on worker timing.
    let warm_up = |daemon: &Daemon| -> Result<Connection, String> {
        let mut conn = Connection::open(&daemon.socket, OP_TIMEOUT)?;
        for (op, line) in inputs.warmup.iter().zip(&inputs.warm_lines) {
            let resp = conn.request(line)?;
            if !resp.contains("\"ok\":true") {
                return Err(format!("warm-up request {} was not served: {resp}", op.id));
            }
        }
        Ok(conn)
    };
    let solver = start()?;
    drop(warm_up(&solver)?);
    Daemon::shutdown(solver)?;
    let daemon = start()?;
    let mut conn = warm_up(&daemon)?;
    let mut rtts = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        conn.request("{\"id\":\"ping\",\"op\":\"ping\"}")?;
        rtts.push(t.elapsed().as_secs_f64());
    }
    Ok(SetUp {
        inputs,
        daemon: Some(daemon),
        ping_rtt_s: stats::median(&rtts),
        gen_s,
    })
}

/// The timed section of a CLI workload: `nproc` client threads, closed
/// loop, each taking the next op of the list when its previous one exits.
/// Returns the samples in op order, the wall, the children's CPU seconds
/// and their largest RSS.
fn timed_cli(env: &Env, dir: &Path, ops: &[Op]) -> (Vec<Sample>, f64, f64, f64) {
    let watchdog = Watchdog::start();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut per_thread: Vec<Vec<(usize, Sample, f64, f64)>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc())
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(op) = ops.get(i) else { break };
                        let results = dir.join("results");
                        let stdout = std::fs::File::create(results.join(format!("{}.out", op.id)));
                        let mut cmd = Command::new(&env.kfuse);
                        cmd.arg("solve")
                            .arg(dir.join("programs").join(format!("{}.json", op.program)))
                            .args([
                                "--solver",
                                "hgga-hier",
                                "--seed",
                                &op.seed.to_string(),
                                "--plan-out",
                            ])
                            .arg(results.join(format!("{}.plan.json", op.id)))
                            .stdin(Stdio::null())
                            .stderr(Stdio::null());
                        let t = Instant::now();
                        let exit = stdout.and_then(|f| watchdog.run(cmd.stdout(f), OP_TIMEOUT));
                        let latency_s = t.elapsed().as_secs_f64();
                        let (status, code, cpu, rss) = match exit {
                            Ok(e) if e.timed_out => ("timeout", e.code, e.cpu_s, e.maxrss_mb),
                            Ok(e) => ("done", e.code, e.cpu_s, e.maxrss_mb),
                            Err(_) => ("spawn_error", -1, 0.0, 0.0),
                        };
                        let result = OpResult {
                            id: op.id.clone(),
                            status: status.into(),
                            exit: code,
                            response: None,
                        };
                        mine.push((i, Sample { latency_s, result }, cpu, rss));
                    }
                    mine
                })
            })
            .collect();
        per_thread = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
    });
    let wall_s = t0.elapsed().as_secs_f64();
    drop(watchdog);
    let mut all: Vec<_> = per_thread.into_iter().flatten().collect();
    all.sort_by_key(|(i, ..)| *i);
    let cpu_s = all.iter().map(|(_, _, c, _)| c).sum();
    let rss = all.iter().map(|(_, _, _, r)| *r).fold(0.0, f64::max);
    (
        all.into_iter().map(|(_, s, _, _)| s).collect(),
        wall_s,
        cpu_s,
        rss,
    )
}

/// The timed section of a serving workload: `nproc` connections, each a
/// closed loop keeping `window` requests outstanding.
fn timed_serve(daemon: &Daemon, inputs: &Inputs) -> Result<(Vec<Sample>, f64), String> {
    let window = inputs.manifest.window.max(1) as usize;
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut per_conn: Vec<Result<Vec<(usize, Sample)>, String>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nproc())
            .map(|_| {
                s.spawn(|| -> Result<Vec<(usize, Sample)>, String> {
                    let mut conn = Connection::open(&daemon.socket, OP_TIMEOUT)?;
                    let mut outstanding: HashMap<&str, (usize, Instant)> = HashMap::new();
                    let mut mine = Vec::new();
                    let mut broken: Option<std::io::ErrorKind> = None;
                    loop {
                        while broken.is_none() && outstanding.len() < window {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let Some(op) = inputs.ops.get(i) else { break };
                            let t = Instant::now();
                            outstanding.insert(&op.id, (i, t));
                            if let Err(e) = conn.send(&inputs.lines[i]) {
                                broken = Some(e.kind());
                            }
                        }
                        if outstanding.is_empty() {
                            break;
                        }
                        let line = match broken {
                            None => conn.recv().map_err(|e| e.kind()),
                            Some(kind) => Err(kind),
                        };
                        match line {
                            Ok(line) => {
                                let now = Instant::now();
                                // A line that answers nothing we sent is dropped;
                                // its request then fails by timeout.
                                if let Some((i, t)) =
                                    response_id(&line).and_then(|id| outstanding.remove(id))
                                {
                                    let result = OpResult {
                                        id: inputs.ops[i].id.clone(),
                                        status: "done".into(),
                                        exit: -1,
                                        response: Some(line),
                                    };
                                    mine.push((
                                        i,
                                        Sample {
                                            latency_s: (now - t).as_secs_f64(),
                                            result,
                                        },
                                    ));
                                }
                            }
                            Err(kind) => {
                                // Timeout or a dead connection fails everything
                                // still outstanding on it.
                                use std::io::ErrorKind::{TimedOut, WouldBlock};
                                let status = if matches!(kind, TimedOut | WouldBlock) {
                                    "timeout"
                                } else {
                                    "io_error"
                                };
                                for (_, (i, t)) in outstanding.drain() {
                                    let result = OpResult {
                                        id: inputs.ops[i].id.clone(),
                                        status: status.into(),
                                        exit: -1,
                                        response: None,
                                    };
                                    mine.push((
                                        i,
                                        Sample {
                                            latency_s: t.elapsed().as_secs_f64(),
                                            result,
                                        },
                                    ));
                                }
                                broken = Some(kind);
                            }
                        }
                    }
                    Ok(mine)
                })
            })
            .collect();
        per_conn = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in per_conn {
        all.extend(r?);
    }
    all.sort_by_key(|(i, _)| *i);
    Ok((all.into_iter().map(|(_, s)| s).collect(), wall_s))
}

/// Set up, run the timed section, check every op outside it, and
/// optionally replay under the tracer.
fn run_pass(env: &Env, workload: &str, seed: u64, scale: f64, trace: bool) -> Result<Pass, String> {
    let t0 = Instant::now();
    let scratch = TempDir(env.out.join("tmp").join(std::process::id().to_string()));
    let dir = scratch.0.join("run");
    let SetUp {
        inputs,
        daemon,
        ping_rtt_s,
        gen_s: setup_gen_s,
    } = set_up(env, &dir, workload, seed, scale)?;
    let setup_s = t0.elapsed().as_secs_f64();
    if trace && daemon.is_some() {
        // The traced replay opens the cache as set-up left it, not as the
        // timed section will leave it.
        std::fs::create_dir_all(dir.join("cache_replay")).map_err(|e| e.to_string())?;
        std::fs::copy(
            dir.join("cache/plans.jsonl"),
            dir.join("cache_replay/plans.jsonl"),
        )
        .map_err(|e| format!("copy cache: {e}"))?;
    }

    let (samples, wall_s, cpu_s, peak_rss_mb, serve) = match daemon {
        None => {
            let (samples, wall_s, cpu_s, rss) = timed_cli(env, &dir, &inputs.ops);
            (samples, wall_s, cpu_s, rss, None)
        }
        Some(daemon) => {
            let mut control = Connection::open(&daemon.socket, OP_TIMEOUT)?;
            let before = stats_counters(&mut control)?;
            let cpu0 = daemon.cpu_s()?;
            let (samples, wall_s) = timed_serve(&daemon, &inputs)?;
            let cpu_s = daemon.cpu_s()? - cpu0;
            let rss = daemon.peak_rss_mb()?;
            let after = stats_counters(&mut control)?;
            drop(control);
            Daemon::shutdown(daemon)?;
            (
                samples,
                wall_s,
                cpu_s,
                rss,
                Some(ServeSide {
                    ping_rtt_s,
                    before,
                    after,
                }),
            )
        }
    };

    let results: Vec<OpResult> = samples.iter().map(|s| s.result.clone()).collect();
    manifest::write_jsonl(&dir.join("results.jsonl"), &results)?;
    let dir_s = dir.to_str().ok_or("non-UTF-8 scratch path")?;
    let t0 = Instant::now();
    env.layers(&["check", "--dir", dir_s])?;
    let check_s = t0.elapsed().as_secs_f64();
    let verdicts: Vec<Verdict> = manifest::read_jsonl(&dir.join("verdicts.jsonl"))?;

    let layers = if trace {
        let out = env.out.join(format!("trace.{workload}.json"));
        env.layers(&[
            "trace",
            "--dir",
            dir_s,
            "--out",
            out.to_str().ok_or("non-UTF-8 out path")?,
        ])?;
        Some(manifest::read_json(&dir.join("layers.json"))?)
    } else {
        None
    };

    Ok(Pass {
        ops: inputs.ops,
        samples,
        verdicts,
        setup_s,
        setup_gen_s,
        check_s,
        wall_s,
        cpu_s,
        peak_rss_mb,
        inputs_digest: inputs.digest,
        serve,
        layers,
        scratch,
    })
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// A pass reduced to named numbers.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub failed_ids: Vec<String>,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    pub tail_percentile: f64,
    /// Latency at p50/p75/p90/p95/p99 and the maximum, for the header.
    pub latency_levels: [f64; 6],
    pub inputs_digest: u64,
    pub self_time_s: Vec<(String, f64)>,
    /// `(op class, ops, median latency)` in first-appearance order.
    pub classes: Vec<(String, usize, f64)>,
}

fn reduce(p: &Pass) -> Report {
    let verdict: HashMap<&str, &Verdict> = p.verdicts.iter().map(|v| (v.id.as_str(), v)).collect();
    let attempted = p.ops.len();
    // An op with no sample (its connection died before it was sent) or no
    // passing verdict is a failure.
    let failed_ids: Vec<String> = p
        .ops
        .iter()
        .filter(|op| !verdict.get(op.id.as_str()).is_some_and(|v| v.pass))
        .map(|op| {
            let why = verdict
                .get(op.id.as_str())
                .map_or("no verdict", |v| v.why.as_str());
            format!("{} ({why})", op.id)
        })
        .collect();
    let failed = failed_ids.len();
    let latency: HashMap<&str, f64> = p
        .samples
        .iter()
        .map(|s| (s.result.id.as_str(), s.latency_s))
        .collect();
    let lat = stats::sorted(&p.samples.iter().map(|s| s.latency_s).collect::<Vec<_>>());
    let tail_percentile = stats::tail_level(lat.len());
    let speedups: Vec<f64> = p
        .verdicts
        .iter()
        .filter(|v| v.pass && v.speedup > 0.0)
        .map(|v| v.speedup)
        .collect();
    let end_to_end = vec![
        ("setup_s", p.setup_s),
        ("plans_per_s", (attempted - failed) as f64 / p.wall_s),
        ("latency_p50_s", stats::percentile(&lat, 50.0)),
        ("latency_tail_s", stats::percentile(&lat, tail_percentile)),
        ("cpu_s_per_plan", p.cpu_s / attempted as f64),
        ("peak_rss_mb", p.peak_rss_mb),
        ("projected_speedup", stats::geomean(&speedups)),
        ("failed_share", failed as f64 / attempted as f64),
    ];

    let mut layer: HashMap<&str, f64> = HashMap::new();
    let mut self_time_s = Vec::new();
    if let Some(l) = &p.layers {
        for (name, value) in &l.metrics {
            if let Some((known, ..)) = PER_LAYER.iter().find(|(n, ..)| n == name) {
                layer.insert(known, *value);
            }
        }
        let pairs: Vec<(f64, f64)> = l
            .op_layer_sum_s
            .iter()
            .filter_map(|(id, sum)| Some((*latency.get(id.as_str())?, *sum)))
            .collect();
        let overhead = stats::median(&pairs.iter().map(|(lat, sum)| lat - sum).collect::<Vec<_>>());
        let (lat_total, sum_total) = pairs
            .iter()
            .fold((0.0, 0.0), |a, (l, s)| (a.0 + l, a.1 + s));
        layer.insert(
            if p.serve.is_some() {
                "serve.overhead_s"
            } else {
                "cli.overhead_s"
            },
            overhead,
        );
        layer.insert(
            "bench.unattributed_share",
            if lat_total > 0.0 {
                1.0 - sum_total / lat_total
            } else {
                0.0
            },
        );
        layer.insert("bench.trace_overhead_ratio", l.replay_wall_s / p.wall_s);
        // CPU the program under test burnt, over the same work replayed
        // alone: above 1 it is co-run slowdown plus process overhead.
        let replay_total: f64 = l.op_layer_sum_s.iter().map(|(_, s)| s).sum();
        layer.insert(
            "bench.cpu_vs_replay_ratio",
            stats::ratio(p.cpu_s, replay_total),
        );
        layer.insert("bench.replay_wall_s", l.replay_wall_s);
        self_time_s = l.self_time_s.clone();
    }
    if let Some(ServeSide {
        ping_rtt_s: ping,
        before,
        after,
    }) = &p.serve
    {
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let solves: Vec<&Verdict> = p
            .verdicts
            .iter()
            .filter(|v| {
                matches!(
                    v.outcome.as_str(),
                    "exact_hit" | "warm_start" | "cold" | "uncached"
                )
            })
            .collect();
        let share = |o: &str| {
            solves.iter().filter(|v| v.outcome == o).count() as f64 / solves.len().max(1) as f64
        };
        let p50 = |o: &str| {
            stats::median(
                &p.verdicts
                    .iter()
                    .filter(|v| v.outcome == o)
                    .filter_map(|v| latency.get(v.id.as_str()).copied())
                    .collect::<Vec<_>>(),
            )
        };
        layer.insert("serve.ping_rtt_s", *ping);
        layer.insert("serve.exact_hit_share", share("exact_hit"));
        layer.insert("serve.warm_start_share", share("warm_start"));
        layer.insert("serve.cold_share", share("cold"));
        layer.insert("serve.hit_latency_p50_s", p50("exact_hit"));
        layer.insert("serve.near_latency_p50_s", p50("warm_start"));
        layer.insert("serve.miss_latency_p50_s", p50("cold"));
        layer.insert("serve.verify_latency_p50_s", p50("verify"));
        // Expected `verifier_rejected` verdicts are counted as rejections by
        // the daemon; only the others are refusals of work.
        let expected = p.ops.iter().filter(|op| op.expect != "ok").count() as f64;
        layer.insert("serve.rejected", delta("requests_rejected") - expected);
        layer.insert("serve.generations_total", delta("generations"));
    }
    let mut classes: Vec<(String, Vec<f64>)> = Vec::new();
    for op in &p.ops {
        let Some(&l) = latency.get(op.id.as_str()) else {
            continue;
        };
        match classes.iter_mut().find(|(c, _)| *c == op.class) {
            Some((_, v)) => v.push(l),
            None => classes.push((op.class.clone(), vec![l])),
        }
    }
    let classes: Vec<(String, usize, f64)> = classes
        .into_iter()
        .map(|(c, v)| (c, v.len(), stats::median(&v)))
        .collect();
    for (class, _, p50) in &classes {
        let name = format!("cli.p50_s.{class}");
        if let Some((known, ..)) = PER_LAYER.iter().find(|(n, ..)| *n == name) {
            layer.insert(known, *p50);
        }
    }
    layer.insert("failed_share", failed as f64 / attempted as f64);
    layer.insert("bench.ops", attempted as f64);
    layer.insert("bench.timed_wall_s", p.wall_s);
    layer.insert("bench.tail_percentile", tail_percentile);
    layer.insert("bench.setup_gen_s", p.setup_gen_s);
    layer.insert("bench.check_s", p.check_s);

    Report {
        classes,
        attempted,
        failed,
        failed_ids,
        end_to_end,
        // A layer a workload bypasses reports 0.
        per_layer: PER_LAYER
            .iter()
            .map(|(n, ..)| (*n, layer.get(n).copied().unwrap_or(0.0)))
            .collect(),
        tail_percentile,
        latency_levels: [50.0, 75.0, 90.0, 95.0, 99.0, 100.0].map(|l| stats::percentile(&lat, l)),
        inputs_digest: p.inputs_digest,
        self_time_s,
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(n, u, ..)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| {
            // JSON has no NaN or infinity; a metric that cannot be computed reads 0.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(n))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn header(digests: &[(String, u64)]) -> String {
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load1: f64 = load
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let mut h = format!(
        "# kfuse-e2e  nproc={}  loadavg={load1}  commit={commit}",
        nproc()
    );
    if load1 > nproc() as f64 {
        h.push_str("\n# warning: load average exceeds nproc; timings will be noisy");
    }
    for (w, d) in digests {
        h.push_str(&format!("\n# inputs_digest {w} {d:016x}"));
    }
    h
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("{name}: cannot parse `{s}`")),
    }
}

/// The contract mode: one workload, one JSON object on the last line.
fn mode_single(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", RUN_SECONDS)?;
    let trace = parsed::<u8>(args, "--trace", 0)? != 0;
    let env = Env::locate()?;
    let pass = run_pass(&env, &workload, seed, seconds / RUN_SECONDS, trace)?;
    let r = reduce(&pass);
    eprintln!("{}", header(&[(workload.clone(), r.inputs_digest)]));
    let [p50, p75, p90, p95, p99, max] = r.latency_levels;
    eprintln!("# latency_s p50={p50} p75={p75} p90={p90} p95={p95} p99={p99} max={max}");
    for id in &r.failed_ids {
        eprintln!("# failed: {id}");
    }
    let metrics: Vec<(&'static str, f64)> = if trace {
        r.per_layer.clone()
    } else {
        r.end_to_end
            .iter()
            .filter(|(n, _)| *n != "failed_share")
            .copied()
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics_json(&metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// The ledger mode: every workload, traced, `--reps` times; prints every
/// metric as `name value unit` and writes `benchmark/out/results.json`.
fn mode_all(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = parsed(args, "--seed", 1)?;
    let reps: usize = parsed(args, "--reps", 1)?;
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if smoke { 0.05 } else { 1.0 };
    let env = Env::locate()?;
    std::fs::create_dir_all(&env.out).map_err(|e| e.to_string())?;
    let mut reports: Vec<(String, Vec<Report>)> = Vec::new();
    for w in WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..reps.max(1) {
            eprintln!("# {w}: run {} of {}", rep + 1, reps.max(1));
            let pass = run_pass(&env, w, seed, scale, true)?;
            if smoke && w == "serve_churn" && rep == 0 {
                selftest(&env, &pass)?;
            }
            runs.push(reduce(&pass));
        }
        reports.push((w.to_string(), runs));
    }
    let digests: Vec<(String, u64)> = reports
        .iter()
        .map(|(w, r)| (w.clone(), r[0].inputs_digest))
        .collect();
    let head = header(&digests);
    println!("{head}");
    let mut failed_total = 0;
    for (w, runs) in &reports {
        let last = runs.last().expect("at least one run");
        println!(
            "\n== {w}  ({} ops, tail = p{}) ==",
            last.attempted, last.tail_percentile
        );
        let med = |pick: &dyn Fn(&Report) -> f64| {
            stats::median(&runs.iter().map(pick).collect::<Vec<_>>())
        };
        for (i, (name, ..)) in END_TO_END.iter().enumerate() {
            println!("{name} {} {}", med(&|r| r.end_to_end[i].1), unit_of(name));
        }
        for (i, (name, ..)) in PER_LAYER.iter().enumerate() {
            // `failed_share` is listed under both headings; print it once.
            if *name != "failed_share" {
                println!("{name} {} {}", med(&|r| r.per_layer[i].1), unit_of(name));
            }
        }
        println!("-- op classes (ops, median latency) --");
        for (class, n, p50) in &last.classes {
            println!("{class} {n} {p50} s");
        }
        println!("-- ledger (self time, traced replay) --");
        for (name, secs) in last.self_time_s.iter().take(6) {
            println!("{name} {secs} s");
        }
        for r in runs {
            failed_total += r.failed;
            for id in &r.failed_ids {
                println!("FAILED {w} {id}");
            }
        }
    }
    compare::write_results(&env.out.join("results.json"), &head, seed, scale, &reports)?;
    println!("\nwrote {}", env.out.join("results.json").display());
    Ok(if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Plant three faults in the otherwise genuine results of a `serve_churn`
/// pass and require the checker to count exactly those in `failed_share`;
/// also require BENCHMARK.json (when present) to repeat the metric tables
/// above.
fn selftest(env: &Env, pass: &Pass) -> Result<(), String> {
    let dir = pass.scratch.0.join("run");
    let mut results: Vec<OpResult> = pass.samples.iter().map(|s| s.result.clone()).collect();
    if results.len() != pass.ops.len() {
        return Err("selftest: the pass lost operations".into());
    }
    let find = |pred: &dyn Fn(&Op) -> bool, what: &str| {
        pass.ops
            .iter()
            .position(pred)
            .ok_or(format!("selftest workload has no {what} op"))
    };
    let solve_a = find(&|o| o.kind == "solve", "solve")?;
    let solve_b = pass
        .ops
        .iter()
        .rposition(|o| o.kind == "solve")
        .expect("found one above");
    let rejected = find(&|o| o.expect == "verifier_rejected", "rejected-verify")?;
    if solve_a == solve_b {
        return Err("selftest workload has a single solve op".into());
    }
    // 1. a corrupted plan: the response is cut mid-way.
    let resp = results[solve_a]
        .response
        .clone()
        .ok_or("no response to corrupt")?;
    results[solve_a].response = Some(resp[..resp.len() / 2].to_string());
    // 2. a non-partition: the first kernel index is duplicated.
    let resp = results[solve_b]
        .response
        .clone()
        .ok_or("no response to corrupt")?;
    results[solve_b].response = Some(resp.replacen("\"groups\":[[", "\"groups\":[[0,", 1));
    // 3. a wrong verify verdict: a rejected plan reported as valid.
    results[rejected].response = Some(format!(
        "{{\"id\":\"{}\",\"ok\":true,\"result\":{{\"program\":\"x\",\"valid\":true,\"errors\":0,\"warnings\":0}}}}",
        pass.ops[rejected].id
    ));
    manifest::write_jsonl(&dir.join("results.jsonl"), &results)?;
    env.layers(&[
        "check",
        "--dir",
        dir.to_str().ok_or("non-UTF-8 scratch path")?,
    ])?;
    let verdicts: Vec<Verdict> = manifest::read_jsonl(&dir.join("verdicts.jsonl"))?;
    let planted = [solve_a, solve_b, rejected];
    for (i, v) in verdicts.iter().enumerate() {
        if v.pass == planted.contains(&i) {
            return Err(format!(
                "selftest: op {} pass={} ({}), planted fault={}",
                v.id,
                v.pass,
                v.why,
                planted.contains(&i)
            ));
        }
    }
    let failed_share = verdicts.iter().filter(|v| !v.pass).count() as f64 / verdicts.len() as f64;
    println!(
        "selftest: 3 planted faults caught, failed_share = {failed_share:.4} over {} ops",
        verdicts.len()
    );
    for &i in &planted {
        println!("  {}: {}", verdicts[i].id, verdicts[i].why);
    }
    compare::check_benchmark_json(Path::new("BENCHMARK.json"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (a, b) = (
            args.get(i + 1).ok_or("--compare A.json B.json")?,
            args.get(i + 2).ok_or("--compare A.json B.json")?,
        );
        return compare::mode_compare(Path::new(a), Path::new(b));
    }
    if args.iter().any(|a| a == "--workload") {
        return mode_single(args);
    }
    mode_all(args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("kfuse-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
