//! The daemon: bounded request queue, worker pool, shared plan caches.
//!
//! Architecture (see DESIGN.md §17 and SERVING.md):
//!
//! ```text
//!  stdin ─┐                       ┌─ worker 0 ─┐
//!  unix ──┼─ handle_line ─ queue ─┼─ worker 1 ─┼─ shared PlanCache(s)
//!  local ─┘   (admission)         └─ worker N ─┘   (one per gpu/precision)
//! ```
//!
//! Admission happens on the *reader* thread, which is also where a
//! request line is read — once, straight into a [`Request`]. The inline
//! program is checked as JSON there, unless the [`ContextMemo`] vouches
//! for its bytes, and kept as its exact text; no `Value` tree of the line
//! is ever built. Control ops (`ping`,
//! `stats`, `shutdown`) are answered inline and never touch the queue;
//! `solve`/`verify` are either enqueued or refused immediately with a
//! structured error ([`ErrorCode::QueueFull`] backpressure when the
//! bounded queue is at capacity, [`ErrorCode::ShuttingDown`] once a
//! drain has begun). Workers pop FIFO, check the request's deadline,
//! solve against the shared per-device [`PlanCache`], and write the
//! response as one `write_all` of a single `\n`-terminated JSONL line —
//! responses from concurrent workers never interleave. A worker answers
//! a repeat of program bytes it already served as an exact hit from the
//! [`ContextMemo`], without parsing them again; it parses the text only
//! on a memo miss.
//!
//! Responses deliberately carry **no wall-clock fields**: with
//! `workers = 1` the daemon's output is bit-for-bit reproducible across
//! runs (given a fresh cache directory), which the integration tests
//! assert. Latency is the client's to measure; the daemon's own telemetry
//! is the metrics registry behind the `stats` op.

use crate::memo::{ContextMemo, Kept, CONTEXT_MEMO_BYTES};
use crate::protocol::{
    error_response, hex_u64, num_f64, num_u64, obj, ok_response, ErrorCode, Request,
    PROTOCOL_VERSION,
};
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{self, SolveOutcome};
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_gpu::GpuSpec;
use kfuse_ir::{KernelId, Program};
use kfuse_obs::{Counter, Gauge, MetricsRegistry, ObsHandle};
use kfuse_search::{HggaHierSolver, PlanCache, WarmSolver};
use serde_json::Value;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration, one field per `kfuse serve` flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `1` guarantees FIFO processing and bit-for-bit
    /// reproducible output (the deterministic mode).
    pub workers: usize,
    /// Bounded queue capacity; admission beyond it is refused with
    /// [`ErrorCode::QueueFull`].
    pub queue_depth: usize,
    /// Directory holding the shared `plans.jsonl`; `None` disables
    /// caching (every solve is cold).
    pub cache_dir: Option<PathBuf>,
    /// Default device for requests that do not name one.
    pub gpu: String,
    /// Default solver seed for requests that do not carry one.
    pub seed: u64,
    /// The `retry_after_ms` hint attached to queue-full rejections.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_depth: 64,
            cache_dir: None,
            gpu: "k20x".into(),
            seed: 17,
            retry_after_ms: 50,
        }
    }
}

/// Where a response line goes.
enum Reply {
    /// A shared byte sink (socket or stdout). Each response is one
    /// `write_all` of a `\n`-terminated line under the sink's mutex, so
    /// concurrent workers cannot interleave partial lines.
    Stream(Arc<Mutex<Box<dyn Write + Send>>>),
    /// An in-process channel ([`LocalClient`]); lines are sent without
    /// the trailing newline.
    Channel(mpsc::Sender<String>),
}

impl Reply {
    fn send(&self, line: &str) {
        match self {
            Reply::Stream(w) => {
                let mut buf = String::with_capacity(line.len() + 1);
                buf.push_str(line);
                buf.push('\n');
                let mut w = lock(w);
                let _ = w.write_all(buf.as_bytes());
                let _ = w.flush();
            }
            Reply::Channel(tx) => {
                let _ = tx.send(line.to_string());
            }
        }
    }
}

/// One admitted request, waiting for (or held by) a worker.
struct Job {
    req: Request,
    /// Admission time + `budget_ms`: queue wait spends the budget too.
    deadline: Option<Instant>,
    reply: Reply,
}

/// Mutable queue state, all under one mutex.
struct QueueState {
    jobs: VecDeque<Job>,
    in_flight: usize,
    /// Set by `shutdown`: refuse new work, finish what is queued.
    draining: bool,
}

/// The lazily-opened shared plan caches, keyed by (gpu, precision).
type CacheMap = HashMap<(String, String), Arc<Mutex<PlanCache>>>;

/// State shared between reader threads and workers.
struct Shared {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signals workers that a job (or shutdown) is available.
    work_ready: Condvar,
    /// Signals the drainer that the queue is empty and nothing is in
    /// flight.
    idle: Condvar,
    metrics: MetricsRegistry,
    /// One shared cache per (gpu, precision) pair, opened lazily.
    caches: Mutex<CacheMap>,
    /// Contexts of programs served as exact hits, by their exact bytes.
    memo: ContextMemo,
    /// Terminal flag: workers and accept loops exit.
    shutdown: AtomicBool,
}

/// Lock, recovering from poisoning: a worker that panicked on one
/// request must not wedge the whole daemon.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running daemon: worker pool plus shared state. Dropping the handle
/// does **not** stop the workers; call [`Daemon::shutdown`] for the
/// graceful drain (the stdin and Unix-socket front-ends do).
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Start the worker pool. Does not bind any socket — pair with
    /// [`serve_stdin`] / [`serve_unix`], or drive it in-process through
    /// [`Daemon::client`].
    ///
    /// `workers` and `queue_depth` below 1 are raised to 1 here, once, so
    /// what `ping` reports and what admission compares against are the
    /// values the daemon runs with.
    pub fn start(mut cfg: ServeConfig) -> Daemon {
        cfg.workers = cfg.workers.max(1);
        cfg.queue_depth = cfg.queue_depth.max(1);
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                in_flight: 0,
                draining: false,
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            metrics: MetricsRegistry::new(),
            caches: Mutex::new(HashMap::new()),
            memo: ContextMemo::new(CONTEXT_MEMO_BYTES),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..shared.cfg.workers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kfused-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker thread")
            })
            .collect();
        Daemon {
            shared,
            workers: handles,
        }
    }

    /// An in-process client for tests and embedding: requests flow
    /// through the same admission, queue, and workers as socket clients.
    pub fn client(&self) -> LocalClient {
        LocalClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful drain: refuse new work, let in-flight and queued requests
    /// finish, flush the plan caches (newline-terminating any damaged
    /// tail), then stop and join the workers. Idempotent.
    pub fn shutdown(mut self) {
        drain(&self.shared);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Block until the queue is empty and no request is in flight, refusing
/// new admissions from the moment it is called. Flushes caches last.
fn drain(shared: &Shared) {
    let mut q = lock(&shared.queue);
    q.draining = true;
    shared.work_ready.notify_all();
    while !q.jobs.is_empty() || q.in_flight > 0 {
        q = shared
            .idle
            .wait_timeout(q, Duration::from_millis(100))
            .map(|(g, _)| g)
            .unwrap_or_else(|e| e.into_inner().0);
    }
    drop(q);
    for cache in lock(&shared.caches).values() {
        if let Err(e) = lock(cache).flush() {
            eprintln!("warning: plan cache flush failed: {e}");
        }
    }
}

/// One dequeued job's claim on [`QueueState::in_flight`]. Released on
/// drop, so the count — and the `idle` signal a drain waits for — holds
/// on every way out of the job, an unwinding panic included.
struct InFlight<'a>(&'a Shared);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut q = lock(&self.0.queue);
        q.in_flight -= 1;
        if q.jobs.is_empty() && q.in_flight == 0 {
            self.0.idle.notify_all();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    q.in_flight += 1;
                    shared
                        .metrics
                        .set_gauge(Gauge::QueueDepth, q.jobs.len() as f64);
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) || q.draining {
                    return;
                }
                q = shared.work_ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let _in_flight = InFlight(shared);

        // A panic anywhere in the job is this request's failure, not the
        // daemon's: the client gets `internal_error` and the worker takes
        // the next job. Every lock the job can hold recovers from
        // poisoning ([`lock`], the plan cache's own).
        let (line, err) = catch_unwind(AssertUnwindSafe(|| answer(shared, &job)))
            .unwrap_or_else(|_panic| {
                let line = error_response(
                    job.req.id.as_deref(),
                    ErrorCode::InternalError,
                    "a worker panicked on this request; it was dropped and the daemon keeps serving",
                    vec![],
                );
                (line, Some(ErrorCode::InternalError))
            });
        // Count before replying: a client that has seen this response and
        // immediately asks for `stats` (answered inline on the reader
        // thread) must observe the updated counters.
        shared.metrics.incr(if err.is_none() {
            Counter::RequestsServed
        } else {
            Counter::RequestsRejected
        });
        job.reply.send(&line);
    }
}

/// The response line for one dequeued job and, for rejections, the error
/// code (for the served/rejected counters).
fn answer(shared: &Shared, job: &Job) -> (String, Option<ErrorCode>) {
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        let line = error_response(
            job.req.id.as_deref(),
            ErrorCode::BudgetExceeded,
            "budget_ms elapsed while the request was still queued",
            vec![],
        );
        return (line, Some(ErrorCode::BudgetExceeded));
    }
    process(shared, job)
}

/// Resolve the request's program: the inline `program` text, parsed here,
/// or a built-in `example` name — exactly one of the two.
fn resolve_program(req: &Request) -> Result<Program, String> {
    match (&req.program, &req.example) {
        (Some(_), Some(_)) => Err("give either `program` or `example`, not both".into()),
        (None, None) => Err("a `solve`/`verify` request needs `program` or `example`".into()),
        (Some(inline), None) => {
            let p = inline
                .parse()
                .map_err(|e| format!("`program` does not parse as a kfuse program: {e}"))?;
            p.validate()
                .map_err(|e| format!("program fails validation: {e}"))?;
            Ok(p)
        }
        (None, Some(name)) => {
            kfuse_workloads::by_name(name).ok_or_else(|| format!("unknown example `{name}`"))
        }
    }
}

/// The request's device, falling back to the daemon default.
fn resolve_gpu(shared: &Shared, req: &Request) -> Result<GpuSpec, String> {
    let gpu_name = req.gpu.as_deref().unwrap_or(&shared.cfg.gpu);
    GpuSpec::by_name(gpu_name)
        .ok_or_else(|| format!("unknown gpu `{gpu_name}` (try k20x, k40, gtx750ti)"))
}

/// Prepare the request's planning context. Precision follows the device
/// default, the same convention the `kfuse` CLI uses: double on K20X/K40,
/// single on the Maxwell part.
fn resolve_ctx(req: &Request, gpu: &GpuSpec) -> Result<PlanContext, String> {
    let program = resolve_program(req)?;
    Ok(pipeline::prepare_owned(
        program,
        gpu,
        gpu.default_precision(),
    ))
}

/// The shared cache of a device at its default precision (the one every
/// request on it is planned at), opened on first use. `None` when the
/// daemon runs cacheless.
fn cache_for(shared: &Shared, gpu: &GpuSpec) -> Option<Arc<Mutex<PlanCache>>> {
    let dir = shared.cfg.cache_dir.as_ref()?;
    let precision = format!("{:?}", gpu.default_precision());
    let mut caches = lock(&shared.caches);
    Some(
        caches
            .entry((gpu.name.clone(), precision))
            .or_insert_with_key(|(gpu, precision)| {
                let c = PlanCache::open(dir, gpu, precision);
                for w in &c.warnings {
                    eprintln!("warning: {w}");
                }
                Arc::new(Mutex::new(c))
            })
            .clone(),
    )
}

/// Process one dequeued `solve`/`verify` job that is still within its
/// budget.
fn process(shared: &Shared, job: &Job) -> (String, Option<ErrorCode>) {
    #[cfg(test)]
    assert_ne!(
        job.req.id.as_deref(),
        Some(tests::PANIC_ID),
        "planted panic"
    );
    let reject = |code: ErrorCode, msg: &str| {
        let id = job.req.id.as_deref();
        (error_response(id, code, msg, vec![]), Some(code))
    };
    let gpu = match resolve_gpu(shared, &job.req) {
        Ok(gpu) => gpu,
        Err(msg) => return reject(ErrorCode::Unsupported, &msg),
    };
    // A solve of program bytes this daemon already served as an exact hit
    // reuses their context. If its cached plan no longer serves, the
    // context goes and the request takes the full path below.
    let key = match (&job.req.program, &job.req.example, job.req.op.as_str()) {
        (Some(inline), None, "solve") => Some(shared.memo.key(&gpu.name, inline.text())),
        _ => None,
    };
    if let Some(key) = &key {
        if let Some(kept) = shared.memo.get(key) {
            if let Some(line) = reuse_context(shared, job, &gpu, &kept) {
                return (line, None);
            }
            shared.memo.remove(key);
        }
    }
    let ctx = match resolve_ctx(&job.req, &gpu) {
        Ok(ctx) => ctx,
        Err(msg) => return reject(ErrorCode::InvalidProgram, &msg),
    };
    match job.req.op.as_str() {
        "solve" => {
            let (line, exact_hit) = solve_job(shared, job, &gpu, &ctx);
            if let (true, Some(key)) = (exact_hit, &key) {
                shared.memo.admit(key, ctx);
            }
            (line, None)
        }
        "verify" => verify_job(job, &ctx),
        _ => unreachable!("admission only queues solve/verify"),
    }
}

/// The warm solver a solve request runs: its seed, and what is left of
/// its budget.
fn solver_for(shared: &Shared, job: &Job) -> WarmSolver {
    let budget = job
        .deadline
        .map(|d| d.saturating_duration_since(Instant::now()));
    let seed = job.req.seed.unwrap_or(shared.cfg.seed);
    WarmSolver::new(HggaHierSolver::with_seed(seed), None, budget)
}

/// Serve a solve from a kept context: the exact-hit half of the full
/// path, cache probe and every re-check included, the verifier on the
/// tables kept with the context. `None` when the cached plan does not
/// serve.
fn reuse_context(shared: &Shared, job: &Job, gpu: &GpuSpec, kept: &Kept) -> Option<String> {
    let cache = cache_for(shared, gpu)?;
    let model = ProposedModel::default();
    let ctx = &kept.ctx;
    let out = solver_for(shared, job).serve_exact(
        ctx,
        Some(&kept.tables),
        Some(&kept.scratch),
        &model,
        ObsHandle::disabled(),
        &cache,
    )?;
    shared.metrics.incr(Counter::ContextReuses);
    Some(solve_response(shared, job, gpu, ctx, &out))
}

/// Solve on the full path. Returns the response line and whether it was
/// an exact hit.
fn solve_job(shared: &Shared, job: &Job, gpu: &GpuSpec, ctx: &PlanContext) -> (String, bool) {
    let model = ProposedModel::default();
    let cache = cache_for(shared, gpu);
    let out =
        solver_for(shared, job).solve_shared(ctx, &model, ObsHandle::disabled(), cache.as_deref());
    let exact_hit = out.metrics.get(Counter::CacheHits) > 0;
    (solve_response(shared, job, gpu, ctx, &out), exact_hit)
}

/// Fold a solve's counters into the daemon-wide registry, so `stats`
/// reports cumulative cache hits / misses / generations, and build
/// its response line.
fn solve_response(
    shared: &Shared,
    job: &Job,
    gpu: &GpuSpec,
    ctx: &PlanContext,
    out: &SolveOutcome,
) -> String {
    for c in Counter::ALL {
        shared.metrics.add(c, out.metrics.get(c));
    }

    let outcome = if out.metrics.get(Counter::CacheHits) > 0 {
        "exact_hit"
    } else if out.metrics.get(Counter::CacheProbes) > 0 {
        "cold"
    } else {
        "uncached"
    };
    // Computed once per context: a cached solve already asked for it.
    let fp = ctx.identity().fingerprint;
    let groups = Value::Array(
        out.plan
            .groups
            .iter()
            .map(|g| Value::Array(g.iter().map(|k| num_u64(k.0 as u64)).collect()))
            .collect(),
    );
    let result = obj([
        ("program", Value::String(ctx.info.name.clone())),
        ("gpu", Value::String(gpu.name.clone())),
        ("kernels", num_u64(ctx.n_kernels() as u64)),
        ("fingerprint", hex_u64(fp)),
        ("outcome", Value::String(outcome.into())),
        ("objective", num_f64(out.objective)),
        ("n_groups", num_u64(out.plan.groups.len() as u64)),
        (
            "generations",
            num_u64(out.metrics.get(Counter::Generations)),
        ),
        ("groups", groups),
    ]);
    ok_response(job.req.id.as_deref(), result)
}

fn verify_job(job: &Job, ctx: &PlanContext) -> (String, Option<ErrorCode>) {
    let id = job.req.id.as_deref();
    let Some(raw) = &job.req.plan else {
        return (
            error_response(
                id,
                ErrorCode::MalformedRequest,
                "a `verify` request needs `plan` (groups of kernel indices)",
                vec![],
            ),
            Some(ErrorCode::MalformedRequest),
        );
    };
    let n = ctx.n_kernels() as u32;
    let mut seen = vec![false; n as usize];
    let mut groups: Vec<Vec<KernelId>> = Vec::with_capacity(raw.len());
    for (gi, g) in raw.iter().enumerate() {
        let mut members = Vec::with_capacity(g.len());
        for &k in g {
            let what = if k >= n {
                format!("bad kernel index {k}")
            } else if std::mem::replace(&mut seen[k as usize], true) {
                format!("kernel index {k} appears more than once")
            } else {
                members.push(KernelId(k));
                continue;
            };
            return not_a_partition(id, n, &what);
        }
        if members.is_empty() {
            return not_a_partition(id, n, &format!("group {gi} is empty"));
        }
        members.sort_unstable();
        groups.push(members);
    }
    for (k, &s) in seen.iter().enumerate() {
        if !s {
            groups.push(vec![KernelId(k as u32)]);
        }
    }
    groups.sort_by_key(|g| g[0]);
    let plan = FusionPlan::from_sorted_groups(groups);

    let model = ProposedModel::default();
    let report = kfuse_verify::check_plan(&ctx.info, &plan, Some(&model)).sorted();
    let errors = report.error_count();
    let warnings = report.diagnostics.len() - errors;
    if errors > 0 {
        let diags = serde_json::from_str::<Value>(&report.render_json()).unwrap_or(Value::Null);
        return (
            error_response(
                id,
                ErrorCode::VerifierRejected,
                &format!("{errors} error(s) from the plan verifier"),
                vec![("diagnostics", diags)],
            ),
            Some(ErrorCode::VerifierRejected),
        );
    }
    let result = obj([
        ("program", Value::String(ctx.info.name.clone())),
        ("valid", Value::Bool(true)),
        ("errors", num_u64(0)),
        ("warnings", num_u64(warnings as u64)),
    ]);
    (ok_response(id, result), None)
}

/// The `malformed_request` answer to a `verify` plan that does not
/// partition the program's `n` kernels, saying `what` is wrong.
fn not_a_partition(id: Option<&str>, n: u32, what: &str) -> (String, Option<ErrorCode>) {
    (
        error_response(
            id,
            ErrorCode::MalformedRequest,
            &format!("`plan` is not a partition of 0..{n}: {what}"),
            vec![],
        ),
        Some(ErrorCode::MalformedRequest),
    )
}

/// The `id` of a line that is JSON but does not fit [`Request`]: echoed
/// when it is a string, whatever is wrong with the other fields.
fn echo_id(line: &str) -> Option<String> {
    #[derive(serde::Deserialize)]
    struct IdOnly {
        #[serde(default)]
        id: Option<String>,
    }
    serde_json::from_str::<IdOnly>(line).ok()?.id
}

/// Handle one request line on a reader thread: answer control ops
/// inline, enqueue `solve`/`verify` (or refuse with backpressure), and
/// reject anything unparseable with a structured error. Empty lines are
/// ignored. This is the single admission path all front-ends share.
fn handle_line(shared: &Arc<Shared>, line: &str, reply: &Reply) {
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    shared.metrics.incr(Counter::RequestsReceived);

    // One pass from the line to the typed request, inline program
    // included: a program text the memo keeps is vouched for, not scanned
    // again. A line that is JSON but not a request is the rare case that
    // pays a second, skipping pass to echo its `id`.
    let vouched = Cell::new(false);
    let vouch = |rest: &str| {
        let len = shared.memo.vouch(rest);
        vouched.set(vouched.get() | len.is_some());
        len
    };
    let parsed = serde_json::from_str_vouched::<Request>(line, &vouch);
    if vouched.get() {
        shared.metrics.incr(Counter::ProgramTextsVouched);
    }
    let req = match parsed {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.incr(Counter::RequestsRejected);
            let (id, what) = if e.is_data() {
                (echo_id(line), "request does not match the schema")
            } else {
                (None, "request is not valid JSON")
            };
            reply.send(&error_response(
                id.as_deref(),
                ErrorCode::MalformedRequest,
                &format!("{what}: {e}"),
                vec![],
            ));
            return;
        }
    };
    let id = req.id.as_deref();

    match req.op.as_str() {
        "ping" => {
            shared.metrics.incr(Counter::RequestsServed);
            reply.send(&ok_response(
                id,
                obj([
                    ("protocol", num_u64(PROTOCOL_VERSION as u64)),
                    ("workers", num_u64(shared.cfg.workers as u64)),
                    ("gpu", Value::String(shared.cfg.gpu.clone())),
                    ("cache", Value::Bool(shared.cfg.cache_dir.is_some())),
                ]),
            ));
        }
        "stats" => {
            shared.metrics.incr(Counter::RequestsServed);
            shared
                .metrics
                .set_gauge(Gauge::ContextMemoBytes, shared.memo.bytes() as f64);
            let snap = shared.metrics.snapshot();
            let counters = serde_json::from_str::<Value>(&snap.to_json()).unwrap_or(Value::Null);
            let depth = lock(&shared.queue).jobs.len() as u64;
            reply.send(&ok_response(
                id,
                obj([("queue_depth", num_u64(depth)), ("metrics", counters)]),
            ));
        }
        "shutdown" => {
            // Drain on this reader thread: in-flight and queued work
            // finishes first, so this response is the last line the
            // daemon emits for a well-behaved session.
            drain(shared);
            let served = shared.metrics.get(Counter::RequestsServed);
            let rejected = shared.metrics.get(Counter::RequestsRejected);
            shared.metrics.incr(Counter::RequestsServed);
            reply.send(&ok_response(
                id,
                obj([
                    ("draining", Value::Bool(true)),
                    ("served", num_u64(served)),
                    ("rejected", num_u64(rejected)),
                ]),
            ));
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.work_ready.notify_all();
        }
        "solve" | "verify" => {
            let mut q = lock(&shared.queue);
            if q.draining || shared.shutdown.load(Ordering::SeqCst) {
                drop(q);
                shared.metrics.incr(Counter::RequestsRejected);
                reply.send(&error_response(
                    id,
                    ErrorCode::ShuttingDown,
                    "daemon is draining; no new work accepted",
                    vec![],
                ));
                return;
            }
            if q.jobs.len() >= shared.cfg.queue_depth {
                drop(q);
                shared.metrics.incr(Counter::RequestsRejected);
                reply.send(&error_response(
                    id,
                    ErrorCode::QueueFull,
                    &format!(
                        "queue is at capacity ({}); retry after the hinted delay",
                        shared.cfg.queue_depth
                    ),
                    vec![("retry_after_ms", num_u64(shared.cfg.retry_after_ms))],
                ));
                return;
            }
            let deadline = req
                .budget_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let reply = match reply {
                Reply::Stream(w) => Reply::Stream(Arc::clone(w)),
                Reply::Channel(tx) => Reply::Channel(tx.clone()),
            };
            q.jobs.push_back(Job {
                req,
                deadline,
                reply,
            });
            shared
                .metrics
                .set_gauge(Gauge::QueueDepth, q.jobs.len() as f64);
            drop(q);
            shared.work_ready.notify_one();
        }
        other => {
            shared.metrics.incr(Counter::RequestsRejected);
            reply.send(&error_response(
                id,
                ErrorCode::Unsupported,
                &format!("unknown op `{other}` (ping, solve, verify, stats, shutdown)"),
                vec![],
            ));
        }
    }
}

/// An in-process client bound to a running [`Daemon`], used by the
/// integration tests and embedders. Requests take the exact admission
/// path socket clients do.
pub struct LocalClient {
    shared: Arc<Shared>,
}

impl LocalClient {
    /// Submit one request line without waiting: the response line (sans
    /// newline) arrives on the returned channel. Control-op responses are
    /// delivered before this returns; queued ops deliver when a worker
    /// finishes. Never blocks on a full queue — that is a `queue_full`
    /// response, not backpressure-by-blocking.
    pub fn submit(&self, line: &str) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        handle_line(&self.shared, line, &Reply::Channel(tx));
        rx
    }

    /// Submit and block for the single response line.
    pub fn request(&self, line: &str) -> String {
        self.submit(line)
            .recv()
            .unwrap_or_else(|_| "{\"ok\":false}".into())
    }
}

/// Longest request line the stdin and Unix-socket front-ends buffer,
/// newline excluded (16 MiB; the largest request of the repo's benchmark
/// is 1.49 MB). A longer line is answered with one `malformed_request`
/// and dropped; the connection keeps serving.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// The read loop of the stdin and Unix-socket front-ends: every line of
/// `input` goes through [`handle_line`] until EOF, a read error or a
/// shutdown. A line longer than [`MAX_LINE_BYTES`] is never held in
/// memory: it is answered with one `malformed_request` naming the limit,
/// the rest of it is discarded up to its newline, and the line after it
/// is served as usual.
fn serve_lines(
    shared: &Arc<Shared>,
    mut input: impl BufRead,
    reply: &Reply,
) -> std::io::Result<()> {
    let limit = MAX_LINE_BYTES as u64 + 1; // the newline, or one byte too many
    let mut line = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        line.clear();
        if input.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_LINE_BYTES {
            line = Vec::new(); // do not keep the limit's worth of capacity
            input.skip_until(b'\n')?;
            shared.metrics.incr(Counter::RequestsReceived);
            shared.metrics.incr(Counter::RequestsRejected);
            reply.send(&error_response(
                None,
                ErrorCode::MalformedRequest,
                &format!("request line is longer than {MAX_LINE_BYTES} bytes"),
                vec![],
            ));
            continue;
        }
        let text = std::str::from_utf8(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        handle_line(shared, text, reply);
    }
    Ok(())
}

/// Run the daemon over stdin/stdout: one JSONL request per input line,
/// one JSONL response per output line. EOF triggers the same graceful
/// drain as a `shutdown` request (minus the response). This is the
/// deterministic mode's natural transport: `kfuse serve --stdin
/// --workers 1 < requests.jsonl` is a pure function of its input.
pub fn serve_stdin(cfg: ServeConfig) -> std::io::Result<()> {
    let daemon = Daemon::start(cfg);
    let shared = Arc::clone(&daemon.shared);
    let out: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    let reply = Reply::Stream(out);
    let served = serve_lines(&shared, std::io::stdin().lock(), &reply);
    daemon.shutdown();
    served
}

/// Run the daemon on a Unix domain socket. Each connection gets a reader
/// thread; responses go back over the same stream, serialized through a
/// shared writer lock. A `shutdown` request (from any connection) drains
/// the queue, stops the accept loop, and removes the socket file.
#[cfg(unix)]
pub fn serve_unix(cfg: ServeConfig, path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let daemon = Daemon::start(cfg);
    let shared = Arc::clone(&daemon.shared);
    eprintln!("kfused: listening on {}", path.display());

    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let reader = stream.try_clone()?;
                let writer: Arc<Mutex<Box<dyn Write + Send>>> =
                    Arc::new(Mutex::new(Box::new(stream)));
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("kfused-conn".into())
                    .spawn(move || {
                        let reply = Reply::Stream(writer);
                        // A read error ends the connection, not the daemon.
                        let _ = serve_lines(&sh, std::io::BufReader::new(reader), &reply);
                    })
                    .expect("spawn connection thread");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                let _ = std::fs::remove_file(path);
                return Err(e);
            }
        }
    }
    let _ = std::fs::remove_file(path);
    daemon.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request with this `id` panics inside [`process`] — in test
    /// builds only; no program or request can do it to a release daemon.
    pub(super) const PANIC_ID: &str = "planted-panic";

    #[test]
    fn a_panicking_job_is_one_internal_error_and_the_daemon_goes_on() {
        let daemon = Daemon::start(ServeConfig::default());
        let c = daemon.client();
        let solve = |id: &str| format!(r#"{{"id":"{id}","op":"solve","example":"quickstart"}}"#);

        let rx = c.submit(&solve(PANIC_ID));
        let r = rx.recv().expect("the panicking job is still answered");
        assert!(r.contains(r#""code":"internal_error""#), "{r}");
        assert!(r.contains(&format!(r#""id":"{PANIC_ID}""#)), "{r}");
        assert!(
            r.len() < 256,
            "bounded, and nothing of the request in it: {r}"
        );
        assert!(rx.try_recv().is_err(), "exactly one response line");

        // The same worker (there is one) serves the next request, the
        // accounting is whole — nothing left in flight, the panic counted
        // as a rejection — and so the drain behind `shutdown` returns.
        let r = c.request(&solve("after"));
        assert!(r.contains(r#""id":"after","ok":true"#), "{r}");
        // The worker releases its claim just after it replies.
        let t0 = Instant::now();
        while lock(&daemon.shared.queue).in_flight != 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "a job stays in flight"
            );
            std::thread::yield_now();
        }
        let bye = c.request(r#"{"id":"bye","op":"shutdown"}"#);
        assert!(bye.contains(r#""served":1,"rejected":1"#), "{bye}");
        daemon.shutdown();
    }

    /// A kept context is not a kept answer: when the cached plan stops
    /// re-verifying, the repeat leaves the memo and is answered byte for
    /// byte as a daemon that never kept the context answers it.
    #[test]
    fn a_kept_context_whose_plan_no_longer_verifies_takes_the_full_path() {
        use kfuse_search::plancache::{CacheEntry, CACHE_VERSION};

        let program = kfuse_workloads::by_name("fig3").unwrap();
        let compact = serde_json::to_string(&program).unwrap();
        let pretty = serde_json::to_string_pretty(&program).unwrap();
        let gpu = GpuSpec::k20x();
        let precision = format!("{:?}", gpu.default_precision());
        let ctx = pipeline::prepare_owned(program, &gpu, gpu.default_precision());
        let identity = ctx.identity();
        // Same fingerprint, a better objective than any solve finds — and
        // every kernel in one group, which the verifier rejects on fig3.
        let poison = CacheEntry {
            version: CACHE_VERSION,
            fingerprint: identity.fingerprint,
            program: ctx.info.name.clone(),
            gpu: gpu.name.clone(),
            precision: precision.clone(),
            n_kernels: ctx.n_kernels() as u32,
            objective: f64::MIN_POSITIVE,
            kernel_sigs: identity.signatures.clone(),
            groups: vec![(0..ctx.n_kernels() as u32).collect()],
            region_fps: Vec::new(),
        };
        let solve = |text: &str| format!(r#"{{"id":"x","op":"solve","program":{text}}}"#);

        // Solve, serve a repeat as an exact hit from `repeat`, poison the
        // cache, then ask once more with the compact text.
        let run = |repeat: &str| {
            let dir = std::env::temp_dir().join("kfuse-serve-unit").join(format!(
                "poison-{}-{}",
                repeat.len(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let daemon = Daemon::start(ServeConfig {
                cache_dir: Some(dir.clone()),
                ..ServeConfig::default()
            });
            let c = daemon.client();
            assert!(c.request(&solve(&compact)).contains(r#""outcome":"cold""#));
            let hit = c.request(&solve(repeat));
            assert!(hit.contains(r#""outcome":"exact_hit""#), "{hit}");
            let cache = cache_for(&daemon.shared, &gpu).unwrap();
            lock(&cache).insert(poison.clone()).unwrap();
            let line = c.request(&solve(&compact));
            let reuses = daemon.shared.metrics.get(Counter::ContextReuses);
            let kept = daemon
                .shared
                .memo
                .get(&daemon.shared.memo.key(&gpu.name, &compact))
                .is_some();
            daemon.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            (line, reuses, kept)
        };

        let (kept_then, reuses, still_kept) = run(&compact);
        assert!(
            !kept_then.contains(r#""outcome":"exact_hit""#),
            "{kept_then}"
        );
        assert_eq!(reuses, 0, "the poisoned plan was served from the memo");
        assert!(!still_kept, "the context stayed in the memo");
        let (never_kept, _, _) = run(&pretty);
        assert_eq!(kept_then, never_kept);
    }
}
