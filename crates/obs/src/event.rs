//! The typed event taxonomy: span, counter and gauge identifiers.
//!
//! Everything the planner can emit is enumerated here, so recorders store
//! fixed-size events (no name strings, no per-event allocation) and
//! exporters can attach stable names and argument labels after the fact.
//! The taxonomy is documented for users in `OBSERVABILITY.md`.

use std::time::{Duration, Instant};

/// A timed region of planner work. Each variant is one row ("slice") kind
/// in the chrome-trace timeline; [`SpanId::name`] is the slice label and
/// [`SpanId::arg_names`] labels the two numeric arguments every span
/// carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanId {
    /// One whole solver run (`Solver::solve_observed`).
    Solve,
    /// Construction and scoring of the initial population(s).
    InitialPopulation,
    /// One HGGA generation.
    Generation,
    /// One evaluation-memo miss flush: every distinct miss of a probe (one
    /// for a lone group, up to a whole batch's) synthesized and projected
    /// lane-per-candidate, then inserted.
    BatchScore,
    /// One full pairwise-merge sweep of the greedy solver.
    GreedySweep,
    /// The exhaustive solver's whole partition enumeration.
    Enumeration,
    /// The independent plan-constraint verification pass
    /// (`kfuse-verify::constraints`).
    ConstraintPass,
    /// The IR hazard-analysis pass (`kfuse-verify::hazards`).
    HazardPass,
    /// The generated-CUDA lint pass (`kfuse-verify::cuda_lint`).
    LintPass,
    /// The structured module-IR analysis pass (`kfuse-verify::analysis`):
    /// barrier-interval races, barrier divergence, symbolic bounds.
    AnalysisPass,
    /// The hierarchical solver's clustering of kernels into weakly-coupled
    /// regions (`kfuse-search::partition`).
    PartitionPass,
    /// One region's independent sub-solve in the hierarchical solver
    /// (one track per region: `track` = region index + 1, exported as
    /// `region {index}`).
    RegionSolve,
    /// The boundary-stitching pass re-opening inter-region candidate
    /// groups after the region solves.
    StitchPass,
    /// One plan-cache lookup: fingerprint the program, scan the loaded
    /// entries for an exact or near match.
    CacheProbe,
}

impl SpanId {
    /// Stable display name (chrome-trace `name` field).
    pub const fn name(self) -> &'static str {
        match self {
            SpanId::Solve => "solve",
            SpanId::InitialPopulation => "initial_population",
            SpanId::Generation => "generation",
            SpanId::BatchScore => "batch_score",
            SpanId::GreedySweep => "greedy_sweep",
            SpanId::Enumeration => "enumeration",
            SpanId::ConstraintPass => "constraint_pass",
            SpanId::HazardPass => "hazard_pass",
            SpanId::LintPass => "lint_pass",
            SpanId::AnalysisPass => "analysis_pass",
            SpanId::PartitionPass => "partition_pass",
            SpanId::RegionSolve => "region_solve",
            SpanId::StitchPass => "stitch_pass",
            SpanId::CacheProbe => "cache_probe",
        }
    }

    /// Chrome-trace category, used by Perfetto to colour/filter tracks.
    pub const fn category(self) -> &'static str {
        match self {
            SpanId::Solve | SpanId::InitialPopulation => "solver",
            SpanId::Generation => "ga",
            SpanId::BatchScore => "eval",
            SpanId::GreedySweep | SpanId::Enumeration => "solver",
            SpanId::ConstraintPass
            | SpanId::HazardPass
            | SpanId::LintPass
            | SpanId::AnalysisPass => "verify",
            SpanId::PartitionPass | SpanId::RegionSolve | SpanId::StitchPass => "hier",
            SpanId::CacheProbe => "cache",
        }
    }

    /// Labels of the two numeric arguments recorded with each span.
    /// Unused slots are labelled `"_"` and omitted by the exporter.
    pub const fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            SpanId::Solve => ("kernels", "_"),
            SpanId::InitialPopulation => ("individuals", "_"),
            SpanId::Generation => ("gen", "_"),
            SpanId::BatchScore => ("groups", "lanes"),
            SpanId::GreedySweep => ("groups", "merged"),
            SpanId::Enumeration => ("kernels", "_"),
            SpanId::ConstraintPass => ("groups", "diagnostics"),
            SpanId::HazardPass => ("kernels", "diagnostics"),
            SpanId::LintPass => ("lines", "diagnostics"),
            SpanId::AnalysisPass => ("kernels", "diagnostics"),
            SpanId::PartitionPass => ("kernels", "regions"),
            SpanId::RegionSolve => ("kernels", "region"),
            SpanId::StitchPass => ("candidates", "merges"),
            SpanId::CacheProbe => ("entries", "outcome"),
        }
    }
}

/// A monotonically increasing count of planner work, aggregated in the
/// [`crate::MetricsRegistry`]. Counters are cheap relaxed atomics and are
/// always on (they replace the hand-rolled `SolveStats` counters that
/// predated this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Multi-member evaluation-memo probes (hits + misses).
    MemoProbes,
    /// Memo probes that missed and paid synthesis + projection (this is
    /// the legacy `SolveStats::evaluations`).
    MemoMisses,
    /// Plan/chromosome-level condensation acyclicity checks.
    CondensationChecks,
    /// Wall-clock nanoseconds on the memo-miss path, summed over threads.
    MissNs,
    /// Nanoseconds of [`Counter::MissNs`] inside group synthesis proper.
    SynthNs,
    /// GA generations executed (summed over region solves in the
    /// hierarchical solver).
    Generations,
    /// Times a new global best was accepted.
    BestImprovements,
    /// Chromosome `finalize` calls (offspring sealed: repair + re-score).
    Finalizes,
    /// Groups whose cached eval was stale and had to be re-resolved
    /// during `finalize`.
    GroupsRescored,
    /// Infeasible or cycle-stuck groups dissolved during repair.
    GroupsSplit,
    /// Full pairwise-merge sweeps performed by the greedy solver.
    GreedySweeps,
    /// Merges the greedy solver committed.
    GreedyMerges,
    /// Complete set partitions scored by the exhaustive solver.
    PartitionsScored,
    /// Lane sweeps executed by memo-miss flushes (one per chunk of up to
    /// `LANES` structure-passing candidates). Every sweep counts: a lone
    /// `group` miss is a one-lane sweep.
    BatchesScored,
    /// Candidate lanes actually filled across those sweeps.
    /// `BatchLanesFilled / BatchesScored` is the average batch fill; a
    /// structurally infeasible miss takes no lane, so this is at most
    /// `MemoMisses`.
    BatchLanesFilled,
    /// GPU modules run through the structured analysis passes
    /// (`kfuse-verify::analysis`).
    ModulesAnalyzed,
    /// Diagnostics produced by those analysis passes (errors + warnings).
    AnalysisDiagnostics,
    /// Regions independently solved by the hierarchical solver (singleton
    /// regions pass through without a sub-solve and are not counted).
    RegionsSolved,
    /// Kernels whose sharing sets cross a region cut (stitch candidates).
    BoundaryKernels,
    /// Cross-region group merges the stitching pass committed.
    StitchMerges,
    /// Plan-cache lookups attempted (hit or miss).
    CacheProbes,
    /// Plan-cache probes answered by an exact fingerprint hit whose plan
    /// re-validated cleanly and was served without a search.
    CacheHits,
    /// Plan-cache probes that found no usable entry (no match, or the
    /// matched plan failed re-validation): every probe that is not an
    /// exact hit, each followed by a cold solve.
    CacheMisses,
    /// Always 0: solves were once seeded from a near-match cache entry.
    /// Nothing increments it; it stays because the benchmark harness reads
    /// it (ROADMAP 6(b) removes this pin).
    WarmStarts,
    /// Request lines the daemon read off a connection (`kfuse serve`),
    /// including ones later rejected or found malformed.
    RequestsReceived,
    /// Requests the daemon answered with an `"ok": true` response.
    RequestsServed,
    /// Requests the daemon answered with a structured error response
    /// (malformed line, invalid program, queue-full backpressure, expired
    /// budget, verifier rejection, drain refusal).
    RequestsRejected,
    /// Exact hits the daemon served from a planning context it kept for
    /// the request's exact program bytes, without parsing or preparing.
    ContextReuses,
    /// Request lines whose inline program the daemon's context memo
    /// vouched for: bytes it had kept, so the reader did not scan them.
    ProgramTextsVouched,
}

impl Counter {
    /// Number of counters (registry slot count).
    pub const COUNT: usize = 29;

    /// All counters, in registry/display order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MemoProbes,
        Counter::MemoMisses,
        Counter::CondensationChecks,
        Counter::MissNs,
        Counter::SynthNs,
        Counter::Generations,
        Counter::BestImprovements,
        Counter::Finalizes,
        Counter::GroupsRescored,
        Counter::GroupsSplit,
        Counter::GreedySweeps,
        Counter::GreedyMerges,
        Counter::PartitionsScored,
        Counter::BatchesScored,
        Counter::BatchLanesFilled,
        Counter::ModulesAnalyzed,
        Counter::AnalysisDiagnostics,
        Counter::RegionsSolved,
        Counter::BoundaryKernels,
        Counter::StitchMerges,
        Counter::CacheProbes,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::WarmStarts,
        Counter::RequestsReceived,
        Counter::RequestsServed,
        Counter::RequestsRejected,
        Counter::ContextReuses,
        Counter::ProgramTextsVouched,
    ];

    /// Stable snake_case name (metrics-dump key).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::MemoProbes => "memo_probes",
            Counter::MemoMisses => "memo_misses",
            Counter::CondensationChecks => "condensation_checks",
            Counter::MissNs => "miss_ns",
            Counter::SynthNs => "synth_ns",
            Counter::Generations => "generations",
            Counter::BestImprovements => "best_improvements",
            Counter::Finalizes => "finalizes",
            Counter::GroupsRescored => "groups_rescored",
            Counter::GroupsSplit => "groups_split",
            Counter::GreedySweeps => "greedy_sweeps",
            Counter::GreedyMerges => "greedy_merges",
            Counter::PartitionsScored => "partitions_scored",
            Counter::BatchesScored => "batches_scored",
            Counter::BatchLanesFilled => "batch_lanes_filled",
            Counter::ModulesAnalyzed => "modules_analyzed",
            Counter::AnalysisDiagnostics => "analysis_diagnostics",
            Counter::RegionsSolved => "regions_solved",
            Counter::BoundaryKernels => "boundary_kernels",
            Counter::StitchMerges => "stitch_merges",
            Counter::CacheProbes => "cache_probes",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::WarmStarts => "warm_starts",
            Counter::RequestsReceived => "requests_received",
            Counter::RequestsServed => "requests_served",
            Counter::RequestsRejected => "requests_rejected",
            Counter::ContextReuses => "context_reuses",
            Counter::ProgramTextsVouched => "program_texts_vouched",
        }
    }
}

/// A sampled value. Gauges live in the [`crate::MetricsRegistry`]
/// (latest value) and may additionally be emitted as timestamped
/// [`TraceEvent::Value`] events, which chrome-trace renders as counter
/// tracks (e.g. the objective trajectory over a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Best objective found so far (seconds of projected runtime).
    BestObjective,
    /// Best objective within the current generation's population.
    GenerationBest,
    /// Final memo hit rate, `(probes - misses) / probes`.
    CacheHitRate,
    /// Final memo miss rate, `misses / probes`.
    MissRate,
    /// Momentary depth of the daemon's bounded request queue, sampled at
    /// every admission and dequeue (`kfuse serve`).
    QueueDepth,
    /// Bytes the daemon's context memo holds: program texts plus the
    /// planning tables kept for them (`kfuse serve`).
    ContextMemoBytes,
}

impl Gauge {
    /// Number of gauges (registry slot count).
    pub const COUNT: usize = 6;

    /// All gauges, in registry/display order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::BestObjective,
        Gauge::GenerationBest,
        Gauge::CacheHitRate,
        Gauge::MissRate,
        Gauge::QueueDepth,
        Gauge::ContextMemoBytes,
    ];

    /// Stable snake_case name (metrics-dump key and counter-track label).
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::BestObjective => "best_objective",
            Gauge::GenerationBest => "generation_best",
            Gauge::CacheHitRate => "cache_hit_rate",
            Gauge::MissRate => "miss_rate",
            Gauge::QueueDepth => "queue_depth",
            Gauge::ContextMemoBytes => "context_memo_bytes",
        }
    }
}

/// One recorded timeline event. Fixed-size and `Copy`, so the in-memory
/// recorder appends without boxing and drops excess events wholesale.
#[derive(Debug, Clone, Copy)]
pub enum TraceEvent {
    /// A completed span (chrome-trace `"ph": "X"`).
    Span {
        /// What kind of work this was.
        id: SpanId,
        /// Logical track (chrome-trace `tid`): 0 for the coordinator,
        /// region index + 1 for hierarchical region solves,
        /// [`crate::WORKER_TRACK_BASE`] for evaluator-internal spans.
        track: u32,
        /// Start, as an [`Instant`] (converted to epoch-relative
        /// microseconds at export time).
        start: Instant,
        /// Duration of the span.
        dur: Duration,
        /// Two span-specific numeric arguments (see [`SpanId::arg_names`]).
        args: [u64; 2],
    },
    /// A timestamped gauge sample (chrome-trace `"ph": "C"`).
    Value {
        /// Which gauge.
        gauge: Gauge,
        /// Logical track (same convention as spans).
        track: u32,
        /// When the sample was taken.
        at: Instant,
        /// The sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// The event's timestamp (span start, or sample time).
    pub fn at(&self) -> Instant {
        match *self {
            TraceEvent::Span { start, .. } => start,
            TraceEvent::Value { at, .. } => at,
        }
    }
}
