//! # kfuse-obs — structured observability for the fusion planner
//!
//! One small, dependency-free subsystem that replaces the scattered
//! per-solver counters with:
//!
//! * a typed **event taxonomy** ([`SpanId`], [`Counter`], [`Gauge`]) —
//!   every span, counter and gauge the planner can emit is enumerated, so
//!   events are fixed-size and allocation-free to record;
//! * a thread-safe [`InMemoryRecorder`] (one buffer) behind a cheap
//!   pass-everywhere [`ObsHandle`];
//! * an always-on **[`MetricsRegistry`]** of relaxed atomics — the single
//!   home for planner counters, from which `SolveStats` is derived;
//! * **exporters**: [`chrome_trace`] JSON (loadable in Perfetto /
//!   `chrome://tracing`), a flat JSON metrics dump
//!   ([`MetricsSnapshot::to_json`]), and a human table
//!   ([`MetricsSnapshot::render_table`]).
//!
//! ## Disablement
//!
//! Tracing must cost nothing where it isn't wanted. The one off-switch is
//! at runtime and is the default: an [`ObsHandle::disabled`] handle
//! records nothing, takes no timestamps and allocates nothing — one
//! branch per call site. The `alloc_free` test in `kfuse-search` proves
//! the memo-miss hot path stays allocation-free under a disabled handle.
//! The [`MetricsRegistry`] stays on either way — its counters are the
//! same relaxed atomics the planner always maintained.
//!
//! ## Track convention
//!
//! Chrome-trace `tid`s are logical tracks, not OS threads: track 0 is the
//! coordinator/planner, track `region + 1` is a hierarchical region solve,
//! and [`WORKER_TRACK_BASE`] hosts evaluator-internal spans (memo-miss
//! flushes). See `OBSERVABILITY.md` at the
//! repository root for the full event taxonomy, exporter formats and a
//! Perfetto walkthrough.

#![warn(missing_docs)]

mod event;
mod export;
mod metrics;
mod recorder;

pub use event::{Counter, Gauge, SpanId, TraceEvent};
pub use export::chrome_trace;
pub use metrics::{ratio, MetricsRegistry, MetricsSnapshot};
pub use recorder::{InMemoryRecorder, ObsHandle, SpanGuard, DEFAULT_CAPACITY, WORKER_TRACK_BASE};
