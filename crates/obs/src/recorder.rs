//! Recording: the [`Recorder`] trait, the cheap pass-everywhere
//! [`ObsHandle`], RAII [`SpanGuard`]s, and the thread-safe sharded
//! [`InMemoryRecorder`].
//!
//! "Is observability on?" is one runtime question: an [`ObsHandle`]
//! either carries a `&dyn Recorder` or is disabled. Disabled handles never
//! take a timestamp, never allocate and cost one predictable branch per
//! call site — cheap enough to live inside the evaluation-memo miss path
//! (proven by the `alloc_free` test in `kfuse-search`).

use crate::event::{Gauge, SpanId, TraceEvent};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A sink for timeline events. All methods have no-op defaults, so a
/// recorder may implement only what it cares about; implementations must
/// be cheap and thread-safe — solvers call them from rayon workers.
pub trait Recorder: Sync {
    /// Record a completed span.
    fn span(&self, id: SpanId, track: u32, start: Instant, dur: Duration, args: [u64; 2]) {
        let _ = (id, track, start, dur, args);
    }

    /// Record a timestamped gauge sample.
    fn value(&self, gauge: Gauge, track: u32, at: Instant, value: f64) {
        let _ = (gauge, track, at, value);
    }
}

/// Number of event-buffer shards. Each thread appends to a fixed shard, so
/// concurrent region solves never contend on one lock.
const SHARD_COUNT: usize = 8;

/// Base track number for evaluator-internal spans (memo misses,
/// synthesis): they are emitted from whichever worker thread pays the
/// miss, so they get per-thread tracks — the top `SHARD_COUNT` track
/// numbers. Region `i` records on track `i + 1` and a solve has fewer
/// regions than kernels, so no program that fits in memory reaches them.
pub const WORKER_TRACK_BASE: u32 = u32::MAX - (SHARD_COUNT as u32 - 1);

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use.
    static THREAD_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
}

/// The track evaluator-internal spans should record against on the
/// calling thread (see [`WORKER_TRACK_BASE`]).
pub fn worker_track() -> u32 {
    THREAD_SHARD.with(|&s| WORKER_TRACK_BASE + s as u32)
}

/// Default cap on buffered events (~48 bytes each, so ≈100 MB worst
/// case). Past the cap events are counted and dropped, never reallocated.
pub const DEFAULT_CAPACITY: usize = 2_000_000;

/// A thread-safe, allocation-lean in-memory recorder.
///
/// Events append to one of `SHARD_COUNT` mutex-guarded buffers selected
/// by a per-thread index, so concurrent region solves and evaluator workers
/// rarely share a lock. A hard capacity bounds memory on long runs: once
/// reached, further events are dropped and counted ([`Self::dropped`])
/// rather than silently truncating the timeline's head.
pub struct InMemoryRecorder {
    epoch: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
    stored: AtomicUsize,
    dropped: AtomicU64,
    capacity: usize,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryRecorder {
    /// Recorder with the [`DEFAULT_CAPACITY`] event cap. The epoch (trace
    /// time zero) is the moment of construction.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Recorder with an explicit event cap.
    pub fn with_capacity(capacity: usize) -> Self {
        InMemoryRecorder {
            epoch: Instant::now(),
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Vec::new())).collect(),
            stored: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            capacity,
        }
    }

    /// The instant all exported timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Events dropped because the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.stored.load(Ordering::Relaxed).min(self.capacity)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all buffered events, sorted by timestamp.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(shard.lock().expect("recorder shard poisoned").iter());
        }
        all.sort_by_key(|e| e.at());
        all
    }

    fn record(&self, ev: TraceEvent) {
        // `stored` over-counts past the cap (by the number of dropped
        // events), which is harmless: it only gates admission.
        if self.stored.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        THREAD_SHARD.with(|&s| {
            self.shards[s]
                .lock()
                .expect("recorder shard poisoned")
                .push(ev);
        });
    }
}

impl Recorder for InMemoryRecorder {
    fn span(&self, id: SpanId, track: u32, start: Instant, dur: Duration, args: [u64; 2]) {
        self.record(TraceEvent::Span {
            id,
            track,
            start,
            dur,
            args,
        });
    }

    fn value(&self, gauge: Gauge, track: u32, at: Instant, value: f64) {
        self.record(TraceEvent::Value {
            gauge,
            track,
            at,
            value,
        });
    }
}

/// The handle planner code records through. `Copy`, pointer-sized, and
/// safe to pass into rayon workers. A disabled handle (the default) makes
/// every call a no-op that takes no timestamp and performs no allocation.
#[derive(Clone, Copy, Default)]
pub struct ObsHandle<'a> {
    rec: Option<&'a dyn Recorder>,
}

impl<'a> ObsHandle<'a> {
    /// A handle that records nothing.
    pub const fn disabled() -> Self {
        ObsHandle { rec: None }
    }

    /// A handle recording into `rec`.
    pub fn new(rec: &'a dyn Recorder) -> Self {
        ObsHandle { rec: Some(rec) }
    }

    /// True if a recorder is attached.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Open a span on track 0. The span records when the guard drops.
    #[inline]
    pub fn span(&self, id: SpanId) -> SpanGuard<'a> {
        SpanGuard {
            inner: self.rec.map(|rec| SpanInner {
                rec,
                id,
                start: Instant::now(),
                args: [0; 2],
            }),
        }
    }

    /// Record an already-measured span with explicit timestamps. Hot paths
    /// that time themselves anyway (e.g. the memo-miss path, which feeds
    /// `miss_ns`) use this to emit spans without any extra clock reads.
    #[inline]
    pub fn record_span(
        &self,
        id: SpanId,
        track: u32,
        start: Instant,
        dur: Duration,
        args: [u64; 2],
    ) {
        if let Some(rec) = self.rec {
            rec.span(id, track, start, dur, args);
        }
    }

    /// Record a gauge sample on track 0, timestamped now.
    #[inline]
    pub fn value(&self, gauge: Gauge, value: f64) {
        if let Some(rec) = self.rec {
            rec.value(gauge, 0, Instant::now(), value);
        }
    }
}

/// RAII guard for an open span: records the span (with its measured
/// duration) into the recorder when dropped. On a disabled handle the
/// guard is inert and held no timestamp.
pub struct SpanGuard<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    rec: &'a dyn Recorder,
    id: SpanId,
    start: Instant,
    args: [u64; 2],
}

impl SpanGuard<'_> {
    /// Set numeric argument `i` (0 or 1; see [`SpanId::arg_names`]).
    /// Arguments may be set any time before the guard drops.
    #[inline]
    pub fn set_arg(&mut self, i: usize, v: u64) {
        if let Some(inner) = &mut self.inner {
            inner.args[i] = v;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            inner
                .rec
                .span(inner.id, 0, inner.start, inner.start.elapsed(), inner.args);
        }
    }
}
