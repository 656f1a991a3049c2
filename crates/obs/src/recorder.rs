//! Recording: the thread-safe [`InMemoryRecorder`], the cheap
//! pass-everywhere [`ObsHandle`], and RAII [`SpanGuard`]s.
//!
//! "Is observability on?" is one runtime question: an [`ObsHandle`]
//! either carries a `&InMemoryRecorder` or is disabled. Disabled handles never
//! take a timestamp, never allocate and cost one predictable branch per
//! call site — cheap enough to live inside the evaluation-memo miss path
//! (proven by the `alloc_free` test in `kfuse-search`).

use crate::event::{Gauge, SpanId, TraceEvent};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The track evaluator-internal spans (memo-miss flushes) record on, exported as `eval worker 0`. It is the lowest of
/// the top eight track numbers, which stay clear of region tracks: region
/// `i` records on track `i + 1` and a solve has fewer regions than
/// kernels, so no program that fits in memory reaches them.
pub const WORKER_TRACK_BASE: u32 = u32::MAX - 7;

/// Default cap on buffered events (~48 bytes each, so ≈100 MB worst
/// case). Past the cap events are counted and dropped, never reallocated.
pub const DEFAULT_CAPACITY: usize = 2_000_000;

/// A thread-safe, allocation-lean in-memory recorder.
///
/// Events append to one mutex-guarded buffer; the threads that record
/// concurrently are the region solves, one span each. A hard capacity
/// bounds memory on long runs: once reached, further events are dropped
/// and counted ([`Self::dropped`]) rather than silently truncating the
/// timeline's head.
pub struct InMemoryRecorder {
    epoch: Instant,
    buf: Mutex<Buffer>,
    capacity: usize,
}

/// The recorded events and the number dropped at the cap.
#[derive(Default)]
struct Buffer {
    events: Vec<TraceEvent>,
    dropped: u64,
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
            buf: Mutex::default(),
            capacity,
        }
    }

    /// The instant all exported timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, Buffer> {
        self.buf.lock().expect("a thread panicked while recording")
    }

    /// Events dropped because the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.buf().dropped
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf().events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all buffered events, sorted by timestamp.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all = self.buf().events.clone();
        all.sort_by_key(|e| e.at());
        all
    }

    fn record(&self, ev: TraceEvent) {
        let mut buf = self.buf();
        if buf.events.len() < self.capacity {
            buf.events.push(ev);
        } else {
            buf.dropped += 1;
        }
    }

    /// Record a completed span.
    pub fn span(&self, id: SpanId, track: u32, start: Instant, dur: Duration, args: [u64; 2]) {
        self.record(TraceEvent::Span {
            id,
            track,
            start,
            dur,
            args,
        });
    }

    /// Record a timestamped gauge sample.
    pub fn value(&self, gauge: Gauge, track: u32, at: Instant, value: f64) {
        self.record(TraceEvent::Value {
            gauge,
            track,
            at,
            value,
        });
    }
}

/// The handle planner code records through. `Copy`, pointer-sized, and
/// safe to pass into the region solves' threads. A disabled handle (the default) makes
/// every call a no-op that takes no timestamp and performs no allocation.
#[derive(Clone, Copy, Default)]
pub struct ObsHandle<'a> {
    rec: Option<&'a InMemoryRecorder>,
}

impl<'a> ObsHandle<'a> {
    /// A handle that records nothing.
    pub const fn disabled() -> Self {
        ObsHandle { rec: None }
    }

    /// A handle recording into `rec`.
    pub fn new(rec: &'a InMemoryRecorder) -> Self {
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
    rec: &'a InMemoryRecorder,
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
