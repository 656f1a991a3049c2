//! Exporters: chrome-trace JSON for timelines, plus the shared hand-rolled
//! JSON helpers (this crate is dependency-free by design, so it writes its
//! own JSON; the vendored `serde_json` parses it back in tests and the
//! CLI).

use crate::event::TraceEvent;
use crate::recorder::{InMemoryRecorder, WORKER_TRACK_BASE};
use std::time::Instant;

/// Append `s` to `out` with JSON string escaping.
pub(crate) fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Append a JSON number for `v`; non-finite values (which JSON cannot
/// represent) become `null`.
pub(crate) fn push_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's `{}` prints the shortest round-trip representation.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

fn micros_since(epoch: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(epoch).as_nanos() as f64 / 1_000.0
}

/// Human-readable label for a track (chrome-trace thread).
fn track_name(track: u32) -> String {
    match track {
        0 => "planner".to_string(),
        t if t >= WORKER_TRACK_BASE => format!("eval worker {}", t - WORKER_TRACK_BASE),
        t => format!("region {}", t - 1),
    }
}

/// Serialize everything the recorder holds as chrome-trace JSON
/// (JSON Object Format), loadable by Perfetto and `chrome://tracing`.
///
/// Spans become complete events (`"ph": "X"`, timestamps in microseconds
/// relative to the recorder's epoch), gauge samples become counter events
/// (`"ph": "C"`), and every track gets a `thread_name` metadata record so
/// the timeline reads "planner", "region 0", "eval worker 0" instead of
/// bare numbers. The number of events dropped at the capacity cap is
/// reported under `otherData.dropped_events`.
pub fn chrome_trace(recorder: &InMemoryRecorder) -> String {
    let epoch = recorder.epoch();
    let events = recorder.events();
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":");
    out.push_str(&recorder.dropped().to_string());
    out.push_str("},\"traceEvents\":[");

    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };

    // Track-name metadata first (chrome requires them anywhere; leading
    // keeps the file diffable).
    let mut tracks: Vec<u32> = events
        .iter()
        .map(|e| match *e {
            TraceEvent::Span { track, .. } | TraceEvent::Value { track, .. } => track,
        })
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in tracks {
        push_sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\""
        ));
        json_escape(&track_name(t), &mut out);
        out.push_str("\"}}");
    }

    for ev in &events {
        match *ev {
            TraceEvent::Span {
                id,
                track,
                start,
                dur,
                args,
            } => {
                push_sep(&mut out);
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
                    id.name(),
                    id.category(),
                    track,
                    micros_since(epoch, start),
                    dur.as_nanos() as f64 / 1_000.0,
                ));
                let (a, b) = id.arg_names();
                let named: Vec<(&str, u64)> = [(a, args[0]), (b, args[1])]
                    .into_iter()
                    .filter(|(n, _)| *n != "_")
                    .collect();
                if !named.is_empty() {
                    out.push_str(",\"args\":{");
                    for (i, (name, v)) in named.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('"');
                        json_escape(name, &mut out);
                        out.push_str(&format!("\":{v}"));
                    }
                    out.push('}');
                }
                out.push('}');
            }
            TraceEvent::Value {
                gauge,
                track,
                at,
                value,
            } => {
                // JSON cannot carry a non-finite sample; skip it (an
                // infinite objective only ever appears before the first
                // feasible plan).
                if !value.is_finite() {
                    continue;
                }
                push_sep(&mut out);
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"metrics\",\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"{}\":",
                    gauge.name(),
                    track,
                    micros_since(epoch, at),
                    gauge.name(),
                ));
                push_f64(value, &mut out);
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n]}\n");
    out
}
