//! Exporter round-trip tests: everything kfuse-obs writes must parse back
//! with the (vendored) serde_json and carry the documented structure.

use kfuse_obs::{
    chrome_trace, Counter, Gauge, InMemoryRecorder, MetricsRegistry, ObsHandle, SpanId,
    WORKER_TRACK_BASE,
};
use serde_json::Value;
use std::time::Duration;

fn populated_recorder() -> InMemoryRecorder {
    let rec = InMemoryRecorder::new();
    let t0 = rec.epoch();
    rec.span(
        SpanId::Solve,
        0,
        t0,
        Duration::from_micros(900),
        [60, 0], // kernels, unused
    );
    rec.span(
        SpanId::RegionSolve,
        1,
        t0 + Duration::from_micros(10),
        Duration::from_micros(120),
        [24, 0], // kernels, region
    );
    rec.span(
        SpanId::BatchScore,
        WORKER_TRACK_BASE,
        t0 + Duration::from_micros(40),
        Duration::from_micros(7),
        [5, 3], // groups, lanes
    );
    rec.value(
        Gauge::BestObjective,
        0,
        t0 + Duration::from_micros(130),
        0.0125,
    );
    rec.value(
        Gauge::GenerationBest,
        1,
        t0 + Duration::from_micros(131),
        f64::INFINITY,
    );
    rec
}

fn ph<'a>(events: &'a [Value], phase: &str) -> Vec<&'a Value> {
    events
        .iter()
        .filter(|e| e["ph"].as_str() == Some(phase))
        .collect()
}

#[test]
fn chrome_trace_round_trips_through_serde_json() {
    let rec = populated_recorder();
    let json = chrome_trace(&rec);
    let v: Value = serde_json::from_str(&json).expect("chrome trace must be valid JSON");

    assert_eq!(v["displayTimeUnit"].as_str(), Some("ms"));
    assert_eq!(v["otherData"]["dropped_events"].as_u64(), Some(0));

    let events = v["traceEvents"].as_array().expect("traceEvents array");
    // 3 spans + 1 finite gauge sample (+∞ one skipped) + thread_name
    // metadata for tracks {0, 1, WORKER_TRACK_BASE}.
    let metadata = ph(events, "M");
    let spans = ph(events, "X");
    let counters = ph(events, "C");
    assert_eq!(metadata.len(), 3);
    assert_eq!(spans.len(), 3);
    assert_eq!(
        counters.len(),
        1,
        "non-finite gauge samples must be skipped"
    );

    let solve = spans
        .iter()
        .find(|e| e["name"].as_str() == Some("solve"))
        .expect("solve span present");
    assert_eq!(solve["cat"].as_str(), Some("solver"));
    assert_eq!(solve["pid"].as_u64(), Some(1));
    assert_eq!(solve["tid"].as_u64(), Some(0));
    assert_eq!(solve["args"]["kernels"].as_u64(), Some(60));
    assert_eq!(solve["args"].as_object().unwrap().len(), 1);
    assert!(solve["dur"].as_f64().unwrap() > 0.0);

    // A miss flush records on the evaluator track with both arguments.
    let flush = spans
        .iter()
        .find(|e| e["name"].as_str() == Some("batch_score"))
        .expect("batch_score span present");
    assert_eq!(flush["cat"].as_str(), Some("eval"));
    assert_eq!(flush["tid"].as_u64(), Some(u64::from(WORKER_TRACK_BASE)));
    assert_eq!(flush["args"]["groups"].as_u64(), Some(5));
    assert_eq!(flush["args"]["lanes"].as_u64(), Some(3));

    let best = counters[0];
    assert_eq!(best["name"].as_str(), Some("best_objective"));
    assert_eq!(best["args"]["best_objective"].as_f64(), Some(0.0125));

    // The hierarchical solver records region `i`'s solve on track `i + 1`.
    let region = spans
        .iter()
        .find(|e| e["name"].as_str() == Some("region_solve"))
        .expect("region_solve span present");
    assert_eq!(region["tid"].as_u64(), Some(1));
    assert_eq!(region["args"]["region"].as_u64(), Some(0));

    // Track labels cover the three conventions.
    let name_of = |tid: u64| {
        metadata
            .iter()
            .find(|m| m["tid"].as_u64() == Some(tid))
            .and_then(|m| m["args"]["name"].as_str())
    };
    assert_eq!(name_of(0), Some("planner"));
    assert_eq!(name_of(1), Some("region 0"));
    assert_eq!(name_of(u64::from(WORKER_TRACK_BASE)), Some("eval worker 0"));
}

/// Region tracks stay regions however many regions a solve has: region
/// 100 records on track 101, below the evaluator-worker tracks.
#[test]
fn region_tracks_past_the_sixty_third_are_still_regions() {
    let rec = InMemoryRecorder::new();
    rec.span(
        SpanId::RegionSolve,
        101,
        rec.epoch(),
        Duration::from_micros(5),
        [8, 100], // kernels, region
    );
    let v: Value = serde_json::from_str(&chrome_trace(&rec)).unwrap();
    let events = v["traceEvents"].as_array().unwrap();
    let names: Vec<_> = ph(events, "M")
        .iter()
        .map(|m| (m["tid"].as_u64(), m["args"]["name"].as_str()))
        .collect();
    assert_eq!(names, [(Some(101), Some("region 100"))]);
}

#[test]
fn chrome_trace_events_are_time_ordered() {
    let rec = populated_recorder();
    let json = chrome_trace(&rec);
    let v: Value = serde_json::from_str(&json).unwrap();
    let ts: Vec<f64> = v["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"].as_str() != Some("M"))
        .map(|e| e["ts"].as_f64().unwrap())
        .collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts not sorted: {ts:?}");
}

#[test]
fn capacity_cap_counts_drops_and_exports_them() {
    let rec = InMemoryRecorder::with_capacity(2);
    let t0 = rec.epoch();
    for i in 0..5 {
        rec.span(
            SpanId::Generation,
            0,
            t0 + Duration::from_micros(i),
            Duration::from_micros(1),
            [i, 0],
        );
    }
    assert_eq!(rec.len(), 2);
    assert_eq!(rec.dropped(), 3);
    let v: Value = serde_json::from_str(&chrome_trace(&rec)).unwrap();
    assert_eq!(v["otherData"]["dropped_events"].as_u64(), Some(3));
}

#[test]
fn metrics_dump_round_trips_and_lists_every_counter() {
    let reg = MetricsRegistry::new();
    reg.add(Counter::MemoProbes, 1000);
    reg.add(Counter::MemoMisses, 250);
    reg.set_gauge(Gauge::CacheHitRate, 0.75);
    let snap = reg.snapshot();
    let v: Value = serde_json::from_str(&snap.to_json()).expect("metrics dump must parse");

    let counters = v["counters"].as_object().unwrap();
    assert_eq!(counters.len(), Counter::COUNT);
    for c in Counter::ALL {
        assert!(counters.contains_key(c.name()), "missing {}", c.name());
    }
    assert_eq!(v["counters"]["memo_probes"].as_u64(), Some(1000));
    assert_eq!(v["counters"]["memo_misses"].as_u64(), Some(250));
    assert_eq!(v["counters"]["generations"].as_u64(), Some(0));

    let gauges = v["gauges"].as_object().unwrap();
    assert_eq!(gauges.len(), 1, "unset gauges must be omitted");
    assert_eq!(v["gauges"]["cache_hit_rate"].as_f64(), Some(0.75));
}

#[test]
fn handle_records_spans_with_args_through_guard() {
    let rec = InMemoryRecorder::new();
    let obs = ObsHandle::new(&rec);
    assert!(obs.is_enabled());
    {
        let mut g = obs.span(SpanId::GreedySweep);
        g.set_arg(0, 12);
        g.set_arg(1, 3);
    }
    obs.value(Gauge::BestObjective, 2.0);
    let events = rec.events();
    assert_eq!(events.len(), 2);
    let v: Value = serde_json::from_str(&chrome_trace(&rec)).unwrap();
    let events = v["traceEvents"].as_array().unwrap();
    let sweep = events
        .iter()
        .find(|e| e["name"].as_str() == Some("greedy_sweep"))
        .expect("greedy_sweep span recorded");
    assert_eq!(sweep["args"]["groups"].as_u64(), Some(12));
    assert_eq!(sweep["args"]["merged"].as_u64(), Some(3));
}

#[test]
fn disabled_handle_records_nothing() {
    let rec = InMemoryRecorder::new();
    let obs = ObsHandle::disabled();
    assert!(!obs.is_enabled());
    {
        let mut g = obs.span(SpanId::Solve);
        g.set_arg(0, 1);
    }
    obs.value(Gauge::BestObjective, 1.0);
    assert!(rec.is_empty());
    // An empty recorder still exports a valid, empty trace.
    let v: Value = serde_json::from_str(&chrome_trace(&rec)).unwrap();
    assert_eq!(v["traceEvents"].as_array().unwrap().len(), 0);
}
