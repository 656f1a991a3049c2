//! End-to-end daemon tests through [`LocalClient`]: the in-process
//! client takes the exact admission path socket clients do (same
//! `handle_line`, same queue, same workers), so everything here holds
//! for the stdin and Unix-socket front-ends too. What only a front-end
//! does — bounding the line it reads — is tested over a real socket.

use kfuse_serve::{Daemon, ServeConfig};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir()
        .join("kfuse-serve-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The raw text of one scalar field in a response line (up to the next
/// top-level comma — good enough for numbers and short strings).
fn field<'a>(resp: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let i = resp
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {resp}"));
    let rest = &resp[i + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    &rest[..end]
}

#[test]
fn exact_repeat_serves_from_cache_with_zero_generations() {
    let dir = tmpdir("exact-repeat");
    let daemon = Daemon::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let client = daemon.client();

    let cold = client.request(r#"{"id":"a","op":"solve","example":"synth20"}"#);
    assert!(cold.contains(r#""ok":true"#), "{cold}");
    assert!(cold.contains(r#""outcome":"cold""#), "{cold}");

    let warm = client.request(r#"{"id":"b","op":"solve","example":"synth20"}"#);
    assert!(warm.contains(r#""outcome":"exact_hit""#), "{warm}");
    assert!(warm.contains(r#""generations":0"#), "{warm}");
    // The served plan is the cached one: same objective, same groups
    // (`groups` is the final field, so the suffix comparison is exact).
    assert_eq!(field(&cold, "objective"), field(&warm, "objective"));
    let tail = |r: &str| r[r.find("\"groups\":").unwrap()..].to_string();
    assert_eq!(tail(&cold), tail(&warm));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_is_a_structured_rejection_not_a_hang() {
    // One worker, one queue slot. r1 occupies the worker (a large cold
    // solve, bounded by its budget); r2 takes the slot; r3/r4 must be
    // refused *immediately* with `queue_full` + `retry_after_ms`.
    let daemon = Daemon::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        retry_after_ms: 25,
        ..ServeConfig::default()
    });
    let client = daemon.client();

    let r1 = client.submit(r#"{"id":"r1","op":"solve","example":"synth200","budget_ms":1500}"#);
    // Give the worker time to dequeue r1 so the queue slot frees up.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let r2 = client.submit(r#"{"id":"r2","op":"solve","example":"synth20","budget_ms":1}"#);
    let t0 = std::time::Instant::now();
    let r3 = client.request(r#"{"id":"r3","op":"solve","example":"synth20"}"#);
    let r4 = client.request(r#"{"id":"r4","op":"solve","example":"synth20"}"#);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(1),
        "rejection must be immediate, took {:?}",
        t0.elapsed()
    );
    for r in [&r3, &r4] {
        assert!(r.contains(r#""code":"queue_full""#), "{r}");
        assert!(r.contains(r#""retry_after_ms":25"#), "{r}");
    }

    // r1 finishes within its budget; r2's 1 ms budget was eaten by the
    // queue wait, so it is rejected at dequeue — the budget-exceeded
    // path, exercised deterministically.
    let r1 = r1.recv().unwrap();
    assert!(r1.contains(r#""ok":true"#), "{r1}");
    let r2 = r2.recv().unwrap();
    assert!(r2.contains(r#""code":"budget_exceeded""#), "{r2}");

    daemon.shutdown();
}

#[test]
fn killed_writer_tail_is_tolerated_and_terminated_on_drain() {
    let dir = tmpdir("killed-writer");
    // Session 1 populates the cache.
    let daemon = Daemon::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let ans = daemon
        .client()
        .request(r#"{"id":"a","op":"solve","example":"synth20"}"#);
    assert!(ans.contains(r#""ok":true"#), "{ans}");
    daemon.shutdown();

    // A writer killed mid-append leaves a partial line with no newline.
    let file = dir.join("plans.jsonl");
    let mut text = std::fs::read_to_string(&file).unwrap();
    text.push_str("{\"version\":1,\"trunc");
    std::fs::write(&file, &text).unwrap();

    // Session 2 must still serve the intact entry from cache, and its
    // graceful drain newline-terminates the damaged tail.
    let daemon = Daemon::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let hit = daemon
        .client()
        .request(r#"{"id":"b","op":"solve","example":"synth20"}"#);
    assert!(hit.contains(r#""outcome":"exact_hit""#), "{hit}");
    daemon.shutdown();

    let text = std::fs::read_to_string(&file).unwrap();
    assert!(text.ends_with('\n'), "drain must terminate the tail");
    // The next session appends on a fresh line: a further solve of a new
    // program round-trips and the old entry still hits.
    let daemon = Daemon::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let c = daemon.client();
    let other = c.request(r#"{"id":"c","op":"solve","example":"quickstart"}"#);
    assert!(other.contains(r#""outcome":"cold""#), "{other}");
    let hit = c.request(r#"{"id":"d","op":"solve","example":"synth20"}"#);
    assert!(hit.contains(r#""outcome":"exact_hit""#), "{hit}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_worker_mode_is_reproducible() {
    // Two fresh daemons, same request stream, byte-identical responses:
    // responses carry no wall-clock fields and one worker is FIFO.
    let requests = [
        r#"{"id":"p","op":"ping"}"#,
        r#"{"id":"a","op":"solve","example":"synth20","seed":3}"#,
        r#"{"id":"b","op":"solve","example":"rk3"}"#,
        r#"{"id":"c","op":"verify","example":"quickstart","plan":[[0,1]]}"#,
    ];
    let run = || {
        let daemon = Daemon::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let client = daemon.client();
        let out: Vec<String> = requests.iter().map(|r| client.request(r)).collect();
        daemon.shutdown();
        out
    };
    assert_eq!(run(), run());
}

#[test]
fn error_paths_return_structured_codes() {
    let daemon = Daemon::start(ServeConfig::default());
    let c = daemon.client();

    let r = c.request("not json at all");
    assert!(r.contains(r#""code":"malformed_request""#), "{r}");
    let r = c.request(r#"{"id":"x"}"#);
    assert!(r.contains(r#""code":"malformed_request""#), "{r}");
    assert!(
        r.contains(r#""id":"x""#),
        "id echoed even when schema-invalid: {r}"
    );
    let r = c.request(r#"{"id":"x","op":"frobnicate"}"#);
    assert!(r.contains(r#""code":"unsupported""#), "{r}");
    let r = c.request(r#"{"id":"x","op":"solve","example":"quickstart","gpu":"h100"}"#);
    assert!(r.contains(r#""code":"unsupported""#), "{r}");
    let r = c.request(r#"{"id":"x","op":"solve","example":"no-such-example"}"#);
    assert!(r.contains(r#""code":"invalid_program""#), "{r}");
    let r = c.request(r#"{"id":"x","op":"solve"}"#);
    assert!(r.contains(r#""code":"invalid_program""#), "{r}");
    let r = c.request(r#"{"id":"x","op":"verify","example":"quickstart"}"#);
    assert!(r.contains(r#""code":"malformed_request""#), "{r}");
    let r = c.request(r#"{"id":"x","op":"verify","example":"quickstart","plan":[[0,7]]}"#);
    assert!(r.contains(r#""code":"malformed_request""#), "{r}");

    // A plan that names a kernel twice is malformed for the repeat, not
    // for the index; an index past the program is the other message.
    for plan in ["[[0,0],[1]]", "[[0],[1,0]]"] {
        let r = c.request(&format!(
            r#"{{"id":"x","op":"verify","example":"rk3","plan":{plan}}}"#
        ));
        assert!(r.contains(r#""code":"malformed_request""#), "{r}");
        assert!(
            r.contains("not a partition of 0..18: kernel index 0 appears more than once"),
            "{r}"
        );
    }
    let r = c.request(r#"{"id":"x","op":"verify","example":"rk3","plan":[[0],[18]]}"#);
    assert!(
        r.contains("not a partition of 0..18: bad kernel index 18"),
        "{r}"
    );
    // An empty group is no part of a partition, wherever it stands.
    for (plan, gi) in [("[[0,1],[]]", 1), ("[[],[0]]", 0)] {
        let r = c.request(&format!(
            r#"{{"id":"x","op":"verify","example":"rk3","plan":{plan}}}"#
        ));
        assert!(r.contains(r#""code":"malformed_request""#), "{r}");
        assert!(
            r.contains(&format!("not a partition of 0..18: group {gi} is empty")),
            "{r}"
        );
    }

    // A plan the independent verifier rejects, with diagnostics attached.
    let r = c.request(r#"{"id":"x","op":"verify","example":"fig3","plan":[[0,1,2,3,4]]}"#);
    assert!(r.contains(r#""code":"verifier_rejected""#), "{r}");
    assert!(r.contains(r#""diagnostics""#), "{r}");
    assert!(r.contains("KF0"), "diagnostic codes present: {r}");

    daemon.shutdown();
}

#[test]
fn shutdown_drains_then_refuses_new_work() {
    let daemon = Daemon::start(ServeConfig::default());
    let c = daemon.client();
    let pending = c.submit(r#"{"id":"a","op":"solve","example":"synth20"}"#);
    let bye = c.request(r#"{"id":"bye","op":"shutdown"}"#);
    assert!(bye.contains(r#""draining":true"#), "{bye}");
    // The queued solve finished before the shutdown response was sent.
    let a = pending.try_recv().expect("in-flight request drained first");
    assert!(a.contains(r#""ok":true"#), "{a}");
    // New work after drain is refused, not queued.
    let r = c.request(r#"{"id":"late","op":"solve","example":"quickstart"}"#);
    assert!(r.contains(r#""code":"shutting_down""#), "{r}");
    daemon.shutdown();
}

#[test]
fn zero_workers_and_zero_queue_depth_run_as_one_and_one() {
    // A zero handed in through the library used to spawn one worker while
    // `ping` answered 0, and made `len >= queue_depth` refuse every solve.
    let daemon = Daemon::start(ServeConfig {
        workers: 0,
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let c = daemon.client();
    let ping = c.request(r#"{"id":"p","op":"ping"}"#);
    assert_eq!(field(&ping, "workers"), "1", "{ping}");
    let r = c.request(r#"{"id":"a","op":"solve","example":"quickstart"}"#);
    assert!(r.contains(r#""ok":true"#), "{r}");
    daemon.shutdown();
}

#[test]
fn stats_reports_request_counters_and_cache_hits() {
    let dir = tmpdir("stats");
    let daemon = Daemon::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let c = daemon.client();
    c.request(r#"{"id":"a","op":"solve","example":"synth20"}"#);
    c.request(r#"{"id":"b","op":"solve","example":"synth20"}"#);
    let stats = c.request(r#"{"id":"s","op":"stats"}"#);
    assert!(stats.contains(r#""cache_hits":1"#), "{stats}");
    assert!(stats.contains(r#""requests_received":3"#), "{stats}");
    // Two solves plus the stats request itself (counted before its own
    // snapshot). Deterministic: workers count a request before replying,
    // so both solve responses imply their increments landed.
    assert!(stats.contains(r#""requests_served":3"#), "{stats}");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deep_nesting_is_one_malformed_request_and_the_daemon_lives() {
    // 2 MB of `[` used to overflow the parser's stack and abort the whole
    // process; it is an ordinary error now and the client keeps its session.
    let daemon = Daemon::start(ServeConfig::default());
    let c = daemon.client();
    let rx = c.submit(&"[".repeat(2_000_000));
    let r = rx.recv().unwrap();
    assert!(r.contains(r#""code":"malformed_request""#), "{r}");
    assert!(r.contains("nesting deeper than 128 levels"), "{r}");
    assert!(rx.try_recv().is_err(), "exactly one response line");
    let r = c.request(r#"{"id":"p","op":"ping"}"#);
    assert!(r.contains(r#""id":"p","ok":true"#), "{r}");
    daemon.shutdown();
}

/// A line one byte over the limit is one `malformed_request` naming the
/// limit — never buffered, its tail discarded up to the newline — and the
/// same connection goes on to serve the next line.
#[cfg(unix)]
#[test]
fn an_over_long_line_is_one_malformed_request_and_the_connection_serves_on() {
    use kfuse_serve::{serve_unix, MAX_LINE_BYTES};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = tmpdir("overlong");
    let sock = dir.join("kfused.sock");
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(ServeConfig::default(), &sock))
    };
    let mut stream = (0..500)
        .find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            UnixStream::connect(&sock).ok()
        })
        .expect("the daemon binds its socket");

    // No newline inside the blob: the line ends where the `ping`'s would
    // start, so the ping is only served if exactly the blob was dropped.
    let mut wire = vec![b'x'; MAX_LINE_BYTES + 1];
    wire.extend_from_slice(
        b"\n{\"id\":\"p\",\"op\":\"ping\"}\n{\"id\":\"bye\",\"op\":\"shutdown\"}\n",
    );
    stream.write_all(&wire).unwrap();

    let mut lines = BufReader::new(stream).lines().map(Result::unwrap);
    let r = lines.next().unwrap();
    assert!(r.contains(r#""id":null,"ok":false"#), "{r}");
    assert!(r.contains(r#""code":"malformed_request""#), "{r}");
    assert!(r.contains(&MAX_LINE_BYTES.to_string()), "{r}");
    assert!(r.len() < 256, "nothing of the request in it: {r}");
    let r = lines.next().unwrap();
    assert!(r.contains(r#""id":"p","ok":true"#), "{r}");
    let bye = lines.next().unwrap();
    assert!(bye.contains(r#""served":1,"rejected":1"#), "{bye}");
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_errors_stay_short_and_name_the_field_path() {
    let daemon = Daemon::start(ServeConfig::default());
    let c = daemon.client();
    let payload: Vec<String> = (0..30_000).map(|i| i.to_string()).collect();
    let request = format!(
        r#"{{"id":"big","op":"solve","program":{{"name":"x","grid":[{}]}}}}"#,
        payload.join(",")
    );
    assert!(request.len() >= 100_000);
    let r = c.request(&request);
    assert!(r.contains(r#""id":"big""#), "{r}");
    assert!(r.contains(r#""code":"invalid_program""#), "{r}");
    assert!(
        r.contains("field `grid`: expected object for GridDims, got array"),
        "{r}"
    );
    assert!(r.len() < 1024, "{} bytes: {r}", r.len());

    let request = format!(
        r#"{{"id":"big","op":"solve","program":[{}]}}"#,
        payload.join(",")
    );
    let r = c.request(&request);
    assert!(r.contains("expected object for Program, got array"), "{r}");
    assert!(r.len() < 1024, "{} bytes: {r}", r.len());
    daemon.shutdown();
}

#[test]
fn surrogate_pair_escapes_in_a_program_name_cross_the_wire() {
    // What Python's `json.dumps` (ensure_ascii) writes for a non-BMP
    // character: an escaped UTF-16 pair. It used to be refused.
    let mut program = kfuse_workloads::by_name("rk3").unwrap();
    program.name = "NAME".into();
    let text = serde_json::to_string(&program)
        .unwrap()
        .replace(r#""name":"NAME""#, r#""name":"rk3 \ud83d\ude00""#);
    let daemon = Daemon::start(ServeConfig::default());
    let r = daemon
        .client()
        .request(&format!(r#"{{"id":"u","op":"solve","program":{text}}}"#));
    assert!(r.contains(r#""ok":true"#), "{r}");
    assert!(r.contains("\"program\":\"rk3 \u{1F600}\""), "{r}");
    daemon.shutdown();
}

/// The forty request lines of the pinned session: hits and misses from
/// inline and named programs (compact, pretty, reordered envelopes, unknown
/// and repeated keys, a legacy program without `host_syncs`), `verify`, and
/// every error code a single-worker session can be made to produce.
fn session_requests() -> Vec<String> {
    let json =
        |name: &str| serde_json::to_string(&kfuse_workloads::by_name(name).unwrap()).unwrap();
    let pretty = |name: &str| {
        serde_json::to_string_pretty(&kfuse_workloads::by_name(name).unwrap()).unwrap()
    };
    let (quick, rk3, fig3) = (json("quickstart"), json("rk3"), json("fig3"));
    let legacy = {
        let start = rk3
            .find(",\"host_syncs\":")
            .expect("host_syncs is serialized");
        let end = start + 1 + rk3[start + 1..].find(",\"").expect("a field follows");
        format!("{}{}", &rk3[..start], &rk3[end..])
    };
    let mut invalid = kfuse_workloads::by_name("quickstart").unwrap();
    invalid.kernels[1].id = kfuse_ir::KernelId(7);
    let invalid = serde_json::to_string(&invalid).unwrap();
    let s = String::from;
    vec![
        s(r#"{"id":"r01","op":"ping"}"#),
        s(r#"{"id":"r02","op":"solve","example":"quickstart"}"#),
        s(r#"{"id":"r03","op":"solve","example":"quickstart"}"#),
        format!(r#"{{"id":"r04","op":"solve","program":{quick}}}"#),
        format!(
            "{{\n  \"id\": \"r05\",\n  \"op\": \"solve\",\n  \"program\": {}\n}}",
            pretty("rk3")
        ),
        format!(r#"{{"program":{rk3},"seed":17,"op":"solve","id":"r06"}}"#),
        format!(
            r#"{{"id":"r07","note":{{"nested":[1,2.5e3,{{"x":null,"y":"😀\n"}}],"t":true}},"op":"solve","program":{rk3}}}"#
        ),
        format!(r#"{{"id":"first","op":"ping","id":"r08","op":"solve","program":{legacy}}}"#),
        format!(r#"{{"id":"r09","op":"solve","gpu":"gtx750ti","program":{fig3}}}"#),
        format!(r#"{{"id":"r10","op":"solve","gpu":"gtx750ti","program":{fig3},"example":null}}"#),
        s(r#"{"id":"r11","op":"solve","example":"synth20","seed":3}"#),
        s(r#"{"id":"r12","op":"solve","example":"synth20","seed":4}"#),
        s(r#"{"id":"r13","op":"verify","example":"quickstart","plan":[[0,1]]}"#),
        format!(r#"{{"id":"r14","op":"verify","program":{rk3},"plan":[[0],[1,2]]}}"#),
        s(r#"{"id":"r15","op":"verify","example":"quickstart","plan":[[0,7]]}"#),
        s(r#"{"id":"r16","op":"verify","example":"quickstart"}"#),
        s(r#"{"id":"r17","op":"verify","example":"fig3","plan":[[0,1,2,3,4]]}"#),
        s(r#"{"id":"r18","op":"#),
        format!(
            r#"{{"id":"r19","op":"solve","program":{}}}"#,
            quick.replacen("[", "[,", 1)
        ),
        s(r#"{"id":"r20","example":"quickstart"}"#),
        s(r#"{"id":"r21","op":"solve","example":"quickstart","seed":"three"}"#),
        s(r#"{"id":21,"op":"ping"}"#),
        s(r#"{"id":"r23","op":"solve","program":[1,2,3]}"#),
        format!(
            r#"{{"id":"r24","op":"solve","program":{}}}"#,
            quick.replacen("\"kernels\"", "\"kernelz\"", 1)
        ),
        format!(
            r#"{{"id":"r25","op":"solve","program":{}}}"#,
            quick.replacen("\"Add\"", "\"Pow\"", 1)
        ),
        format!(r#"{{"id":"r26","op":"solve","program":{invalid}}}"#),
        format!(r#"{{"id":"r27","op":"solve","example":"quickstart","program":{quick}}}"#),
        s(r#"{"id":"r28","op":"solve","program":null}"#),
        s(r#"{"id":"r29","op":"solve","example":"no-such-example"}"#),
        s(r#"{"id":"r30","op":"solve","example":"quickstart","gpu":"h100"}"#),
        s(r#"{"id":"r31","op":"frobnicate","program":{"anything":[true]}}"#),
        s(r#"{"id":"r32","op":"solve","example":"quickstart","budget_ms":0}"#),
        format!(
            r#"{{"id":"r33","op":7,"program":{}"#,
            &quick[..quick.len() / 2]
        ),
        format!(
            r#"{{"id":"r34","op":"solve","program":{}}}"#,
            "[".repeat(200)
        ),
        format!(
            r#"{{"id":"r35","op":"solve","program":{}}}"#,
            quick.replacen(":0", ":-1", 1)
        ),
        // r36–r38 are submitted while a filler solve occupies the worker.
        s(r#"{"id":"r36","op":"solve","example":"quickstart"}"#),
        s(r#"{"id":"r37","op":"solve","example":"quickstart"}"#),
        s(r#"{"id":"r38","op":"ping"}"#),
        s(r#"{"id":"r39","op":"shutdown"}"#),
        s(r#"{"id":"r40","op":"solve","example":"quickstart"}"#),
    ]
}

/// Forty responses of a `--workers 1` session, byte for byte what the
/// parent commit (8f4cbe1, tree-route ingestion, quadratic `prepare`)
/// answered: `fixtures/session40.jsonl` was recorded there.
#[test]
fn forty_request_session_is_byte_identical_to_the_recorded_one() {
    let dir = tmpdir("session40");
    let daemon = Daemon::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let c = daemon.client();
    let requests = session_requests();
    assert_eq!(requests.len(), 40);
    let (before, rest) = requests.split_at(35);
    let mut actual: Vec<String> = before.iter().map(|line| c.request(line)).collect();
    // The filler (a budgeted solve, not compared) holds the worker, r36
    // takes the one queue slot, r37 is refused, r38 is answered inline.
    let filler = c.submit(r#"{"id":"filler","op":"solve","example":"synth200","budget_ms":1500}"#);
    std::thread::sleep(std::time::Duration::from_millis(300));
    let r36 = c.submit(&rest[0]);
    let (r37, r38) = (c.request(&rest[1]), c.request(&rest[2]));
    assert!(filler.recv().unwrap().contains(r#""ok":true"#));
    actual.extend([r36.recv().unwrap(), r37, r38]);
    actual.extend(rest[3..].iter().map(|line| c.request(line)));
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let expected = include_str!("fixtures/session40.jsonl");
    let actual = actual.join("\n") + "\n";
    if actual != expected {
        let out = std::env::temp_dir().join("kfuse-serve-tests/session40.actual.jsonl");
        std::fs::write(&out, &actual).unwrap();
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                a,
                e,
                "response {} differs (all of them: {})",
                i + 1,
                out.display()
            );
        }
        panic!(
            "session length differs; actual responses in {}",
            out.display()
        );
    }
}

/// `context_reuses` and the `context_memo_bytes` gauge from `stats`.
fn memo_stats(c: &kfuse_serve::LocalClient) -> (u64, f64) {
    let stats: serde_json::Value =
        serde_json::from_str(&c.request(r#"{"id":"s","op":"stats"}"#)).unwrap();
    let metrics = &stats["result"]["metrics"];
    (
        metrics["counters"]["context_reuses"].as_u64().unwrap(),
        metrics["gauges"]["context_memo_bytes"].as_f64().unwrap(),
    )
}

fn inline_solve(id: &str, program: &str) -> String {
    format!(r#"{{"id":"{id}","op":"solve","program":{program}}}"#)
}

fn cached_daemon(name: &str) -> (Daemon, PathBuf) {
    let dir = tmpdir(name);
    let daemon = Daemon::start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    (daemon, dir)
}

#[test]
fn the_third_identical_request_reuses_the_context_of_the_second() {
    let (daemon, dir) = cached_daemon("memo-third");
    let c = daemon.client();
    let rk3 = serde_json::to_string(&kfuse_workloads::by_name("rk3").unwrap()).unwrap();
    let line = inline_solve("x", &rk3);

    let cold = c.request(&line);
    assert!(cold.contains(r#""outcome":"cold""#), "{cold}");
    assert_eq!(memo_stats(&c), (0, 0.0), "a cold solve is not kept");
    let second = c.request(&line);
    assert!(second.contains(r#""outcome":"exact_hit""#), "{second}");
    let (reuses, held) = memo_stats(&c);
    assert_eq!(reuses, 0, "the second request took the full path");
    assert!(
        held > rk3.len() as f64,
        "the exact hit's context is kept: {held}"
    );
    let third = c.request(&line);
    assert_eq!(third, second);
    assert_eq!(memo_stats(&c), (1, held));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `program_texts_vouched` counter from `stats`.
fn vouched(c: &kfuse_serve::LocalClient) -> u64 {
    let stats: serde_json::Value =
        serde_json::from_str(&c.request(r#"{"id":"s","op":"stats"}"#)).unwrap();
    stats["result"]["metrics"]["counters"]["program_texts_vouched"]
        .as_u64()
        .unwrap()
}

#[test]
fn kept_program_texts_are_vouched_for_and_answered_alike() {
    let (daemon, dir) = cached_daemon("memo-vouch");
    let fresh = Daemon::start(ServeConfig::default());
    let c = daemon.client();
    let rk3 = serde_json::to_string(&kfuse_workloads::by_name("rk3").unwrap()).unwrap();
    let line = inline_solve("x", &rk3);
    c.request(&line);
    let hit = c.request(&line);
    assert_eq!(vouched(&c), 0, "nothing is kept before the exact hit");

    // Kept: every later line carrying those bytes is vouched for, a
    // `verify` too, and answered as before.
    assert_eq!(c.request(&line), hit);
    let verify = format!(r#"{{"id":"v","op":"verify","program":{rk3},"plan":[[0]]}}"#);
    assert!(c.request(&verify).contains(r#""valid":true"#));
    assert_eq!(vouched(&c), 2);

    // The same first 64 bytes and then other ones: scanned, and answered
    // as a daemon that keeps nothing answers it.
    let answered_alike = |line: &str| {
        let r = c.request(line);
        assert_eq!(r, fresh.client().request(line));
        assert!(r.contains(r#""code":"malformed_request""#), "{r}");
    };
    let at = rk3.find(r#""kernels":"#).unwrap();
    assert!(at > 64, "the break lies past the indexed prefix");
    answered_alike(&inline_solve(
        "b",
        &format!("{}\"kernels\";{}", &rk3[..at], &rk3[at + 10..]),
    ));
    assert_eq!(vouched(&c), 2);

    // The kept text and then anything else: vouched for, and failing
    // after it where the scan fails.
    let line_tail = |tail: &str| format!(r#"{{"id":"g","op":"solve","program":{rk3}{tail}"#);
    for tail in ["}}", " x}", "", ",}", "x"] {
        answered_alike(&line_tail(tail));
    }
    assert_eq!(vouched(&c), 7);

    fresh.shutdown();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reformatted_program_text_misses_the_memo_and_still_hits_the_cache() {
    let (daemon, dir) = cached_daemon("memo-reformatted");
    let c = daemon.client();
    let rk3 = kfuse_workloads::by_name("rk3").unwrap();
    let compact = serde_json::to_string(&rk3).unwrap();
    c.request(&inline_solve("x", &compact));
    let hit = c.request(&inline_solve("x", &compact));
    assert!(hit.contains(r#""outcome":"exact_hit""#), "{hit}");

    for text in [
        serde_json::to_string_pretty(&rk3).unwrap(),
        compact.replacen(',', " ,", 1),
        compact.replacen('{', "{\n", 1),
    ] {
        let before = memo_stats(&c).0;
        assert_eq!(c.request(&inline_solve("x", &text)), hit);
        assert_eq!(memo_stats(&c).0, before, "other bytes, other key");
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn near_novel_verify_and_failed_requests_are_never_kept() {
    use kfuse_ir::expr::Expr;

    let (daemon, dir) = cached_daemon("memo-never");
    let c = daemon.client();
    let rk3 = kfuse_workloads::by_name("rk3").unwrap();
    let mut near = rk3.clone();
    let st = &mut near.kernels[0].segments[0].statements[0];
    st.expr = st.expr.clone() + Expr::lit(1.0);
    let mut invalid = rk3.clone();
    invalid.kernels[1].id = kfuse_ir::KernelId(99);
    let [rk3, near, invalid] = [rk3, near, invalid].map(|p| serde_json::to_string(&p).unwrap());

    let novel = c.request(&inline_solve("n", &rk3));
    assert!(novel.contains(r#""outcome":"cold""#), "{novel}");
    let near = c.request(&inline_solve("w", &near));
    assert!(near.contains(r#""outcome":"cold""#), "{near}");
    for _ in 0..2 {
        let r = c.request(&format!(
            r#"{{"id":"v","op":"verify","program":{rk3},"plan":[[0]]}}"#
        ));
        assert!(r.contains(r#""valid":true"#), "{r}");
        let r = c.request(&inline_solve("f", &invalid));
        assert!(r.contains(r#""code":"invalid_program""#), "{r}");
        let r = c.request(r#"{"id":"e","op":"solve","example":"rk3"}"#);
        assert!(r.contains(r#""outcome":"exact_hit""#), "{r}");
    }
    assert_eq!(memo_stats(&c), (0, 0.0));
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_memo_stays_within_its_byte_bound() {
    use kfuse_serve::CONTEXT_MEMO_BYTES;

    let (daemon, dir) = cached_daemon("memo-bound");
    let c = daemon.client();
    let quick = serde_json::to_string(&kfuse_workloads::by_name("quickstart").unwrap()).unwrap();
    assert!(c
        .request(&inline_solve("q", &quick))
        .contains(r#""outcome":"cold""#));

    // Distinct texts of one program, each a MiB of whitespace: every one
    // is an exact hit, and together they are more than the bound.
    let padded = |i: usize| quick.replacen('{', &format!("{{{}", " ".repeat((1 << 20) + i)), 1);
    let n = CONTEXT_MEMO_BYTES / (1 << 20) + 4;
    for i in 0..n {
        let r = c.request(&inline_solve("q", &padded(i)));
        assert!(r.contains(r#""outcome":"exact_hit""#), "{i}: {r}");
        let (_, held) = memo_stats(&c);
        assert!(held <= CONTEXT_MEMO_BYTES as f64, "{i}: {held}");
    }
    let (_, held) = memo_stats(&c);
    assert!(held > (CONTEXT_MEMO_BYTES - (2 << 20)) as f64, "{held}");

    // The least recently used went first: the oldest text is parsed
    // again, the newest is reused.
    c.request(&inline_solve("q", &padded(0)));
    assert_eq!(memo_stats(&c).0, 0);
    c.request(&inline_solve("q", &padded(n - 1)));
    assert_eq!(memo_stats(&c).0, 1);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
