//! Integration tests for the `kfuse` CLI binary.

use std::process::Command;

fn kfuse(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_kfuse"))
        .args(args)
        .output()
        .expect("kfuse binary runs")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("kfuse-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn usage_on_no_args() {
    let out = kfuse(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn example_emits_valid_program_json() {
    let out = kfuse(&["example", "rk3"]);
    assert!(out.status.success());
    let p: kfuse_ir::Program = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(p.kernels.len(), 18);
    assert!(p.validate().is_ok());
}

#[test]
fn analyze_reports_structure() {
    let path = tmp("rk3_analyze.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();

    let out = kfuse(&["analyze", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("18 kernels"));
    assert!(text.contains("expandable"));
    assert!(text.contains("reducible GMEM traffic"));
}

#[test]
fn fuse_emits_cuda_and_plan() {
    let path = tmp("quickstart.json");
    let dump = kfuse(&["example", "quickstart"]);
    std::fs::write(&path, &dump.stdout).unwrap();

    let cu = tmp("quickstart.cu");
    let plan = tmp("quickstart_plan.json");
    let out = kfuse(&[
        "fuse",
        path.to_str().unwrap(),
        "--seed",
        "3",
        "--emit-cuda",
        cu.to_str().unwrap(),
        "--plan-out",
        plan.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("speedup"));

    let cuda = std::fs::read_to_string(&cu).unwrap();
    assert!(cuda.contains("__global__ void"));
    let plan_json = std::fs::read_to_string(&plan).unwrap();
    let p: kfuse_core::plan::FusionPlan = serde_json::from_str(&plan_json).unwrap();
    assert!(p.new_kernel_count() >= 1);
}

#[test]
fn simulate_prints_per_kernel_table() {
    let path = tmp("rk3_sim.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();

    let out = kfuse(&["simulate", path.to_str().unwrap(), "--gpu", "k40"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("K1_velx"));
    assert!(text.contains("total:"));
    assert!(text.contains("K40"));
}

#[test]
fn simulate_truncates_multibyte_kernel_names() {
    let dump = kfuse(&["example", "quickstart"]);
    let mut p: kfuse_ir::Program = serde_json::from_slice(&dump.stdout).unwrap();
    // Byte 38 falls inside the 'é' (bytes 37..39).
    p.kernels[0].name = format!("{}étendue", "a".repeat(37));
    let path = tmp("quickstart_utf8.json");
    std::fs::write(&path, serde_json::to_string(&p).unwrap()).unwrap();

    let out = kfuse(&["simulate", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(&format!("{} ", "a".repeat(37))));
    assert!(text.contains("total:"));
}

#[test]
fn codegen_streams_cuda_to_stdout() {
    let path = tmp("rk3_cg.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();

    let out = kfuse(&["codegen", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("#define NX 1280"));
    assert!(text.contains("__global__ void K1_velx"));
    assert!(text.contains("// Host launch sequence:"));
}

#[test]
fn invalid_json_reports_error() {
    let path = tmp("garbage.json");
    std::fs::write(&path, "{not json").unwrap();
    let out = kfuse(&["analyze", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
}

#[test]
fn verify_accepts_identity_and_rejects_bad_cover() {
    let path = tmp("quick_verify.json");
    let dump = kfuse(&["example", "quickstart"]);
    std::fs::write(&path, &dump.stdout).unwrap();

    let out = kfuse(&["verify", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 error(s)"));

    // A plan that covers kernel 0 twice must fail with the KF0004 code.
    let plan = tmp("bad_cover.json");
    std::fs::write(&plan, r#"{"groups":[[0],[0,1]]}"#).unwrap();
    let out = kfuse(&[
        "verify",
        path.to_str().unwrap(),
        "--plan",
        plan.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("KF0004"));
}

#[test]
fn verify_rejects_an_empty_group_without_panicking() {
    // rk3's greedy plan is clean; the same plan plus an empty group is an
    // error diagnostic naming that group, not a panic.
    let path = tmp("rk3_empty_group.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();
    let plan = tmp("rk3_greedy_plan.json");
    let out = kfuse(&[
        "solve",
        path.to_str().unwrap(),
        "--solver",
        "greedy",
        "--plan-out",
        plan.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&plan).unwrap();
    let mut greedy: kernel_fusion::core::FusionPlan = serde_json::from_str(&text).unwrap();
    let empty = greedy.groups.len();
    greedy.groups.push(Vec::new());
    std::fs::write(&plan, serde_json::to_string(&greedy).unwrap()).unwrap();

    let out = kfuse(&[
        "verify",
        path.to_str().unwrap(),
        "--plan",
        plan.to_str().unwrap(),
        "--json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
    let arr = v.as_array().expect("array of diagnostics");
    let d = arr
        .iter()
        .find(|d| d["code"].as_str() == Some("KF0011"))
        .expect("a KF0011 diagnostic");
    assert_eq!(
        d["explanation"].as_str(),
        Some(format!("group {empty} is empty").as_str())
    );
}

#[test]
fn verify_json_output_is_machine_readable() {
    let path = tmp("quick_verify_json.json");
    let dump = kfuse(&["example", "quickstart"]);
    std::fs::write(&path, &dump.stdout).unwrap();
    let plan = tmp("missing_kernel.json");
    std::fs::write(&plan, r#"{"groups":[[0]]}"#).unwrap();

    let out = kfuse(&[
        "verify",
        path.to_str().unwrap(),
        "--plan",
        plan.to_str().unwrap(),
        "--json",
    ]);
    assert!(!out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
    let arr = v.as_array().expect("array of diagnostics");
    assert!(arr.iter().any(|d| d["code"].as_str() == Some("KF0002")));
}

#[test]
fn lint_fused_rk3_is_clean() {
    let path = tmp("rk3_lint.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();

    let out = kfuse(&["lint", path.to_str().unwrap(), "--fuse", "--seed", "3"]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn solve_with_cache_dir_hits_on_repeat() {
    let dir = tmp(&format!("plan-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Extract one counter row from the `stats`-style table.
    fn counter(out: &std::process::Output, name: &str) -> u64 {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.replace(',', "").parse().ok())
            .unwrap_or_else(|| panic!("counter {name} missing from stats table"))
    }

    let cold = kfuse(&["solve", "synth12", "--cache-dir", dir.to_str().unwrap()]);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    assert_eq!(counter(&cold, "cache_probes"), 1);
    assert_eq!(counter(&cold, "cache_misses"), 1);
    assert!(
        dir.join("plans.jsonl").exists(),
        "cold solve populates cache"
    );

    let warm = kfuse(&["solve", "synth12", "--cache-dir", dir.to_str().unwrap()]);
    assert!(warm.status.success());
    assert_eq!(counter(&warm, "cache_hits"), 1);
    assert_eq!(
        counter(&warm, "generations"),
        0,
        "served plans run no search"
    );
}

#[test]
fn solve_budget_flag_is_ga_only() {
    let out = kfuse(&["solve", "synth12", "--budget-ms", "2000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("hgga-warm"));

    let bad = kfuse(&[
        "solve",
        "synth12",
        "--solver",
        "greedy",
        "--budget-ms",
        "100",
    ]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("require a GA solver"));

    let bad_ms = kfuse(&["solve", "synth12", "--budget-ms", "soon"]);
    assert!(!bad_ms.status.success());
    assert!(String::from_utf8_lossy(&bad_ms.stderr).contains("whole milliseconds"));
}

/// `--solver hgga` is `hgga-hier` with partitioning off: same objective,
/// group count and generation count, and each run reports the solver the
/// user named.
#[test]
fn solve_hgga_is_hier_with_partition_off() {
    let run = |args: &[&str]| -> String {
        let out = kfuse(args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Everything after "solver <name>: " up to the wall-time parenthesis,
    // plus the `generations` row of the metrics table.
    let key = |text: &str, name: &str| -> (String, String) {
        let head = text.lines().next().unwrap();
        let head = head
            .strip_prefix(&format!("solver {name}: "))
            .unwrap_or_else(|| panic!("expected `solver {name}:`, got `{head}`"));
        let generations = text
            .lines()
            .find(|l| l.starts_with("generations"))
            .expect("metrics table has a generations row");
        (
            head.split(" (").next().unwrap().to_string(),
            generations.to_string(),
        )
    };
    let flat = run(&["solve", "rk3", "--solver", "hgga", "--seed", "17"]);
    let hier = run(&[
        "solve",
        "rk3",
        "--solver",
        "hgga-hier",
        "--partition",
        "off",
        "--seed",
        "17",
    ]);
    assert_eq!(key(&flat, "hgga"), key(&hier, "hgga-hier"));
}

/// A numeric flag that does not parse is an error on every subcommand,
/// never a silent fall back to the default.
#[test]
fn unparseable_seed_is_an_error_on_every_subcommand() {
    let path = tmp("rk3_badflags.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();
    let path = path.to_str().unwrap();
    for args in [
        vec!["solve", "rk3", "--seed", "abc"],
        vec!["stats", "rk3", "--seed", "abc"],
        vec!["fuse", path, "--seed", "abc"],
        vec!["analyze", path, "--fuse", "--seed", "abc"],
        vec!["lint", path, "--fuse", "--seed", "abc"],
    ] {
        let out = kfuse(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("expects a number, got"), "{args:?}: {err}");
    }
}

/// A flag that takes a value but ends the command line is an error naming
/// the flag — never a run that quietly skips the output or falls back to
/// the default seed or device.
#[test]
fn a_value_flag_without_its_value_is_an_error() {
    for flag in ["--plan-out", "--seed", "--gpu"] {
        let out = kfuse(&["solve", "synth60", flag]);
        assert!(!out.status.success(), "{flag} without a value must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} expects a value")),
            "{flag}: {err}"
        );
    }
}

/// Every subcommand refuses a flag it does not know, naming the flag and
/// the subcommand, before it runs — a misspelled `--solver` or `--budget-ms`
/// never solves with the default instead.
#[test]
fn an_unknown_flag_is_an_error_on_every_subcommand() {
    let path = tmp("rk3_unknownflag.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();
    let path = path.to_str().unwrap();
    for (args, flag) in [
        (vec!["example", "rk3", "--pretty"], "--pretty"),
        (vec!["analyze", path, "--jsno"], "--jsno"),
        (vec!["simulate", path, "--gpus", "k40"], "--gpus"),
        (vec!["fuse", path, "--sed", "5"], "--sed"),
        (
            vec!["solve", "quickstart", "--sovler", "greedy"],
            "--sovler",
        ),
        (vec!["solve", "quickstart", "--budget", "5"], "--budget"),
        (vec!["stats", "quickstart", "--seeds", "5"], "--seeds"),
        (vec!["codegen", path, "--singel"], "--singel"),
        (vec!["verify", path, "--plans", "p.json"], "--plans"),
        (vec!["lint", path, "--fsue"], "--fsue"),
        (vec!["serve", "--stdin", "--worker", "2"], "--worker"),
    ] {
        let out = kfuse(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("kfuse {}: unknown flag `{flag}`", args[0]);
        assert!(err.contains(&want), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn unknown_gpu_is_an_error_in_every_subcommand() {
    let path = tmp("rk3_badgpu.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();
    let path = path.to_str().unwrap();
    for args in [
        vec!["solve", "rk3", "--gpu", "k4o"],
        vec!["stats", "rk3", "--gpu", "k4o"],
        vec!["fuse", path, "--gpu", "k4o"],
        vec!["analyze", path, "--gpu", "k4o"],
        vec!["simulate", path, "--gpu", "k4o"],
        vec!["verify", path, "--gpu", "k4o"],
        vec!["lint", path, "--fuse", "--gpu", "k4o"],
        vec!["serve", "--stdin", "--gpu", "k4o"],
    ] {
        let out = kfuse(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown gpu `k4o` (try k20x, k40, gtx750ti)"),
            "{args:?}: {err}"
        );
    }
    // Device names stay case-insensitive, as on the wire.
    assert!(
        kfuse(&["solve", "rk3", "--gpu", "K40", "--solver", "greedy"])
            .status
            .success()
    );
}

#[test]
fn lint_flags_broken_cuda_file() {
    let src = tmp("rk3_broken.cu");
    let path = tmp("rk3_lint_src.json");
    let dump = kfuse(&["example", "rk3"]);
    std::fs::write(&path, &dump.stdout).unwrap();
    let cg = kfuse(&["codegen", path.to_str().unwrap()]);
    assert!(cg.status.success());
    // Strip the bank-conflict padding from every shared tile declaration.
    let cuda = String::from_utf8_lossy(&cg.stdout).replace(" + 1];", "];");
    std::fs::write(&src, cuda).unwrap();

    let out = kfuse(&["lint", src.to_str().unwrap()]);
    // Padding lints are warnings, so the exit stays zero but the report
    // must name KF0201.
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("KF0201"));
}

/// Run `kfuse serve --stdin` with a request stream on stdin, returning
/// the JSONL response stream.
fn kfuse_serve_stdin(extra: &[&str], input: &str) -> Vec<u8> {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_kfuse"))
        .arg("serve")
        .arg("--stdin")
        .args(extra)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("kfuse binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    out.stdout
}

#[test]
fn serve_stdin_session_is_deterministic_and_caches() {
    let dir = tmp("serve-stdin-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let requests = "{\"id\":\"p\",\"op\":\"ping\"}\n\
                    {\"id\":\"a\",\"op\":\"solve\",\"example\":\"synth20\"}\n\
                    {\"id\":\"b\",\"op\":\"solve\",\"example\":\"synth20\"}\n\
                    {\"id\":\"bye\",\"op\":\"shutdown\"}\n";

    // Deterministic mode: two fresh runs (no cache), identical bytes.
    let one = kfuse_serve_stdin(&["--workers", "1"], requests);
    let two = kfuse_serve_stdin(&["--workers", "1"], requests);
    assert_eq!(one, two, "--workers 1 must be bit-for-bit reproducible");

    // With a cache directory the repeat within one session is an exact
    // hit served with zero search.
    let out = kfuse_serve_stdin(
        &["--workers", "1", "--cache-dir", dir.to_str().unwrap()],
        requests,
    );
    let text = String::from_utf8_lossy(&out);
    assert!(text.contains("\"outcome\":\"cold\""), "{text}");
    assert!(text.contains("\"outcome\":\"exact_hit\""), "{text}");
    assert!(text.contains("\"generations\":0"), "{text}");
    assert!(text.contains("\"draining\":true"), "{text}");
    // ...and the cache persists: a second daemon starts warm.
    let out = kfuse_serve_stdin(
        &["--workers", "1", "--cache-dir", dir.to_str().unwrap()],
        "{\"id\":\"c\",\"op\":\"solve\",\"example\":\"synth20\"}\n",
    );
    let text = String::from_utf8_lossy(&out);
    assert!(text.contains("\"outcome\":\"exact_hit\""), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
