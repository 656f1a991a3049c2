#!/usr/bin/env bash
# Regenerate every table and figure of the paper. Results are printed and
# written as JSON under results/ (see EXPERIMENTS.md for the index).
# Pass --skip-checks to bypass the formatting/lint gate.
# Pass `cache` to run only the plan-cache stage: cold solve, exact
# repeat, and perturbed repeat on synth60 and SCALE-LES through the CLI,
# gated on the cache counters.
# Pass `serve` to run only the daemon stage: it executes the worked
# session from SERVING.md verbatim against a live kfused (cache-hit
# counters, the >=10x exact-repeat latency gate, a byte-identical second
# pass answered partly from kept contexts, queue backpressure, graceful
# shutdown).
set -euo pipefail

# Plan-cache smoke stage (DESIGN.md §16): each workload is solved cold
# into a fresh cache directory, repeated (the repeat must be served from
# the cache with zero GA generations), then re-solved after perturbing
# 10% of its kernels (a miss: the program is solved cold, exactly as
# without a cache).
cache_stage() {
  local cache_tmp out
  cache_tmp=$(mktemp -d)
  for ex in synth60 scale-les; do
    local dir="$cache_tmp/cache-$ex"
    mkdir -p "$dir"
    ./target/release/kfuse example "$ex" > "$cache_tmp/$ex.json"
    echo "-- $ex: cold solve (populates the cache)"
    ./target/release/kfuse stats "$cache_tmp/$ex.json" --cache-dir "$dir" \
      | grep -E "^cache_(probes|hits|misses)"
    echo "-- $ex: warm repeat (exact hit, plan served without search)"
    out=$(./target/release/kfuse stats "$cache_tmp/$ex.json" --cache-dir "$dir")
    echo "$out" | grep -E "^(cache_hits|generations)"
    [[ $(echo "$out" | awk '$1 == "cache_hits" {print $2}') == 1 ]] \
      || { echo "FAIL: expected an exact cache hit on the repeat"; exit 1; }
    [[ $(echo "$out" | awk '$1 == "generations" {print $2}') == 0 ]] \
      || { echo "FAIL: a served plan must run no search"; exit 1; }
    echo "-- $ex: perturbed repeat (10% of kernels changed, solved cold)"
    python3 - "$cache_tmp/$ex.json" "$cache_tmp/$ex-perturbed.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
for i, k in enumerate(p["kernels"]):
    if i % 10 == 0:
        st = k["segments"][0]["statements"][0]
        st["expr"] = {"Bin": {"op": "Add", "lhs": st["expr"], "rhs": {"Const": 1.0}}}
json.dump(p, open(sys.argv[2], "w"))
PY
    out=$(./target/release/kfuse stats "$cache_tmp/$ex-perturbed.json" --cache-dir "$dir")
    echo "$out" | grep -E "^(cache_misses|warm_starts|generations)"
    [[ $(echo "$out" | awk '$1 == "cache_misses" {print $2}') == 1 ]] \
      && [[ $(echo "$out" | awk '$1 == "warm_starts" {print $2}') == 0 ]] \
      && [[ $(echo "$out" | awk '$1 == "generations" {print $2}') -gt 0 ]] \
      || { echo "FAIL: a perturbed repeat must miss the cache and solve cold"; exit 1; }
  done
  rm -rf "$cache_tmp"
}

# Daemon smoke stage (DESIGN.md §17, SERVING.md): the documentation IS
# the test — the `serving-*` fenced blocks of SERVING.md are extracted
# and executed verbatim (daemon launch, the full worked Python session
# with its cache-hit and >=10x latency assertions, the shutdown
# epilogue), every `json` example block is checked to parse, and a
# queue-overflow burst must come back as structured `queue_full`
# rejections, not hangs.
serve_stage() {
  local serve_tmp
  serve_tmp=$(mktemp -d)
  echo "-- extracting serving-* blocks from SERVING.md"
  for block in serving-launch serving-session serving-epilogue; do
    awk "/^\\\`\\\`\\\`(bash|python) $block\$/{f=1;next} /^\\\`\\\`\\\`\$/{f=0} f" \
      SERVING.md > "$serve_tmp/$block"
    [[ -s "$serve_tmp/$block" ]] || { echo "FAIL: SERVING.md lost its $block block"; exit 1; }
  done
  echo "-- validating every json example block in SERVING.md"
  python3 - <<'PY'
import json, re
text = open("SERVING.md").read()
blocks = re.findall(r"^```json\n(.*?)^```$", text, re.S | re.M)
assert len(blocks) >= 10, f"expected the documented examples, found {len(blocks)}"
for b in blocks:
    json.loads(b)
print(f"   ok: {len(blocks)} json examples parse")
PY
  echo "-- worked session: launch daemon, drive SERVING.md session twice, drain"
  (
    cd "$(pwd)"
    source "$serve_tmp/serving-launch"
    python3 "$serve_tmp/serving-session" | tee "$serve_tmp/session.out"
    source "$serve_tmp/serving-epilogue"
  )
  # The session sends its requests twice to one daemon; the second pass
  # must answer byte for byte alike, partly from kept contexts.
  grep -qE '^second pass: [0-9]+ responses byte-identical, context_reuses=[1-9]' \
    "$serve_tmp/session.out" \
    || { echo "FAIL: the worked session must repeat byte-identically and reuse a kept context"; exit 1; }
  echo "-- queue backpressure: burst into a 1-deep queue, expect queue_full"
  rm -rf /tmp/kfused-cache /tmp/kfused.sock
  ./target/release/kfuse serve --socket /tmp/kfused.sock \
    --workers 1 --queue-depth 1 &
  local pid=$!
  while [ ! -S /tmp/kfused.sock ]; do sleep 0.1; done
  python3 - <<'PY'
import json, socket
sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.connect("/tmp/kfused.sock")
rfile = sock.makefile("r")
# One slow solve occupies the worker, one fills the queue slot; the rest
# of the burst must be refused immediately with the structured rejection.
burst = 8
for i in range(burst):
    sock.sendall((json.dumps(
        {"id": f"b{i}", "op": "solve", "example": "synth200", "budget_ms": 1500}
    ) + "\n").encode())
codes = [json.loads(rfile.readline()) for _ in range(burst)]
full = [r for r in codes if not r["ok"] and r["error"]["code"] == "queue_full"]
assert full, "a burst past queue capacity must yield queue_full rejections"
assert all("retry_after_ms" in r["error"] for r in full), full[0]
served = [r for r in codes if r["ok"] or r["error"]["code"] == "budget_exceeded"]
assert len(served) + len(full) == burst, codes
print(f"   ok: {len(full)} rejected with retry_after_ms, {len(served)} drained")
sock.sendall(b'{"id":"bye","op":"shutdown"}\n')
assert json.loads(rfile.readline())["ok"]
PY
  wait "$pid"
  rm -rf /tmp/kfused-cache "$serve_tmp"
}

if [[ "${1:-}" == "serve" ]]; then
  cargo build --release --bin kfuse
  serve_stage
  exit 0
fi

if [[ "${1:-}" == "cache" ]]; then
  cargo build --release --bin kfuse
  cache_stage
  exit 0
fi

if [[ "${1:-}" != "--skip-checks" ]]; then
  echo "== cargo fmt --check"
  cargo fmt --check
  echo "== cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
  # One build, one configuration: a cargo feature doubles what every
  # gate below has to cover, so none may come back unnoticed.
  echo "== no cargo features outside vendor/"
  if grep -rnE 'cfg(_attr|!)?\(.*feature' crates src tests examples \
    || grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; then
    echo "FAIL: cargo feature gate found (see DESIGN.md §13.4)"
    exit 1
  fi
  # One committed source per number: timings come from benchmark/
  # (BENCHMARK.json) and nowhere else, so neither a criterion bench
  # target nor a second committed-baseline file and its drift gate may
  # come back.
  echo "== no [[bench]] targets or criterion outside vendor/"
  if grep -nE '^\[\[bench\]\]|criterion' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml; then
    echo "FAIL: [[bench]] table or criterion dependency found (see EXPERIMENTS.md, Historical measurements)"
    exit 1
  fi
  echo "== no second measurement stack (BENCH_*.json, check-against, floor_gate)"
  if git ls-files | grep -E '(^|/)BENCH_[^/]*\.json$' \
    || grep -rnE 'check[-_]against|floor_gate' crates src; then
    echo "FAIL: committed baseline file or drift gate found (see EXPERIMENTS.md, Historical measurements)"
    exit 1
  fi
  # One memo layout: a shard's keys live in its arena, so a miss
  # allocates nothing per entry. A boxed key coming back would restore
  # two allocations per miss.
  echo "== no boxed memo keys in crates/search/src/eval.rs"
  if grep -nF 'Box<[KernelId]>' crates/search/src/eval.rs; then
    echo "FAIL: boxed memo key found (see DESIGN.md §8.2)"
    exit 1
  fi
  # One pass per layer on the request path (DESIGN.md §3.1, §17.2): the
  # all-pairs kinship matrix, a `Value` tree between a request line and
  # its `Program`, and a per-array rebuild of every expression in the
  # relaxation each made that path super-linear or twice-copied once.
  echo "== request path stays one pass per layer"
  if grep -nE 'DENSE_DIST_LIMIT|dist:' crates/core/src/kinship.rs; then
    echo "FAIL: a distance matrix is back in kinship.rs (see DESIGN.md §3.1)"
    exit 1
  fi
  if grep -rn 'from_value' crates/serve/src; then
    echo "FAIL: kfuse-serve builds a Value tree on the request path (see DESIGN.md §17.2)"
    exit 1
  fi
  if grep -n 'map_arrays' crates/core/src/relax.rs; then
    echo "FAIL: relax.rs rebuilds expressions instead of renaming in place (see DESIGN.md §3.1)"
    exit 1
  fi
  # One group synthesis in kfuse-core (DESIGN.md §11): `GroupSpec` is a
  # `SpecView` materialized. The deleted second body aggregated into
  # `BTreeMap`s over `&KernelMeta`s; either name in spec.rs means it is
  # being written again.
  echo "== one group synthesis in kfuse-core"
  if grep -nE 'BTreeMap|KernelMeta' crates/core/src/spec.rs; then
    echo "FAIL: spec.rs synthesizes on its own again (see DESIGN.md §11)"
    exit 1
  fi
  # One GA loop (DESIGN.md §8): the GA evolves one population; the
  # island model, its per-island stats and its span kinds were deleted.
  echo "== one GA loop"
  if grep -rnE 'solve_islands|evolve_island|IslandStats|MIGRATION_SIZE|SpanId::Epoch|SpanId::Migration' \
    crates src tests; then
    echo "FAIL: a second GA loop is coming back (see DESIGN.md §8)"
    exit 1
  fi
  # One implementation per concept (ROADMAP aim 2): the frozen GA loop,
  # evaluator and CUDA emitter were recorded as digests and deleted; the
  # tests compare against those digests and the independent verifier.
  # Near-hit seeding and the islands-flag no-op were measured and deleted
  # too (DESIGN.md §16.3, §8.1): a cache serves exact hits or stays out.
  echo "== one implementation per concept"
  if grep -rnE 'mod (reference|legacy)\b|LegacyEvaluator|emit_(program|kernel)_reference|remap_entry|project_seed|inject_seeds|SolveControls|PROBE_NEAR|check_islands' \
    crates src tests; then
    echo "FAIL: a frozen second implementation is coming back (see DESIGN.md §10.4)"
    exit 1
  fi
  # One experiment driver (DESIGN.md §4): every table and figure is a
  # subcommand of `repro` (crates/bench/src/main.rs), so no second binary
  # may appear beside it, and the block-size tuner's one study stays gone.
  echo "== one experiment driver"
  if find crates/bench/src/bin -type f 2>/dev/null | grep . \
    || [[ $(grep -c '^\[\[bin\]\]' crates/bench/Cargo.toml) != 1 ]] \
    || grep -n 'pub mod tuner' crates/core/src/lib.rs; then
    echo "FAIL: a second experiment binary or core::tuner is coming back (see DESIGN.md §4)"
    exit 1
  fi
  echo "== cargo doc --no-deps (missing_docs gate)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
  # Tier-1 (`cargo test -q`, the root package) never runs the member
  # crates' tests or the unit tests of the vendored JSON stand-ins that
  # carry every program, request and cache entry; the linear-parse gate
  # runs optimized too, where a regression to quadratic shows at the
  # sizes the daemon sees.
  # The allocation bounds (the memo's; the typed parser's, the
  # relaxation's and plan validation's) count what optimized code
  # allocates, so they run in release as well.
  echo "== cargo test --workspace (debug) + linear-parse and allocation gates (release)"
  cargo test -q --workspace
  cargo test --release -q --test serialization parse_time_scales_linearly_with_input_size
  cargo test --release -q -p kfuse-search --test alloc_free
  cargo test --release -q --test alloc_bounds
fi

cargo build --release -p kfuse-bench
cargo build --release --bin kfuse

echo
echo "================================================================"
echo "== verify: independent plan verifier + CUDA lint + differential"
echo "================================================================"
# Every built-in workload suite must pass the static verifier (identity
# plan) and the CUDA lint of its generated code; the differential harness
# then cross-checks the verifier against both plan evaluators on 500+
# generated plans.
verify_tmp=$(mktemp -d)
trap 'rm -rf "$verify_tmp"' EXIT
for ex in quickstart rk3 fig3 scale-les homme suite; do
  ./target/release/kfuse example "$ex" > "$verify_tmp/$ex.json"
  echo "-- kfuse verify $ex"
  ./target/release/kfuse verify "$verify_tmp/$ex.json"
  echo "-- kfuse lint $ex"
  ./target/release/kfuse lint "$verify_tmp/$ex.json"
done
echo "-- kfuse lint rk3 (fused, seed 3)"
./target/release/kfuse lint "$verify_tmp/rk3.json" --fuse --seed 3
echo "-- differential harness (verifier vs both evaluators)"
cargo test --release -q --test differential
echo "-- synthesis differential (core vs verifier, 3 GPUs)"
cargo test --release -q --test synth_differential

echo
echo "================================================================"
echo "== analyze: structured KF03 module analysis (identity + fused)"
echo "================================================================"
# The structured analyzer must accept the GPU modules generated for all
# built-in workloads (warnings allowed, errors fatal); the differential
# harness then proves the KF02 text lint is subsumed by the KF03 module
# analysis on a corpus of deliberately broken modules.
for ex in quickstart rk3 fig3 scale-les homme suite; do
  echo "-- kfuse analyze $ex"
  ./target/release/kfuse analyze "$verify_tmp/$ex.json" > /dev/null
done
echo "-- kfuse analyze fig3 (fused, seed 3)"
./target/release/kfuse analyze "$verify_tmp/fig3.json" --fuse --seed 3 > /dev/null
echo "-- lint-vs-analysis differential (KF02 subsumption, mutant corpus)"
cargo test --release -q --test analysis_differential

echo
echo "================================================================"
echo "== obs: traced solves on every workload + disabled-path guarantees"
echo "================================================================"
# Solve every built-in workload with tracing + metrics dumps on, then
# validate that each emitted file is well-formed JSON (chrome-trace with
# a traceEvents array, metrics with a counters object). python3 is the
# only JSON validator assumed on the host.
for ex in quickstart rk3 fig3 scale-les homme suite; do
  echo "-- kfuse solve $ex --trace"
  ./target/release/kfuse solve "$verify_tmp/$ex.json" \
    --trace "$verify_tmp/$ex-trace.json" --metrics "$verify_tmp/$ex-metrics.json" > /dev/null
  python3 - "$verify_tmp/$ex-trace.json" "$verify_tmp/$ex-metrics.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
assert isinstance(trace["traceEvents"], list) and trace["traceEvents"], "empty trace"
assert any(e.get("ph") == "X" for e in trace["traceEvents"]), "no complete spans"
metrics = json.load(open(sys.argv[2]))
assert "counters" in metrics and "gauges" in metrics, "malformed metrics dump"
print(f"   ok: {len(trace['traceEvents'])} trace events, "
      f"{sum(1 for v in metrics['counters'].values() if v)} live counters")
PY
done
# The six built-ins all solve flat, so the hierarchical path gets its own
# traced run: its three pass spans, one `region N` track per solved
# region (never an evaluator worker's), and the regions_solved counter.
echo "-- kfuse solve synth500 --solver hgga-hier --trace"
./target/release/kfuse solve synth500 --solver hgga-hier \
  --trace "$verify_tmp/hier-trace.json" --metrics "$verify_tmp/hier-metrics.json" > /dev/null
python3 - "$verify_tmp/hier-trace.json" "$verify_tmp/hier-metrics.json" <<'PY'
import json, re, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
spans = {e["name"] for e in events if e.get("ph") == "X"}
for name in ("partition_pass", "region_solve", "stitch_pass"):
    assert name in spans, f"no {name} span in the hierarchical trace"
track = {e["tid"]: e["args"]["name"] for e in events if e.get("name") == "thread_name"}
region_tracks = {track[e["tid"]] for e in events if e.get("name") == "region_solve"}
assert all(re.fullmatch(r"region \d+", t) for t in region_tracks), region_tracks
assert len(region_tracks) >= 2, f"expected >= 2 region tracks, got {region_tracks}"
solved = json.load(open(sys.argv[2]))["counters"]["regions_solved"]
assert solved >= 2, f"regions_solved = {solved}"
print(f"   ok: {len(region_tracks)} region tracks, regions_solved = {solved}")
PY
echo "-- disabled-path allocation freedom (alloc_free)"
cargo test --release -q -p kfuse-search --test alloc_free

./target/release/repro all

echo
echo "================================================================"
echo "== cache: plan cache cold/exact/perturbed repeat (synth60, SCALE-LES)"
echo "================================================================"
cache_stage

echo
echo "================================================================"
echo "== serve: kfused daemon, SERVING.md worked session + backpressure"
echo "================================================================"
serve_stage
