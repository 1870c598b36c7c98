#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint, format, and rustdoc
# checks.
#
# The workspace's `default-members` lists every package, so the plain
# `cargo test` below runs the whole workspace suite. Third-party
# dependencies (proptest, rand) are offline stand-ins under compat/.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0
step() {
    echo
    echo "==> $*"
}

step "cargo build --release"
cargo build --release || fail=1

step "cargo test -q --release"
cargo test -q --release || fail=1

step "benchmark harness: build and test against this checkout"
CARGO_TARGET_DIR=.bench_build cargo build --offline --release \
    --manifest-path benchmark/Cargo.toml || fail=1
CARGO_TARGET_DIR=.bench_build cargo test --offline --release -q \
    --manifest-path benchmark/Cargo.toml || fail=1

step "fault-sweep smoke (finiteness, serial == parallel; BENCH_faults.json audit)"
cargo run --release -p vpd-bench --bin faults -- --smoke || fail=1

step "dynamic-fault smoke (serial == parallel; BENCH_faultdyn.json audit)"
cargo run --release -p vpd-bench --bin faultdyn -- --smoke || fail=1

step "sweep-engine smoke (Monte-Carlo serial == parallel; BENCH_sweeps.json audit)"
cargo run --release -p vpd-bench --bin sweeps -- --smoke || fail=1

step "CLI smoke: vpd faults --dynamic --format json"
if cargo run --release --bin vpd -- --format json \
    faults --arch a2 --dynamic >target/tier1-faultdyn.json; then
    python3 - target/tier1-faultdyn.json <<'EOF' || fail=1
import json, math, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["command"] == "faults" and doc["mode"] == "dynamic", doc
z = doc["impedance"]
assert z["outcomes"], "impedance report has no scenarios"
for o in z["outcomes"]:
    assert math.isfinite(o["peak_ohm"]) and o["peak_ohm"] > 0, o
t = doc["transient"]
assert any(o["fail_at_s"] is None for o in t["outcomes"]), "missing healthy baseline"
assert all(math.isfinite(o["droop_v"]) for o in t["outcomes"]), t
s = doc["survival"]
assert isinstance(s["survives"], bool), s
assert s["converged"] + s["capped"] + s["diverged"] == len(s["outcomes"]), s
for o in s["outcomes"]:
    assert math.isfinite(o["residual_k"]), o
print(
    f"faults --dynamic smoke OK: {len(z['outcomes'])} impedance, "
    f"{len(t['outcomes'])} transient, {len(s['outcomes'])} cascade scenarios; "
    f"survives={s['survives']}"
)
EOF
else
    fail=1
fi

step "sparse-cholesky smoke (block == sequential; BENCH_cholesky.json audit)"
cargo run --release -p vpd-bench --bin cholesky -- --smoke || fail=1

step "observability smoke (metrics on == off, bitwise; BENCH_obs.json audit)"
cargo run --release -p vpd-bench --bin obs -- --smoke || fail=1

step "ac-sweep smoke (three paths bitwise identical; BENCH_ac.json audit)"
cargo run --release -p vpd-bench --bin ac -- --smoke || fail=1

step "transient bench smoke (three paths bitwise identical; BENCH_transient.json audit)"
cargo run --release -p vpd-bench --bin transient -- --smoke || fail=1

step "CLI smoke: vpd impedance --format json"
if cargo run --release --bin vpd -- --format json \
    impedance --arch all --points 24 >target/tier1-impedance.json; then
    python3 - target/tier1-impedance.json <<'EOF' || fail=1
import json, math, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
archs = doc["comparison"]["architectures"]
assert [a["label"] for a in archs] == ["A0", "A1", "A2"], archs
for a in archs:
    for key in ("peak_ohm", "peak_frequency_hz", "target_ohm", "margin"):
        assert math.isfinite(a[key]), f"non-finite {key} for {a['label']}"
assert not archs[0]["meets_target"], "A0 must violate the target"
assert archs[2]["meets_target"], "A2 must meet the target"
assert archs[0]["peak_ohm"] > archs[2]["peak_ohm"], "peaks must fall A0 -> A2"
print("impedance smoke OK: comparison JSON parses, finite, correctly ordered")
EOF
else
    fail=1
fi

step "CLI smoke: the text view shows every number of the JSON document"
for args in "analyze --arch a1" \
    "faults --arch a2 --random-k 2 --count 4 --seed 7" \
    "impedance --arch all --points 24"; do
    # Word splitting of $args is intended: each entry is one argv.
    # shellcheck disable=SC2086
    if ./target/release/vpd $args >target/tier1-view.txt &&
        ./target/release/vpd --format json $args >target/tier1-view.json; then
        python3 - target/tier1-view.json target/tier1-view.txt "$args" <<'EOF' || fail=1
import json, sys

# Keep every number exactly as the JSON spells it.
spellings = []
def keep(token):
    spellings.append(token)
    return token

with open(sys.argv[1]) as f:
    json.load(f, parse_int=keep, parse_float=keep)
with open(sys.argv[2]) as f:
    view = f.read()
missing = [t for t in spellings if t not in view]
assert spellings, f"vpd {sys.argv[3]}: JSON document has no numbers"
assert not missing, f"vpd {sys.argv[3]}: text view lacks {missing[:5]}"
print(f"text view OK: vpd {sys.argv[3]} shows all {len(spellings)} numbers")
EOF
    else
        fail=1
    fi
done

step "CLI smoke: --format json + --metrics NDJSON round-trip"
metrics_file="target/tier1-metrics.ndjson"
rm -f "$metrics_file"
if cargo run --release --bin vpd -- --format json --metrics "$metrics_file" \
    mc --arch a1 --samples 4 >target/tier1-mc.json; then
    python3 - "$metrics_file" target/tier1-mc.json <<'EOF' || fail=1
import json, math, sys

with open(sys.argv[2]) as f:
    doc = json.load(f)
summary = doc["summary"]
for key in ("mean_percent", "std_dev_percent", "min_percent", "max_percent"):
    assert math.isfinite(summary[key]), f"non-finite {key} in CLI JSON"

with open(sys.argv[1]) as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert len(lines) == 1, f"expected 1 NDJSON record, got {len(lines)}"
rec = lines[0]
assert rec["label"] == "mc", rec["label"]
assert rec["counters"]["mc.samples"] == 4, rec["counters"]
# Every sample and the nominal point are answered from the nominal
# regulator response: no CG solve, and the response build's restamp is
# the only one.
assert rec["counters"].get("cg.solves", 0) == 0, rec["counters"]
assert rec["counters"]["mc.lowrank_samples"] == 4, rec["counters"]
assert rec["counters"]["mc.lowrank_fallbacks"] == 0, rec["counters"]
assert rec["counters"]["plan.restamps"] == 1, rec["counters"]
for value in rec["gauges"].values():
    assert value is None or math.isfinite(value), "non-finite gauge"
print("CLI smoke OK: JSON output and NDJSON metrics both parse and are finite")
EOF
else
    fail=1
fi

step "CLI smoke: A2 N-1 faults stay on the low-rank path"
faults_metrics="target/tier1-faults-metrics.ndjson"
rm -f "$faults_metrics"
if ./target/release/vpd --metrics "$faults_metrics" --format json \
    faults --arch a2 >target/tier1-faults.json; then
    python3 - "$faults_metrics" <<'EOF' || fail=1
import json, sys

with open(sys.argv[1]) as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert len(lines) == 1, f"expected 1 NDJSON record, got {len(lines)}"
counters = lines[0]["counters"]
lowrank = counters.get("faults.lowrank_scenarios")
fallbacks = counters.get("faults.lowrank_fallbacks")
restamps = counters.get("plan.restamps", 0)
assert lowrank == 48, f"faults.lowrank_scenarios = {lowrank}, want 48"
assert fallbacks == 0, f"faults.lowrank_fallbacks = {fallbacks}, want 0"
assert restamps <= 2, f"plan.restamps = {restamps}: scenarios were restamped"
print(f"low-rank smoke OK: 48/48 N-1 scenarios low-rank, {restamps} restamps in all")
EOF
else
    fail=1
fi

step "serve bench smoke (cached == cold oracle, typed shedding; BENCH_serve.json audit)"
cargo run --release -p vpd-bench --bin serve -- --smoke || fail=1

step "CLI smoke: vpd serve / vpd call round-trip over loopback"
serve_log="target/tier1-serve.log"
serve_metrics="target/tier1-serve-metrics.ndjson"
serve_calls="target/tier1-serve-calls.ndjson"
rm -f "$serve_metrics" "$serve_calls"
./target/release/vpd --metrics "$serve_metrics" serve --addr 127.0.0.1:0 \
    2>"$serve_log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
    serve_addr=$(sed -n 's/^vpd serve: listening on //p' "$serve_log")
    [ -n "$serve_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ]; then
    echo "vpd serve did not start:"
    cat "$serve_log"
    kill "$serve_pid" 2>/dev/null
    fail=1
else
    ./target/release/vpd call --addr "$serve_addr" \
        --request '{"id":1,"kind":"ping"}' \
        --request '{"id":2,"kind":"analyze","params":{"arch":"a1"}}' \
        --request '{"id":3,"kind":"sharing","params":{"modules":12}}' \
        --request '{"id":4,"kind":"mc","params":{"arch":"a0","samples":4}}' \
        --request '{"id":5,"kind":"impedance","params":{"arch":"a1","points":16}}' \
        --request '{"id":6,"kind":"droop","params":{"arch":"a0"}}' \
        --request '{"id":7,"kind":"faults","params":{"arch":"a2","random_k":2,"count":4,"seed":7}}' \
        --request '{"id":8,"kind":"stats"}' \
        >"$serve_calls" || fail=1
    ./target/release/vpd call --addr "$serve_addr" --shutdown >/dev/null || fail=1
    wait "$serve_pid" || fail=1
    python3 - "$serve_calls" "$serve_metrics" <<'EOF' || fail=1
import json, sys

with open(sys.argv[1]) as f:
    responses = [json.loads(line) for line in f if line.strip()]
assert len(responses) == 8, f"expected 8 responses, got {len(responses)}"
by_id = {r["id"]: r for r in responses}
assert sorted(by_id) == list(range(1, 9)), sorted(by_id)
for r in responses:
    assert r["ok"], f"request {r['id']} failed: {r}"
    assert r["version"] == 2, f"request {r['id']} missing protocol version: {r}"
stats = by_id[8]["result"]
cache = stats["cache"]
assert cache["misses"] > 0, cache
assert cache["entries"] > 0, cache

with open(sys.argv[2]) as f:
    lines = [json.loads(line) for line in f if line.strip()]
assert len(lines) == 1, f"expected 1 metrics record, got {len(lines)}"
rec = lines[0]
assert rec["label"] == "serve", rec["label"]
assert rec["counters"]["serve.requests"] == 8, rec["counters"]
assert rec["counters"]["serve.ok"] == 8, rec["counters"]
assert rec["counters"]["serve.cache.misses"] > 0, rec["counters"]
print("serve smoke OK: one response per request, all ok, metrics snapshot valid")
EOF
fi

step "CLI smoke: vpd call transient_stream over loopback"
stream_log="target/tier1-stream.log"
stream_out="target/tier1-stream.ndjson"
rm -f "$stream_out"
./target/release/vpd serve --addr 127.0.0.1:0 2>"$stream_log" &
stream_pid=$!
stream_addr=""
for _ in $(seq 1 100); do
    stream_addr=$(sed -n 's/^vpd serve: listening on //p' "$stream_log")
    [ -n "$stream_addr" ] && break
    sleep 0.1
done
if [ -z "$stream_addr" ]; then
    echo "vpd serve did not start:"
    cat "$stream_log"
    kill "$stream_pid" 2>/dev/null
    fail=1
else
    ./target/release/vpd call --addr "$stream_addr" \
        --request '{"id":1,"kind":"transient_stream","params":{"arch":"a2","chunk":2000}}' \
        >"$stream_out" || fail=1
    ./target/release/vpd call --addr "$stream_addr" --shutdown >/dev/null || fail=1
    wait "$stream_pid" || fail=1
    python3 - "$stream_out" <<'EOF' || fail=1
import json, sys

with open(sys.argv[1]) as f:
    records = [json.loads(line) for line in f if line.strip()]
chunks = [r for r in records if r.get("done") is False]
finals = [r for r in records if r.get("done") is True]
assert len(finals) == 1, f"expected 1 summary record, got {len(finals)}"
assert [r["seq"] for r in records] == list(range(len(records))), records
assert sum(r["result"]["samples"] for r in chunks) == 6001, chunks
summary = finals[0]["result"]
assert summary["samples"] == 6001, summary
assert summary["chunks"] == len(chunks), summary
assert "report" in summary, summary
print(f"transient_stream smoke OK: {len(chunks)} ordered chunks + summary, 6001 samples")
EOF
fi

step "CLI smoke: serve saturation + load shedding over loopback"
shed_log="target/tier1-shed.log"
shed_out="target/tier1-shed.ndjson"
rm -f "$shed_out"
./target/release/vpd serve --addr 127.0.0.1:0 --workers 1 --queue-depth 2 \
    2>"$shed_log" &
shed_pid=$!
shed_addr=""
for _ in $(seq 1 100); do
    shed_addr=$(sed -n 's/^vpd serve: listening on //p' "$shed_log")
    [ -n "$shed_addr" ] && break
    sleep 0.1
done
if [ -z "$shed_addr" ]; then
    echo "vpd serve did not start:"
    cat "$shed_log"
    kill "$shed_pid" 2>/dev/null
    fail=1
else
    # Warm the admission estimate, then flood a depth-2 queue with
    # doomed one-millisecond deadlines from many concurrent clients.
    ./target/release/vpd call --addr "$shed_addr" \
        --request '{"id":0,"kind":"sharing","params":{"modules":48}}' >/dev/null || fail=1
    shed_args=()
    for i in $(seq 1 16); do
        shed_args+=(--request "{\"id\":$i,\"kind\":\"sharing\",\"params\":{\"modules\":48},\"deadline_ms\":1}")
    done
    ./target/release/vpd call --addr "$shed_addr" "${shed_args[@]}" \
        >"$shed_out" || fail=1
    ./target/release/vpd call --addr "$shed_addr" --shutdown >/dev/null || fail=1
    wait "$shed_pid" || fail=1
    python3 - "$shed_out" <<'EOF' || fail=1
import json, sys

with open(sys.argv[1]) as f:
    responses = [json.loads(line) for line in f if line.strip()]
assert len(responses) == 16, f"overload dropped responses: got {len(responses)}"
typed = {"queue_full", "shed", "deadline_exceeded"}
rejects = 0
for r in responses:
    assert r["version"] == 2, r
    if not r["ok"]:
        code = r["error"]["code"]
        assert code in typed, f"untyped overload reject: {r}"
        rejects += 1
assert rejects > 0, "a depth-2 queue flooded with 1 ms deadlines must reject some"
print(f"shed smoke OK: 16/16 answered, {rejects} typed rejects, all well-formed NDJSON")
EOF
fi

step "CLI smoke: vpd scenario check over the checked-in corpus"
for doc in scenarios/*.vpd; do
    ./target/release/vpd scenario check --file "$doc" >/dev/null || {
        echo "vpd scenario check rejected builtin $doc"
        fail=1
    }
done
for doc in scenarios/bad/*.vpd; do
    code=$(basename "$doc" .vpd)
    err=$(./target/release/vpd scenario check --file "$doc" 2>&1 >/dev/null) && {
        echo "vpd scenario check accepted malformed $doc"
        fail=1
    }
    case "$err" in
        *"error[$code] at "*) ;;
        *)
            echo "$doc: expected stable code error[$code], got: $err"
            fail=1
            ;;
    esac
done
echo "scenario corpus OK: $(ls scenarios/*.vpd | wc -l) accepted, $(ls scenarios/bad/*.vpd | wc -l) rejected with named codes"

step "CLI smoke: vpd scenario run matches vpd analyze (document vs hardcoded)"
./target/release/vpd scenario run --name a2 --format json >target/tier1-scenario.json || fail=1
python3 - target/tier1-scenario.json <<'EOF' || fail=1
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["command"] == "scenario", doc
assert doc["name"] == "a2" and doc["architecture"] == "A2", doc
assert len(doc["hash"]) == 16, doc
eff = doc["breakdown"]["efficiency"]
assert 0.8 < eff < 1.0, f"implausible A2 efficiency {eff}"
print(f"scenario run OK: a2 hash {doc['hash']}, efficiency {eff:.4f}")
EOF

step "scenario bench smoke (cached == cold, respelling shares; BENCH_scenario.json audit)"
cargo run --release -p vpd-bench --bin scenario -- --smoke || fail=1

step "cargo clippy --release -- -D warnings"
cargo clippy --release --workspace --all-targets -- -D warnings || fail=1

step "cargo fmt --check"
cargo fmt --all --check || fail=1

step "cargo doc (rustdoc warnings, broken intra-doc links included, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps || fail=1

echo
if [ "$fail" -ne 0 ]; then
    echo "tier1: FAILED"
    exit 1
fi
echo "tier1: OK"
