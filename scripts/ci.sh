#!/usr/bin/env bash
# CI entry point: tier-1 verification plus the sanitizer suites.
# Mirrors what a contributor runs locally (see ROADMAP.md):
#
#   scripts/ci.sh            # tier-1 + bench smoke + perfbench tests
#                            #   + tsan + asan/ubsan
#   scripts/ci.sh --quick    # skip the perfbench tests and sanitizers
#
# Build directories: build/ (tier-1), build-perfbench/ (the repository
# benchmark, perfbench/), build-tsan/ (REAPER_SANITIZE=thread) and
# build-asan/ (REAPER_SANITIZE=address: ASan + UBSan, no recovery). All
# are incremental across runs.
set -euo pipefail

cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "=== tier-1: configure + build ==="
cmake -B build -S .
cmake --build build -j "$jobs"

echo "=== tier-1: ctest ==="
(cd build && ctest --output-on-failure -j "$jobs")

# Figure-output gate: the simulator's statistics feed fig13 and the
# ablations, and the retention read path (DramDevice) feeds fig3, fig4,
# fig5, fig9, fig10 and the Sec. 6.1.2 headline, so their quick-mode
# stdout must not depend on the fleet thread count and must match the
# digests committed in bench/golden/. A change that means to move a
# figure updates the digest in the same commit:
#   REAPER_BENCH_QUICK=1 ./build/bench/<bench> | sha256sum
echo "=== figure output gate: quick-mode stdout vs bench/golden ==="
sha256() {
    if command -v sha256sum > /dev/null; then
        sha256sum | cut -d' ' -f1
    else
        shasum -a 256 | cut -d' ' -f1
    fi
}
for pair in bench_fig13_endtoend:fig13_quick \
    bench_ablations:ablations_quick \
    bench_fig3_vrt_accumulation:fig3_quick \
    bench_fig4_accumulation_rate:fig4_quick \
    bench_fig5_dpd_coverage:fig5_quick \
    bench_fig9_reach_tradeoff:fig9_quick \
    bench_fig10_reach_runtime:fig10_quick \
    bench_sec612_headline:sec612_quick
do
    bench="${pair%%:*}"
    golden="bench/golden/${pair#*:}.sha256"
    one="$(REAPER_BENCH_QUICK=1 REAPER_BENCH_THREADS=1 \
        "build/bench/$bench" | sha256)"
    many="$(REAPER_BENCH_QUICK=1 REAPER_BENCH_THREADS="$jobs" \
        "build/bench/$bench" | sha256)"
    if [[ "$one" != "$many" ]]; then
        echo "figure gate: $bench stdout differs at 1 and $jobs" \
            "threads ($one vs $many)" >&2
        exit 1
    fi
    expected="$(cat "$golden")"
    if [[ "$one" != "$expected" ]]; then
        echo "figure gate: $bench stdout digest $one != $golden" \
            "($expected)" >&2
        exit 1
    fi
    echo "figure gate: $bench ok at 1 and $jobs threads"
done

# Campaign store gate: a seeded campaign with injected host faults,
# so rounds retry on fresh copies of a chip's pristine module, must
# commit the same profile bytes at 1 and $jobs threads, and they must
# match bench/golden/campaign_quick.sha256. A change that means to
# alter stored profiles updates the digest in the same commit (the
# digest is the sha256 of `LC_ALL=C sha256sum *.profile` in the store).
echo "=== campaign store gate: store/*.profile vs bench/golden ==="
campaign_digest() {
    local dir="build/campaign_gate_t$1"
    rm -rf "$dir"
    local out
    out="$(build/examples/campaign_runner --dir "$dir" --chips 6 \
        --seed 11 --fault-rate 0.002 --fault-seed 5 --threads "$1")"
    if ! grep -q "^Faults survived: [1-9]" <<< "$out"; then
        echo "campaign gate: no injected fault was retried" >&2
        return 1
    fi
    (
        cd "$dir/store"
        export LC_ALL=C
        if command -v sha256sum > /dev/null; then
            sha256sum -- *.profile
        else
            shasum -a 256 -- *.profile
        fi
    ) | sha256
}
one="$(campaign_digest 1)"
many="$(campaign_digest "$jobs")"
if [[ "$one" != "$many" ]]; then
    echo "campaign gate: store differs at 1 and $jobs threads" \
        "($one vs $many)" >&2
    exit 1
fi
expected="$(cat bench/golden/campaign_quick.sha256)"
if [[ "$one" != "$expected" ]]; then
    echo "campaign gate: store digest $one !=" \
        "bench/golden/campaign_quick.sha256 ($expected)" >&2
    exit 1
fi
echo "campaign gate: store ok at 1 and $jobs threads"

echo "=== bench smoke: bench_serve (REAPER_BENCH_QUICK=1) ==="
(cd build && REAPER_BENCH_QUICK=1 ./bench/bench_serve > /dev/null)

# bench_io exits nonzero only when a round trip is not bit-exact;
# performance is gated by check_bench.py below. Full mode (not quick)
# so the io metrics compare like-for-like with bench/baselines/.
echo "=== bench smoke: bench_io (full mode, round-trip gate) ==="
(cd build && ./bench/bench_io > /dev/null)

# Lazy-view gate: a cold point lookup against the 1M-cell profile
# must decode at most 2 blocks (profiling.view_block_decodes) — the
# property that keeps serve-side miss latency from scaling with
# profile size. bench_io records the per-lookup decode count in its
# point_lookup rows.
if command -v python3 > /dev/null; then
    python3 - <<'EOF'
import json, sys
doc = json.load(open("build/BENCH_io.json"))
rows = [r for r in doc["point_lookup"] if r["cells"] >= 1000000]
if not rows:
    sys.exit("view laziness gate: no 1M-cell point_lookup row")
bpl = rows[0]["blocks_per_lookup"]
if bpl > 2:
    sys.exit(f"view laziness gate: cold point lookup decoded "
             f"{bpl} blocks (> 2) on {rows[0]['cells']} cells")
print(f"view laziness gate: {bpl} block(s) decoded per cold lookup "
      f"on {rows[0]['cells']} cells")
EOF
fi

# bench_disturb exits nonzero when a repeated rowhammer-profiler run
# is not bit-identical; its resolution=2048 rows/sec figure feeds the
# trajectory gate below. Full mode so it compares like-for-like with
# the committed baseline.
echo "=== bench smoke: bench_disturb (full mode, determinism gate) ==="
(cd build && ./bench/bench_disturb > /dev/null)

# Perf-trajectory gate: diff the fresh bench JSON against the
# committed baselines (REAPER_BENCH_TOL, default 15%). Benches that
# did not run in this job, ran quick-mode, or ran in a different
# REAPER_SIMD mode than their baseline are skipped as advisories —
# here that means the io gate is strict and the quick serve run is
# annotated, not gated.
echo "=== perf trajectory: check_bench.py vs bench/baselines ==="
if command -v python3 > /dev/null; then
    python3 scripts/check_bench.py --current-dir build \
        --report build/bench_report.md
else
    echo "python3 not found: skipping bench trajectory gate"
fi

echo "=== net smoke: daemon + loadgen over loopback ==="
(
    cd build
    rm -rf net_smoke_store net_smoke.port net_smoke.prom \
        net_smoke.trace.json
    REAPER_OBS=counters ./examples/serve_daemon \
        --dir net_smoke_store --listen 127.0.0.1:0 \
        --port-file net_smoke.port --workers 2 \
        --obs-dump net_smoke > net_smoke_daemon.log 2>&1 &
    daemon_pid=$!
    # Wait for the ephemeral port to be published.
    for _ in $(seq 1 100); do
        [[ -s net_smoke.port ]] && break
        kill -0 "$daemon_pid" 2>/dev/null || {
            echo "net smoke: daemon died during startup" >&2
            cat net_smoke_daemon.log >&2
            exit 1
        }
        sleep 0.1
    done
    [[ -s net_smoke.port ]] || {
        echo "net smoke: daemon never wrote --port-file" >&2
        exit 1
    }
    port="$(cat net_smoke.port)"
    # serve_loadgen exits nonzero on any protocol error, connection
    # failure, or unanswered request; assert nonzero QPS on top.
    ./examples/serve_loadgen --connect "127.0.0.1:$port" \
        --connections 2 --pipeline 4 --batch 64 --queries 20000 \
        --json > net_smoke_loadgen.json
    qps="ok"
    if command -v python3 > /dev/null; then
        qps="$(python3 -c \
            "import json;print(int(json.load(open('net_smoke_loadgen.json'))['qps']))")"
        errors="$(python3 -c \
            "import json;print(json.load(open('net_smoke_loadgen.json'))['protocol_errors'])")"
        if [[ "$qps" -le 0 || "$errors" != "0" ]]; then
            echo "net smoke: qps=$qps protocol_errors=$errors" >&2
            exit 1
        fi
    fi
    # Graceful shutdown: SIGTERM must drain and write the obs dump.
    kill -TERM "$daemon_pid"
    wait "$daemon_pid" || {
        echo "net smoke: daemon exited nonzero on SIGTERM" >&2
        cat net_smoke_daemon.log >&2
        exit 1
    }
    [[ -s net_smoke.prom ]] || {
        echo "net smoke: net_smoke.prom missing after shutdown" >&2
        exit 1
    }
    echo "net smoke: qps=$qps over the wire, graceful SIGTERM ok"
)

echo "=== obs smoke: counters-mode run exports Prometheus text ==="
(
    cd build
    rm -f obs_smoke.prom obs_smoke.json obs_smoke.trace.json
    REAPER_BENCH_QUICK=1 REAPER_OBS=counters REAPER_OBS_DUMP=obs_smoke \
        ./bench/bench_serve > /dev/null
    [[ -s obs_smoke.prom ]] || {
        echo "obs smoke: obs_smoke.prom missing or empty" >&2
        exit 1
    }
    # The serving path and the campaign store must both have recorded.
    for metric in reaper_serve_requests_total \
                  reaper_campaign_store_commits_total; do
        value="$(awk -v m="$metric" '$1 == m { print $2 }' \
            obs_smoke.prom)"
        if [[ -z "$value" || "$value" == "0" ]]; then
            echo "obs smoke: $metric missing or zero" >&2
            exit 1
        fi
    done
    echo "obs smoke: obs_smoke.prom ok"
)

# Off-mode observability must not tax the DRAM read path. Compare the
# hot read benches with REAPER_OBS=off vs =counters on this machine;
# tolerance is env-tunable (REAPER_OBS_PERF_TOL, ratio) because shared
# CI runners are noisy — locally 1.02 is realistic.
echo "=== obs perf guard: REAPER_OBS=off read path ==="
obs_tol="${REAPER_OBS_PERF_TOL:-1.10}"
if command -v python3 > /dev/null; then
    (
        cd build
        filter='BM_DeviceReadAndCompare|BM_ProfilerIteration'
        REAPER_OBS=off ./bench/bench_micro \
            --benchmark_filter="$filter" \
            --benchmark_format=json > obs_perf_off.json
        REAPER_OBS=counters ./bench/bench_micro \
            --benchmark_filter="$filter" \
            --benchmark_format=json > obs_perf_on.json
        python3 - "$obs_tol" <<'EOF'
import json, sys

tol = float(sys.argv[1])
def times(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b["real_time"] for b in data["benchmarks"]}

off, on = times("obs_perf_off.json"), times("obs_perf_on.json")
failed = False
for name in sorted(off):
    if name not in on:
        sys.exit(f"obs perf guard: {name} missing from counters run")
    # off must not be slower than counters by more than the tolerance
    # (counters-mode is the baseline that actually does work).
    slowdown = off[name] / on[name]
    print(f"  {name}: off/counters = {slowdown:.3f} (tol {tol})")
    if slowdown > tol:
        failed = True
if failed:
    sys.exit("obs perf guard: off-mode slower than tolerance")
print("obs perf guard: ok")
EOF
    )
else
    echo "python3 not found: skipping obs perf guard"
fi

if [[ "$quick" == "1" ]]; then
    echo "=== quick mode: skipping perfbench tests and sanitizer suite ==="
    exit 0
fi

# The repository benchmark builds ../src on its own (perfbench/
# CMakeLists.txt) and pins the fig13 statistics digest, so a sim API
# change that breaks its build or moves the digest fails here.
echo "=== perfbench: configure + build + perfbench_tests ==="
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-perfbench -j "$jobs" --target perfbench_tests
build-perfbench/perfbench_tests

echo "=== sanitize: configure + build (REAPER_SANITIZE=thread) ==="
cmake -B build-tsan -S . -DREAPER_SANITIZE=thread
cmake --build build-tsan -j "$jobs" \
    --target test_fleet test_campaign test_module test_serve \
             test_profile_store_concurrent test_obs test_simd \
             test_net_server test_disturb

echo "=== sanitize: ctest -L sanitize ==="
(cd build-tsan && ctest -L sanitize --output-on-failure -j "$jobs")

# Every decoder must turn hostile bytes into a typed error, never UB:
# the whole suite runs under ASan + UBSan, and any finding fails it.
echo "=== sanitize: configure + build (REAPER_SANITIZE=address) ==="
cmake -B build-asan -S . -DREAPER_SANITIZE=address
cmake --build build-asan -j "$jobs"

echo "=== sanitize: full ctest under ASan + UBSan ==="
(cd build-asan && ctest --output-on-failure -j "$jobs")

echo "=== ci.sh: all suites passed ==="
