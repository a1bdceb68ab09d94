#!/usr/bin/env bash
# Tier-1 verification: full build + ctest, then the sim/cdn/core/faults/
# engine suites again under AddressSanitizer (VSTREAM_SANITIZE=address,
# with libstdc++'s container assertions), the sim/net/cdn/engine/core
# suites under UBSan (VSTREAM_SANITIZE=undefined; sim and net cover the
# binomial loss sampler's float-to-integer conversions, where only UBSan
# sees an overflow, and cdn the warm archive's slot arithmetic), and the
# work-stealing executor, sharded engine and telemetry suites under TSan
# (VSTREAM_SANITIZE=thread) at >= 4 physical workers (telemetry covers the
# parallel range export, which formats on several threads, and the
# parallel spill load, which decodes on several threads).  The engine
# ASan/TSan passes exercise the overload-protection layer (breakers,
# shedding, hedges) via the determinism suite's overload scenario; the
# TSan pass additionally runs the steal-heavy executor stress tests and
# an oversubscribed (threads > cores) determinism run.
#
# Usage: tools/tier1.sh [build-dir] [asan-build-dir] [ubsan-build-dir] \
#                       [tsan-build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
asan_dir="${2:-$repo_root/build-asan}"
ubsan_dir="${3:-$repo_root/build-ubsan}"
tsan_dir="${4:-$repo_root/build-tsan}"

echo "==> tier-1: configure + build ($build_dir)"
cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j

echo "==> tier-1: ctest"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "==> tier-1: ASan build ($asan_dir)"
cmake -B "$asan_dir" -S "$repo_root" -DVSTREAM_SANITIZE=address
cmake --build "$asan_dir" -j --target test_runtime test_sim test_cdn test_core test_faults test_engine test_telemetry test_failpoints

echo "==> tier-1: ASan suites (runtime, sim, cdn, core, faults, engine, telemetry, failpoints)"
# test_telemetry includes the spill corruption fuzz (flip every byte,
# truncate at every offset) — under ASan it proves the recovery scan never
# reads out of bounds on damaged input.
for suite in test_runtime test_sim test_cdn test_core test_faults test_engine test_telemetry test_failpoints; do
  echo "--> $suite"
  "$asan_dir/tests/$suite"
done

echo "==> tier-1: ASan serve-unification equivalence (explicit)"
# Runs inside test_engine above too; the explicit pass guards against the
# filter drifting if the suite is ever split.  Golden hashes of all five
# CSV streams from the one serve path (AtsServer::serve), with ASan
# watching the per-session server-state overlays.
"$asan_dir/tests/test_engine" --gtest_filter='ServeUnificationGolden.*'

echo "==> tier-1: UBSan build ($ubsan_dir)"
cmake -B "$ubsan_dir" -S "$repo_root" -DVSTREAM_SANITIZE=undefined
cmake --build "$ubsan_dir" -j --target test_sim test_net test_cdn test_engine test_core test_telemetry test_failpoints

echo "==> tier-1: UBSan suites (sim, net, cdn, engine, core, telemetry, failpoints)"
for suite in test_sim test_net test_cdn test_engine test_core test_telemetry test_failpoints; do
  echo "--> $suite"
  UBSAN_OPTIONS=halt_on_error=1 "$ubsan_dir/tests/$suite"
done

echo "==> tier-1: TSan build ($tsan_dir)"
cmake -B "$tsan_dir" -S "$repo_root" -DVSTREAM_SANITIZE=thread
cmake --build "$tsan_dir" -j --target test_runtime test_engine test_telemetry

echo "==> tier-1: TSan executor suite (steal-heavy stress included)"
TSAN_OPTIONS=halt_on_error=1 "$tsan_dir/tests/test_runtime"

echo "==> tier-1: TSan sharded engine suite (VSTREAM_SHARDS=4, 4 workers)"
# Covers the parallel shard/batch execution, the per-part merge tasks,
# parallel analyze_spill and the checkpoint/resume paths on real worker threads.
VSTREAM_SHARDS=4 VSTREAM_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
  "$tsan_dir/tests/test_engine"

echo "==> tier-1: TSan telemetry suite (4 workers)"
# The parallel export formats row ranges on pool workers while one task
# of the same run, on whichever worker takes it, writes the previous
# window to the files; its tests run a 4-worker executor,
# and VSTREAM_THREADS=4 covers the engine runs the suite starts.  The
# parallel SpillSet::load (one index/count task and one decode task per
# file, decoding records straight into shared pre-sized outputs) runs at 4 workers
# in the load-vs-stream oracle tests and at VSTREAM_THREADS elsewhere.  The two
# randomized formatter sweeps are single-threaded and compare against
# iostream output, which TSan slows ~100x, so they are left to the
# ASan/UBSan passes.
VSTREAM_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
  "$tsan_dir/tests/test_telemetry" \
  --gtest_filter='-FastFormatTest.DoubleMatchesOstreamOnRandom*'

echo "==> tier-1: oversubscribed determinism (threads > cores)"
# More workers than the machine has cores forces preemption mid-steal.
# EngineDeterminismTest leaves options.threads unset, so VSTREAM_THREADS
# drives the pool: every shard-count/fault/overload/spill/resume check
# must still be bit-identical at the oversubscribed width.
oversub=$(( $(nproc) * 2 + 3 ))
VSTREAM_THREADS=$oversub "$build_dir/tests/test_engine" \
  --gtest_filter='EngineDeterminismTest.*'
echo "    determinism holds at $oversub workers on $(nproc) cores"

echo "==> tier-1: perf smoke (hotpath suite -> BENCH_hotpaths.json)"
cmake --build "$build_dir" -j --target bench_micro_hotpaths
# Small workload: this checks the harness end to end (benchmarks run, the
# JSON is written and well-formed), not absolute performance.
(cd "$build_dir" && VSTREAM_BENCH_SESSIONS=50 \
  ./bench/bench_micro_hotpaths --benchmark_min_time=0.01 >/dev/null)
python3 -m json.tool "$build_dir/BENCH_hotpaths.json" >/dev/null
metric_count=$(python3 -c "
import json, sys
with open('$build_dir/BENCH_hotpaths.json') as f:
    doc = json.load(f)
names = list(doc['metrics'])
# A TCP round's random draws, the CSV double formatter and the spill
# codec: each must be measured.
for want in ('BM_StandardNormal', 'BM_LognormalMedian', 'BM_PathSampleRtt',
             'BM_RandomLosses', 'BM_AppendDoubleG6', 'BM_Crc32c',
             'BM_SpillEncodeSession', 'BM_SpillDecodeSession'):
    if not any(n == want or n.startswith(want + '_') for n in names):
        sys.exit('tier-1: BENCH_hotpaths.json lacks ' + want)
print(len(names))
")
if [ "$metric_count" -lt 5 ]; then
  echo "tier-1: BENCH_hotpaths.json has only $metric_count metrics (< 5)" >&2
  exit 1
fi
echo "    BENCH_hotpaths.json OK ($metric_count metrics)"

echo "==> tier-1: telemetry spill smoke (bounded memory, byte-identical CSV)"
spill_work="$build_dir/tier1-spill-smoke"
rm -rf "$spill_work"
mkdir -p "$spill_work"
"$build_dir/tools/vstream-sim" --sessions 200 --seed 11 --shards 4 \
  --out "$spill_work/mem" >/dev/null
# The spilled run must reproduce the in-memory CSVs byte for byte.
"$build_dir/tools/vstream-sim" --sessions 200 --seed 11 --shards 4 \
  --telemetry-spill "$spill_work/spill-dir" \
  --out "$spill_work/spill" >/dev/null
spill_files=$(ls "$spill_work/spill-dir"/*.vspill 2>/dev/null | wc -l)
if [ "$spill_files" -ne 1 ]; then
  echo "tier-1: spill run left $spill_files .vspill files, not one" >&2
  exit 1
fi
for f in player_sessions cdn_sessions player_chunks cdn_chunks tcp_snapshots; do
  cmp "$spill_work/mem/$f.csv" "$spill_work/spill/$f.csv"
done
"$build_dir/tools/vstream-analyze" "$spill_work/spill-dir" --spill-stats \
  >/dev/null
# The file is written in canonical order: its bytes depend on neither the
# worker count nor the shard count.
for t in 1 4; do
  "$build_dir/tools/vstream-sim" --sessions 200 --seed 11 --shards 4 \
    --threads "$t" --telemetry-spill "$spill_work/threads-$t" >/dev/null
done
"$build_dir/tools/vstream-sim" --sessions 200 --seed 11 --shards 64 \
  --telemetry-spill "$spill_work/shards-64" >/dev/null
cmp "$spill_work/threads-1/run.vspill" "$spill_work/threads-4/run.vspill"
cmp "$spill_work/spill-dir/run.vspill" "$spill_work/shards-64/run.vspill"
spill_bytes=$(du -sb "$spill_work/spill-dir" | cut -f1)
echo "    spill CSVs byte-identical to in-memory; one $spill_bytes B spill file, the same at --threads 1 and 4 and at --shards 4 and 64"

echo "==> tier-1: export thread smoke (byte-identical CSVs at 1 and 4 threads)"
# The 4-thread export formats windows of row ranges on the pool while one
# task of each window writes the previous window; every file must match
# the single-threaded export byte for byte.  200 sessions make 9 ranges
# (35k snapshot rows), so the second window's run writes the first.
export_work="$build_dir/tier1-export-smoke"
rm -rf "$export_work"
for t in 1 4; do
  "$build_dir/tools/vstream-sim" --sessions 200 --seed 11 --threads "$t" \
    --out "$export_work/t$t" >/dev/null
done
for f in player_sessions cdn_sessions player_chunks cdn_chunks tcp_snapshots; do
  cmp "$export_work/t1/$f.csv" "$export_work/t4/$f.csv"
done
echo "    CSVs byte-identical at --threads 1 and 4"

echo "==> tier-1: attribution smoke (counterfactual replay, worst-5 blame)"
attr_work="$build_dir/tier1-attr-smoke"
rm -rf "$attr_work"
mkdir -p "$attr_work"
# In-run attribution: the factual replays must reproduce the measured
# QoE, every session's blame fractions must sum to <= 1, and the report
# must cover all five idealized subsystems.
"$build_dir/tools/vstream-sim" --sessions 200 --seed 11 \
  --fault-profile overload --attribute-worst 5 \
  --attribution-out "$attr_work/BENCH_attribution.json" \
  --out "$attr_work/telemetry" >/dev/null
python3 -c "
import json
with open('$attr_work/BENCH_attribution.json') as f:
    doc = json.load(f)
assert doc['schema'] == 'vstream-attribution-v1', doc.get('schema')
assert doc['sessions_analyzed'] >= 190, doc['sessions_analyzed']
sessions = doc['sessions']
assert len(sessions) == 5, len(sessions)
subsystems = {'cache', 'network', 'backend', 'overload', 'abr'}
for s in sessions:
    assert set(s['blame']) == subsystems, s['blame']
    assert set(s['ideal_penalty']) == subsystems
    total = sum(s['blame'].values())
    assert 0.0 <= total <= 1.0 + 1e-9, (s['session_id'], total)
    # The JSON writes doubles at max_digits10, so each field round-trips;
    # the slack covers the rounding of the sum itself.
    assert abs(total + s['residual'] - 1.0) <= 1e-5 or s['baseline_penalty'] == 0
    assert s['replay_matches_baseline'] is True, s['session_id']
print('    BENCH_attribution.json OK (5 sessions, blame sums <= 1)')
"
# Offline attribution over the exported CSVs must agree with the in-run
# pass (same world rebuilt from the same flags).
"$build_dir/tools/vstream-analyze" "$attr_work/telemetry" --attribution \
  --sessions 200 --seed 11 --fault-profile overload --worst 5 \
  --attribution-out "$attr_work/BENCH_attribution_offline.json" >/dev/null
python3 -c "
import json
a = json.load(open('$attr_work/BENCH_attribution.json'))
b = json.load(open('$attr_work/BENCH_attribution_offline.json'))
assert [s['session_id'] for s in a['sessions']] == \
       [s['session_id'] for s in b['sessions']]
for sa, sb in zip(a['sessions'], b['sessions']):
    assert sb['replay_matches_baseline'] is True, sb['session_id']
    for k in sa['blame']:
        assert abs(sa['blame'][k] - sb['blame'][k]) < 1e-6, (sa, sb)
print('    offline --attribution agrees with the in-run pass')
"

echo "==> tier-1: chaos smoke (kill-and-resume, byte-identical CSVs)"
cmake --build "$build_dir" -j --target vstream-chaos
# Small config: one SIGKILL per (shards, threads, profile) cell still
# walks the whole durability chain — spill CRC framing,
# flush-before-commit, atomic sidecar replace, truncate-to-committed on
# resume.  --threads 1,4 adds the threaded-resume scenario: the chaos
# run executes on 4 workers while its reference is single-threaded, so
# each cell also proves thread-count invariance across a crash.  The
# full matrix (shards 1,2,4,8, >= 5 kills) runs via the tool's defaults.
"$build_dir/tools/vstream-chaos" --sessions 200 --shards 1,2 \
  --threads 1,4 --profiles none,eventful --kills 1 --interval 25 \
  --scratch "$build_dir/tier1-chaos"

echo "==> tier-1: chaos failpoint smoke (no silent corruption)"
# Every registered failpoint site, one rotating fire point each, with one
# SIGKILL mixed into armed attempts: each run must either complete
# byte-identical to the clean reference or abort with the documented exit
# code and a one-line diagnostic (tools/vstream_chaos.cpp header).  The
# acceptance-scale campaign (shards 1,4,64 x threads 1,4, with and
# without kills) is recorded in EXPERIMENTS.md.
"$build_dir/tools/vstream-chaos" --sessions 150 --shards 2 --threads 1,4 \
  --kills 1 --interval 25 --failpoints default --fp-rounds 1 \
  --scratch "$build_dir/tier1-chaos-fp"

echo "==> tier-1: telemetry bench smoke (-> BENCH_telemetry.json)"
cmake --build "$build_dir" -j --target bench_telemetry_pipeline
(cd "$build_dir" && VSTREAM_BENCH_SESSIONS=60 \
  ./bench/bench_telemetry_pipeline >/dev/null)
python3 -m json.tool "$build_dir/BENCH_telemetry.json" >/dev/null
telemetry_metrics=$(python3 -c "
import json
with open('$build_dir/BENCH_telemetry.json') as f:
    doc = json.load(f)
print(len(doc['metrics']))
")
if [ "$telemetry_metrics" -lt 5 ]; then
  echo "tier-1: BENCH_telemetry.json has only $telemetry_metrics metrics (< 5)" >&2
  exit 1
fi
echo "    BENCH_telemetry.json OK ($telemetry_metrics metrics)"

echo "==> tier-1: scaling bench smoke (-> BENCH_scaling.json)"
cmake --build "$build_dir" -j --target bench_scaling
# Small workload, one rep: validates the harness (sweep runs, outputs
# stay bit-identical across thread counts, JSON well-formed), not the
# shape of the curve — that needs a multi-core host and real sessions.
(cd "$build_dir" && VSTREAM_BENCH_SESSIONS=60 \
  ./bench/bench_scaling --reps 1 >/dev/null)
python3 -m json.tool "$build_dir/BENCH_scaling.json" >/dev/null
scaling_metrics=$(python3 -c "
import json
with open('$build_dir/BENCH_scaling.json') as f:
    doc = json.load(f)
metrics = doc['metrics']
assert doc['suite'] == 'scaling', doc['suite']
for t in (1, 2, 4, 8):
    assert f'sim_sessions_per_s_t{t}' in metrics, f'missing t{t} rate'
    assert metrics[f'sim_sessions_per_s_t{t}']['value'] > 0
    assert f'analyze_spill_ms_t{t}' in metrics, f'missing t{t} analyze'
print(len(metrics))
")
if [ "$scaling_metrics" -lt 10 ]; then
  echo "tier-1: BENCH_scaling.json has only $scaling_metrics metrics (< 10)" >&2
  exit 1
fi
echo "    BENCH_scaling.json OK ($scaling_metrics metrics)"

echo "==> tier-1: OK"
