#!/usr/bin/env bash
# Perf-trajectory tracker: runs the full-catalog ATPG sweep through the
# gdf_atpg CLI (serial and parallel), the s1196+s1238 intra-circuit
# sharding benchmark, and the simulation micro-benchmarks, and emits
# BENCH_simulation.json with per-circuit wall times. Run from the repo
# root after building:
#
#   bench/run_benchmarks.sh [BUILD_DIR] [OUTPUT_JSON] [JOBS]
#
# JOBS defaults to the machine's core count. The sweep runs twice — at
# --jobs 1 and at --jobs N — and the script asserts the two produce
# byte-identical rows (sans the wall-time column) before recording the
# speedup. Perf rows across PRs are only comparable at the same jobs
# value AND on comparable hardware, which is why the JSON records both
# the jobs value and hardware_concurrency: a parallel_speedup of ~1 on a
# single-core runner is expected, not a regression, so the speedup floor
# below is only asserted when the hardware can actually parallelize.
#
# Wired into CI as a non-gating job so every PR records where the hot path
# stands; compare the JSON against the previous run to see the trend.
set -euo pipefail

BUILD_DIR=${1:-build}
OUTPUT=${2:-BENCH_simulation.json}
HW=$(nproc 2>/dev/null || echo 1)
JOBS=${3:-$HW}

GDF_ATPG="$BUILD_DIR/src/gdf_atpg"
MICRO_SIM="$BUILD_DIR/bench/micro_simulation"

if [[ ! -x "$GDF_ATPG" ]]; then
  echo "run_benchmarks: $GDF_ATPG not built (cmake --build $BUILD_DIR)" >&2
  exit 1
fi

echo "run_benchmarks: catalog sweep at --jobs 1 ..." >&2
T0=$(date +%s.%N)
CSV_J1=$("$GDF_ATPG" --all --csv --jobs 1)
T1=$(date +%s.%N)
echo "run_benchmarks: catalog sweep at --jobs $JOBS ..." >&2
CSV_JN=$("$GDF_ATPG" --all --csv --jobs "$JOBS")
T2=$(date +%s.%N)
WALL_J1=$(echo "$T1 $T0" | awk '{printf "%.3f", $1 - $2}')
WALL_JN=$(echo "$T2 $T1" | awk '{printf "%.3f", $1 - $2}')

# Determinism gate: identical rows up to the nondeterministic seconds
# column, whatever the worker count.
if [[ "$(echo "$CSV_J1" | cut -d, -f1-5)" != \
      "$(echo "$CSV_JN" | cut -d, -f1-5)" ]]; then
  echo "run_benchmarks: --jobs 1 and --jobs $JOBS rows differ!" >&2
  exit 1
fi

# Intra-circuit fault sharding on the two catalog tails (ISSUE 4): the
# same two big circuits, sequential versus epoch-sharded generation. The
# rows must match byte-for-byte; the wall-time ratio is the shard
# speedup. On a single core JOBS is 1, a forced width of 1 is gated down
# to the plain sequential loop (no epoch machinery), and the ratio
# records ~1 by construction.
BIG="--circuit s1196 --circuit s1238"
echo "run_benchmarks: s1196+s1238 with --shard-faults off ..." >&2
T3=$(date +%s.%N)
# --stages rides along so the search-core counters (ISSUE 5) land in the
# JSON; stage lines are indented and filtered back out of the CSV stream.
CSV_BIG_OFF_RAW=$("$GDF_ATPG" $BIG --csv --jobs "$JOBS" --shard-faults off \
  --stages)
T4=$(date +%s.%N)
CSV_BIG_OFF=$(echo "$CSV_BIG_OFF_RAW" | grep -v '^ ')
STAGES_BIG=$(echo "$CSV_BIG_OFF_RAW" | grep '^ ' || true)
echo "run_benchmarks: s1196+s1238 with --shard-faults $JOBS ..." >&2
# --stages on this leg too, so both sides of the shard-speedup ratio run
# under identical flags.
CSV_BIG_SHARD_RAW=$("$GDF_ATPG" $BIG --csv --jobs "$JOBS" \
  --shard-faults "$JOBS" --stages)
T5=$(date +%s.%N)
CSV_BIG_SHARD=$(echo "$CSV_BIG_SHARD_RAW" | grep -v '^ ')
WALL_BIG_OFF=$(echo "$T4 $T3" | awk '{printf "%.3f", $1 - $2}')
WALL_BIG_SHARD=$(echo "$T5 $T4" | awk '{printf "%.3f", $1 - $2}')

if [[ "$(echo "$CSV_BIG_OFF" | cut -d, -f1-5)" != \
      "$(echo "$CSV_BIG_SHARD" | cut -d, -f1-5)" ]]; then
  echo "run_benchmarks: --shard-faults off and $JOBS rows differ!" >&2
  exit 1
fi

# Learning ablation on the same two tails (the clause-quality PR): both
# --learn modes at identical flags otherwise, recording wall time and
# the aborted totals. 'off' is the pre-learning baseline, 'on' the
# deterministic per-fault learner (capped clause database + backjumping
# + activity ordering + probe memo).
for mode in off on; do
  echo "run_benchmarks: s1196+s1238 with --learn $mode ..." >&2
  TA=$(date +%s.%N)
  csv=$("$GDF_ATPG" $BIG --csv --jobs "$JOBS" --learn "$mode")
  TB=$(date +%s.%N)
  declare "LEARN_CSV_$mode=$csv"
  declare "LEARN_WALL_$mode=$(echo "$TB $TA" | awk '{printf "%.3f", $1 - $2}')"
done

# Deterministic budget leg (the robustness PR): the same two tails under
# --fault-budget, recording how many faults the assignment cap aborts and
# what the capped sweep costs. The budget keeps sharding on and produces
# identical bytes at any jobs value, so the abort count is comparable
# across PRs on any hardware.
FAULT_BUDGET=5000
echo "run_benchmarks: s1196+s1238 with --fault-budget $FAULT_BUDGET ..." >&2
T6=$(date +%s.%N)
CSV_BUDGET_RAW=$("$GDF_ATPG" $BIG --csv --jobs "$JOBS" \
  --fault-budget "$FAULT_BUDGET" --stages)
T7=$(date +%s.%N)
CSV_BUDGET=$(echo "$CSV_BUDGET_RAW" | grep -v '^ ')
STAGES_BUDGET=$(echo "$CSV_BUDGET_RAW" | grep '^ ' || true)
WALL_BUDGET=$(echo "$T7 $T6" | awk '{printf "%.3f", $1 - $2}')

MICRO_JSON="null"
if [[ -x "$MICRO_SIM" ]]; then
  echo "run_benchmarks: running micro_simulation ..." >&2
  MICRO_JSON=$("$MICRO_SIM" --benchmark_format=json 2>/dev/null |
    python3 -c 'import json,sys; d=json.load(sys.stdin); print(json.dumps(d.get("benchmarks", [])))')
else
  echo "run_benchmarks: micro_simulation not built (Google Benchmark" \
       "missing) — skipping" >&2
fi

CSV_J1="$CSV_J1" CSV_JN="$CSV_JN" JOBS="$JOBS" HW="$HW" \
  WALL_J1="$WALL_J1" WALL_JN="$WALL_JN" \
  WALL_BIG_OFF="$WALL_BIG_OFF" WALL_BIG_SHARD="$WALL_BIG_SHARD" \
  STAGES_BIG="$STAGES_BIG" \
  FAULT_BUDGET="$FAULT_BUDGET" CSV_BUDGET="$CSV_BUDGET" \
  STAGES_BUDGET="$STAGES_BUDGET" WALL_BUDGET="$WALL_BUDGET" \
  LEARN_CSV_off="$LEARN_CSV_off" LEARN_WALL_off="$LEARN_WALL_off" \
  LEARN_CSV_on="$LEARN_CSV_on" LEARN_WALL_on="$LEARN_WALL_on" \
  python3 - "$OUTPUT" "$MICRO_JSON" <<'EOF'
import json
import os
import sys

output_path = sys.argv[1]
micro = json.loads(sys.argv[2])
jobs = int(os.environ["JOBS"])
hardware = int(os.environ["HW"])


def parse(csv_text):
    lines = [l for l in csv_text.splitlines() if l.strip()]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows.append({
            "circuit": row["circuit"],
            "tested": int(row["tested"]),
            "untestable": int(row["untestable"]),
            "aborted": int(row["aborted"]),
            "patterns": int(row["patterns"]),
            "seconds": float(row["seconds"]),
        })
    return rows


# Per-circuit seconds come from the serial run: under --jobs N the
# workers contend for cores and each circuit's own time inflates, which
# would read as a phantom regression when diffing across PRs. The
# parallel run's per-circuit seconds ride along as seconds_jobsN so the
# contention itself stays visible.
circuits = parse(os.environ["CSV_J1"])
jobsn = {row["circuit"]: row["seconds"] for row in parse(os.environ["CSV_JN"])}
for row in circuits:
    row["seconds_jobsN"] = jobsn[row["circuit"]]
serial_total = sum(row["seconds"] for row in circuits)

wall_j1 = float(os.environ["WALL_J1"])
wall_jn = float(os.environ["WALL_JN"])
big_off = float(os.environ["WALL_BIG_OFF"])
big_shard = float(os.environ["WALL_BIG_SHARD"])

# Search-core counters (ISSUE 5), summed over the s1196+s1238 --stages
# blocks, so the hot-path speedup stays attributable across PRs.
import re

stages_text = os.environ.get("STAGES_BIG", "")
search_core = {
    "implications": 0,
    "trail_pushes": 0,
    "trail_pops": 0,
    "probe_runs": 0,
    "probe_cone": 0,
    "probe_full": 0,
    "conflicts": 0,
    "learned_clauses": 0,
    "clause_hits": 0,
    "backjump_levels_skipped": 0,
    "probe_memo_hits": 0,
}
for m in re.finditer(
        r"search core\s+implications (\d+), trail pushes (\d+), pops (\d+)",
        stages_text):
    search_core["implications"] += int(m.group(1))
    search_core["trail_pushes"] += int(m.group(2))
    search_core["trail_pops"] += int(m.group(3))
for m in re.finditer(
        r"verification probes\s+(\d+) \(cone-scoped (\d+), full (\d+)\)",
        stages_text):
    search_core["probe_runs"] += int(m.group(1))
    search_core["probe_cone"] += int(m.group(2))
    search_core["probe_full"] += int(m.group(3))
# Conflict-driven-search counters (the learning PR): how often the engine
# conflicted, what it learned and what the learning saved. A --stages
# line the regex misses is an error, not a silent 0.
learning_lines = re.findall(
    r"conflict learning\s+conflicts (\d+), learned (\d+), "
    r"clause hits (\d+), backjump levels skipped (\d+)$",
    stages_text, re.MULTILINE)
if len(learning_lines) != stages_text.count("conflict learning"):
    sys.exit("run_benchmarks: unrecognized 'conflict learning' line")
for conflicts, learned, hits, skipped in learning_lines:
    search_core["conflicts"] += int(conflicts)
    search_core["learned_clauses"] += int(learned)
    search_core["clause_hits"] += int(hits)
    search_core["backjump_levels_skipped"] += int(skipped)
for m in re.finditer(r"probe memo\s+hits (\d+)", stages_text):
    search_core["probe_memo_hits"] += int(m.group(1))

# Simulation-kernel counters: scalar phase-1 and 64-lane phase-2 gate
# evaluations over the tail circuits. A --stages line the regex misses
# is an error, not a silent 0.
sim_kernel = {"scalar": 0, "lanes": 0}
kernel_lines = re.findall(
    r"sim kernel evals\s+scalar (\d+), lanes (\d+)", stages_text)
if len(kernel_lines) != stages_text.count("sim kernel evals"):
    sys.exit("run_benchmarks: unrecognized 'sim kernel evals' line")
for scalar, lanes in kernel_lines:
    sim_kernel["scalar"] += int(scalar)
    sim_kernel["lanes"] += int(lanes)

# The learning ablation over the s1196+s1238 tails: wall seconds and
# verdict mix per --learn mode at otherwise identical flags.
learning_ablation = []
for mode in ("off", "on"):
    rows = parse(os.environ[f"LEARN_CSV_{mode}"])
    learning_ablation.append({
        "learn": mode,
        "wall_seconds": float(os.environ[f"LEARN_WALL_{mode}"]),
        "tested": sum(r["tested"] for r in rows),
        "untestable": sum(r["untestable"] for r in rows),
        "aborted": sum(r["aborted"] for r in rows),
        "patterns": sum(r["patterns"] for r in rows),
    })

# The fault-budget leg (the robustness PR): the abort-attribution line
# from --stages splits aborts by cause; the budget column counts faults
# the deterministic assignment cap cut off. Byte-identical at any jobs
# or sharding value, so the counts diff cleanly across PRs.
budget_rows = parse(os.environ["CSV_BUDGET"])
budget_aborts = {"local": 0, "sequential": 0, "budget": 0}
for m in re.finditer(
        r"aborts\s+local (\d+), sequential (\d+), budget (\d+)",
        os.environ.get("STAGES_BUDGET", "")):
    budget_aborts["local"] += int(m.group(1))
    budget_aborts["sequential"] += int(m.group(2))
    budget_aborts["budget"] += int(m.group(3))
fault_budget = {
    "budget_assignments": int(os.environ["FAULT_BUDGET"]),
    "wall_seconds": float(os.environ["WALL_BUDGET"]),
    "tested": sum(r["tested"] for r in budget_rows),
    "untestable": sum(r["untestable"] for r in budget_rows),
    "aborted": sum(r["aborted"] for r in budget_rows),
    "aborted_by_cause": budget_aborts,
}

report = {
    "benchmark": "gdf_atpg --all --csv",
    "jobs": jobs,
    # The speedups below are only meaningful relative to this: a
    # parallel_speedup of ~1 on hardware_concurrency 1 is expected.
    "hardware_concurrency": hardware,
    # Elapsed process wall time of the whole sweep — what --jobs shrinks.
    "wall_seconds_jobs1": round(wall_j1, 3),
    "wall_seconds_jobsN": round(wall_jn, 3),
    "parallel_speedup": round(wall_j1 / wall_jn, 2) if wall_jn > 0 else None,
    # The ISSUE-4 tail benchmark: s1196+s1238 combined wall time,
    # --shard-faults off versus epoch-sharded at the jobs count.
    "shard_seconds_s1196_s1238_off": round(big_off, 3),
    "shard_seconds_s1196_s1238_sharded": round(big_shard, 3),
    "shard_speedup_s1196_s1238":
        round(big_off / big_shard, 2) if big_shard > 0 else None,
    # ISSUE-5 search-core counters over the s1196+s1238 sequential run.
    "search_core_s1196_s1238": search_core,
    # The clause-quality PR's ablation: --learn off/on over the same two
    # tails (wall seconds + verdict mix).
    "learning_ablation": learning_ablation,
    # Aborted faults per circuit plus the catalog total (the learning PR's
    # effectiveness metric: learning may only shrink these).
    "aborted_faults": {
        **{row["circuit"]: row["aborted"] for row in circuits},
        "total": sum(row["aborted"] for row in circuits),
    },
    # Fault-simulation kernel eval counts over the same run.
    "sim_kernel_evals_s1196_s1238": sim_kernel,
    # The robustness PR: the same tails under a deterministic per-fault
    # assignment cap, with aborts attributed by cause.
    "fault_budget_s1196_s1238": fault_budget,
    # Sum of per-circuit times at --jobs 1: the work metric comparable
    # with pre-parallelism PRs (their total_seconds).
    "total_seconds": round(serial_total, 3),
    "circuits": circuits,
    "micro_simulation": micro,
}
with open(output_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"run_benchmarks: wrote {output_path} "
      f"(serial {wall_j1:.1f}s, jobs={jobs} {wall_jn:.1f}s, "
      f"shard tails {big_off:.1f}s -> {big_shard:.1f}s)",
      file=sys.stderr)
EOF

# Speedup floor: only asserted where the hardware can parallelize at all.
# Single-core runners (this includes some CI shapes) skip it — their
# ratios hover at 1 by construction and asserting on them is noise.
if [[ "$HW" -gt 1 && "$JOBS" -gt 1 ]]; then
  python3 - "$OUTPUT" <<'EOF'
import json
import sys

report = json.load(open(sys.argv[1]))
speedup = report["parallel_speedup"]
if speedup is not None and speedup < 1.05:
    sys.exit(f"run_benchmarks: parallel_speedup {speedup} < 1.05 on "
             f"{report['hardware_concurrency']} cores — the sweep no "
             f"longer scales")
EOF
else
  echo "run_benchmarks: single-core runner — skipping the speedup floor" >&2
fi
