#!/usr/bin/env python3
"""Measure how steady the benchmark's metrics are and write the evidence.

Runs BENCHMARK.json's command (end-to-end metrics, --trace 0, run_seconds)
once per seed for every workload, for each of two seed sets (1-10, then
11-20), and writes perfbench/steadiness.json:

- sets: per set, workload and metric, the ten values, their median and
  their quartile spread (Q3 - Q1) / median, with the quartiles of
  statistics.quantiles(values, n=4);
- comparison: per workload and gated metric, the worst spread of the two
  sets against the metric's bound (setup_s's spread is not gated), and how
  much worse the second set's median is than the first's;
- dropped: the figures the report prints but BENCHMARK.json does not gate,
  each with why and its measured spreads;
- wall_s: per workload, the median and longest wall time of one run, and
  what 4 + 22 x (workloads) runs take at those medians (builds excluded).

Run it from the root of the repository, with nothing else running:

    python3 perfbench/steadiness.py
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time

OUT = "perfbench/steadiness.json"
SEED_SETS = [range(1, 11), range(11, 21)]

# Figures printed beside the gated metrics but left ungated, with why.
DROPPED = [
    ("peak_rss_mib", lambda name: name == "peak_rss_mib",
     "one reading per run, moved by which allocator arenas the threads happened to touch rather than by the code"),
    ("throughput (serve.capacity_rps, cold.scenes_per_s, edit.edits_per_s, dq.matrices_per_s)",
     lambda name: name in ("serve.capacity_rps", "cold.scenes_per_s", "edit.edits_per_s", "dq.matrices_per_s"),
     "a mean over the loop, so every stall of the shared host counts in full, where the gated medians of the same "
     "loop leave them out"),
    ("fixed-rate latency (serve.distance_p50_us, serve.batch_p50_us, serve.paths_p50_us, serve.generator_lag_p50_us)",
     lambda name: name in ("serve.distance_p50_us", "serve.batch_p50_us", "serve.paths_p50_us",
                           "serve.generator_lag_p50_us"),
     "at 400 req/s the CPU idles between requests, and each request starts on a CPU that has been idle or running "
     "someone else's work: the fixed-rate BatchDistances p50 spread by up to 24% across ten seeds where the closed "
     "loop's spread by up to 12%, so the closed-loop latencies are the serve_mixed gated metrics"),
    ("*_tail_*",
     lambda name: "_tail_" in name,
     "cold_scene finishes too few scenes of each kind for any percentile above the median (the value is null "
     "then), and elsewhere the tail is set by the host's stalls; printed where a run has enough samples"),
]


def run_once(command, workload, seed, seconds):
    """One run: (gated metrics, every figure of the report, wall seconds)."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: failed {result['failed']} of {result['attempted']}")
    figures = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and fields[0] == "#":
            try:
                figures[fields[1]] = float(fields[2])
            except ValueError:
                pass
    return {k: v["value"] for k, v in result["metrics"].items()}, figures, wall


def spread(values):
    """(median, quartile spread) of the finite values; None when too few."""
    values = [v for v in values if v is not None and math.isfinite(v)]
    if len(values) < 2:
        return None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, round((q3 - q1) / med, 4) if med else None


def summarise(values_by_name):
    out = {}
    for name, values in values_by_name.items():
        med, rel = spread(values)
        out[name] = {"median": med, "quartile_spread": rel, "values": values}
    return out


def compare(sets, metrics):
    """Per workload and gated metric: worst spread and the second set's drift."""
    first, second = list(sets.values())[:2]
    out = {}
    for workload in first:
        out[workload] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = first[workload][name], second[workload][name]
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            worst = max(a["quartile_spread"], b["quartile_spread"])
            out[workload][name] = {
                "bound": bound,
                "second_over_first": round(b["median"] / a["median"], 4),
                "second_within_bound": worse <= bound,
                "worst_spread": worst,
                "spread_gated": name != "setup_s",
                "spread_within_bound": worst <= bound,
                "spread_below_a_third_of_bound": worst < bound / 3,
            }
    return out


def dropped(figure_sets):
    out = []
    for label, match, why in DROPPED:
        spreads = {}
        for set_name, workloads in figure_sets.items():
            for workload, figures in workloads.items():
                for name, values in figures.items():
                    if match(name):
                        spreads.setdefault(workload, {}).setdefault(name, {})[set_name] = spread(values)[1]
        out.append({"metric": label, "why": why, "quartile_spread": spreads})
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    sets, figure_sets, walls = {}, {}, {}
    for seeds in SEED_SETS:
        set_name = f"seeds_{seeds[0]}_{seeds[-1]}"
        sets[set_name], figure_sets[set_name] = {}, {}
        for workload in workloads:
            gated, figures = {}, {}
            for seed in seeds:
                metrics, report, wall = run_once(bench["command"], workload, seed, bench["run_seconds"])
                walls.setdefault(workload, []).append(wall)
                for name, value in metrics.items():
                    gated.setdefault(name, []).append(value)
                for name, value in report.items():
                    figures.setdefault(name, []).append(value if math.isfinite(value) else None)
                print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
            sets[set_name][workload] = summarise(gated)
            figure_sets[set_name][workload] = figures
            for name, s in sets[set_name][workload].items():
                print(f"  {set_name} {workload:<12} {name:<18} median {s['median']:12.4f}  "
                      f"spread {s['quartile_spread']:7.2%}", flush=True)

    wall_s = {w: {"median": round(statistics.median(v), 1), "max": round(max(v), 1)} for w, v in walls.items()}
    medians = [w["median"] for w in wall_s.values()]
    wall_s["all_runs"] = round(22 * sum(medians) + 4 * max(medians))
    record = {
        "about": "Written by perfbench/steadiness.py: each workload run once per seed of each set with "
                 "BENCHMARK.json's command and run_seconds, one run at a time.",
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "nproc": os.cpu_count(),
        "sets": sets,
        "comparison": compare(sets, bench["end_to_end"]),
        "dropped": dropped(figure_sets),
        "dropped_workloads": [],
        "wall_s": wall_s,
    }
    with open(OUT, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for workload, metrics in record["comparison"].items():
        for name, c in metrics.items():
            print(f"{workload:<12} {name:<18} worst spread {c['worst_spread']:7.2%} (bound {c['bound']:.0%}), "
                  f"second/first {c['second_over_first']:.3f}")


if __name__ == "__main__":
    main()
