"""Run the benchmark over many seeds and record a baseline.

    python3 bench/baseline.py --seeds 1-10 --out bench/BENCH_baseline.json

For each workload in BENCHMARK.json, runs `bench/run.py --trace 0` once
per seed, then REPEATS - 1 more times on the first seed, then one
`--trace 1` run on the first seed. Writes every run's result line plus,
per workload and end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median next to the bound from BENCHMARK.json, both
across seeds and across the repeats of the first seed (which holds the
inputs fixed, so only the host varies). A cross-seed spread above a
third of its bound is flagged, since the benchmark is only useful while
run-to-run spread stays well inside its bounds; a metric whose cross-seed
or same-seed spread exceeds its bound is flagged as not resolvable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
REPEATS = 5  # untraced runs of the first seed


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:  # a failed check still prints its result line, with a non-zero exit
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode,
            # The metric table repeats the result line; keep the summary lines.
            "log": [ln for ln in lines[:-1] if not ln.startswith("  ")] if result is not None
            else lines + proc.stderr.splitlines(),
            "result": result}


def spread_row(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def summarize(runs: list[dict], spec: dict, seeds: list[int]) -> dict:
    summary = {}
    for wl in spec["workloads"]:
        rows = {}
        untraced = [r for r in runs if r["workload"] == wl["name"] and r["trace"] == 0 and r["result"]]
        # The first run of each seed across seeds; every run of the first seed as repeats.
        first = {}
        for r in untraced:
            first.setdefault(r["seed"], r["result"])
        across = list(first.values())
        repeats = [r["result"] for r in untraced if r["seed"] == seeds[0]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not across:
                continue
            row = spread_row([res["metrics"][name]["value"] for res in across])
            row["same_seed"] = spread_row([res["metrics"][name]["value"] for res in repeats])
            # Resolvable: a change by the bound stands out from both spreads.
            worst = max(row["spread"], row["same_seed"]["spread"])
            row.update(bound=metric["bound"], steady=row["spread"] < metric["bound"] / 3.0,
                       resolvable=worst <= metric["bound"])
            rows[name] = row
        done = [r["result"] for r in untraced]
        attempted = sum(res["attempted"] for res in done)
        summary[wl["name"]] = {
            "runs": len(done),
            "all_correct": all(res["correct"] for res in done),
            "failed_frac": sum(res["failed"] for res in done) / attempted if attempted else 1.0,
            "metrics": rows,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    args = parser.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    runs = []
    t0 = time.perf_counter()
    plan = [(s, 0) for s in seeds] + [(seeds[0], 0)] * (REPEATS - 1) + [(seeds[0], 1)]
    for wl in spec["workloads"]:
        for seed, trace in plan:
            run = one_run(wl["name"], seed, spec["run_seconds"], trace)
            runs.append(run)
            res = run["result"]
            status = "no result" if res is None else f"correct={res['correct']} " \
                f"attempted={res['attempted']} failed={res['failed']}"
            print(f"[{time.perf_counter() - t0:7.1f} s] {wl['name']} seed {seed} trace {trace}: "
                  f"{status}", flush=True)

    summary = summarize(runs, spec, seeds)
    for name, s in summary.items():
        print(f"{name}: {s['runs']} runs, all correct {s['all_correct']}, "
              f"failed_frac {s['failed_frac']:.3f}")
        for metric, row in s["metrics"].items():
            unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == metric)
            flag = "" if row["steady"] else "  <-- spread above bound/3"
            if not row["resolvable"]:
                flag = "  <-- spread above bound: not resolvable"
            print(f"  {metric:14s} median {row['median']:>14.6g} {unit:5s}  spread "
                  f"{row['spread']:.4f} (same seed {row['same_seed']['spread']:.4f})  "
                  f"bound {row['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "benchmark": spec["command"], "run_seconds": spec["run_seconds"], "seeds": seeds,
            "repeats_of_first_seed": REPEATS,
            "host": {"machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
                     "python": platform.python_version()},
            "summary": summary, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
