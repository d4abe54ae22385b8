"""subsim benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload demo --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload's inputs are generated from
--seed (see workloads.py) under .bench_work/. Repetitions run one after
another (a closed loop with one client), each as fresh child processes
with PYTHONPATH=src, until --seconds have passed; at least three are made.

--trace 0 prints the end-to-end metrics, medians over repetitions:
  wall_s        child spawn to exit, summed over the commands of a repetition
  setup_s       entry into cli.main to entry into Simulation.run
                (mesh_export: load_heightmap + load_obj)
  run_s         time in Simulation.run
                (mesh_export: generate_tiles + write_tiles + distort + save_obj)
  peak_rss_mb   largest ru_maxrss of the repetition's children
  bytes_written bytes in the output tree
The three times are scaled to a reference host speed. On a shared host
the speed of each CPU drifts by tens of percent over seconds to minutes,
each CPU on its own, which no number of repetitions averages out. So
right before and right after each child a fixed kernel (`kernel`,
independent of subsim) is timed on the CPUs the child runs on, and the
child's times are multiplied by REF_KERNEL_S over the mean of the two
kernel times: they read as seconds on a host where the kernel takes
REF_KERNEL_S. A workload whose commands are single-threaded
(`Workload.pin`) runs each repetition on one CPU, taking the CPUs in
turn, so that the kernel measures the CPU the child ran on; the others
may use every CPU. The unscaled medians and the kernel times are printed
and kept in the results file.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (medians; times are self times,
a span minus its child spans) plus trace.overhead_s, the traced minus
the untraced median run_s (both scaled as above).

Every repetition is checked: exit code 0, no traceback, the expected
output files, and one sha256 digest of the output tree shared by all
repetitions, traced or not. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; failed_frac is
failed / attempted. Full results, with the environment, digests and
the traced spans, go to .bench_work/results/. bench/baseline.py runs
every workload over many seeds and prints all metrics side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
MIN_REPS = 3
CHILD_TIMEOUT_S = 100.0  # a hung child is killed and its repetition fails

END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB",
              "bytes_written": "bytes"}
SCALED = ("wall_s", "setup_s", "run_s")  # kept unscaled and scaled, see Rep.scaled
REF_KERNEL_S = 0.015  # typical kernel time on the 2-core x86_64 VM the baseline was recorded on
KERNEL_REPEATS = 6  # kernel runs per CPU; their mean is that CPU's time


def _self(span):
    return lambda st: st[span]["self_s"]


def _calls(span):
    return lambda st: st[span]["calls"]


def _count(span, key):
    return lambda st: st[span].get(key, 0)


def _ratio(num, den, scale=1.0):
    return lambda st: scale * num(st) / den(st) if den(st) else 0.0


# Per-layer metrics: (name, unit, value from the span statistics of one
# traced repetition). The out.* and trace.* metrics are added separately.
PER_LAYER = [
    ("cli.main.s", "s", _self("cli.main")),
    ("scenario.load_scenario.s", "s", _self("scenario.load_scenario")),
    ("scenario.validate.s", "s", _self("scenario.validate")),
    ("scenario.Simulation.init.s", "s", _self("scenario.Simulation.init")),
    ("scenario.Simulation.run.self_s", "s", _self("scenario.Simulation.run")),
    ("scenario.interpolate_trajectory.calls", "count", _calls("scenario.interpolate_trajectory")),
    ("scenario.interpolate_trajectory.s", "s", _self("scenario.interpolate_trajectory")),
    ("bathymetry.load_heightmap.s", "s", _self("bathymetry.load_heightmap")),
    ("bathymetry.load_heightmap.values", "count", _count("bathymetry.load_heightmap", "values")),
    ("bathymetry.raycast.calls", "count", _calls("bathymetry.raycast")),
    ("bathymetry.raycast.s", "s", _self("bathymetry.raycast")),
    ("bathymetry.raycast.us_per_ray", "us",
     _ratio(_self("bathymetry.raycast"), _count("bathymetry.raycast", "rays"), 1e6)),
    ("bathymetry.raycast.hit_frac", "fraction",
     _ratio(_count("bathymetry.raycast", "hits"), _count("bathymetry.raycast", "rays"))),
    ("bathymetry.raycast_batch.calls", "count", _calls("bathymetry.raycast_batch")),
    ("bathymetry.raycast_batch.rays", "count", _count("bathymetry.raycast_batch", "rays")),
    ("bathymetry.raycast_batch.s", "s", _self("bathymetry.raycast_batch")),
    ("bathymetry.raycast_batch.us_per_ray", "us",
     _ratio(_self("bathymetry.raycast_batch"), _count("bathymetry.raycast_batch", "rays"), 1e6)),
    ("bathymetry.raycast_batch.hit_frac", "fraction",
     _ratio(_count("bathymetry.raycast_batch", "hits"), _count("bathymetry.raycast_batch", "rays"))),
    ("tiling.grid_tile_specs.s", "s", _self("tiling.grid_tile_specs")),
    ("tiling.tiles", "count", _count("tiling.grid_tile_specs", "tiles")),
    ("tiling.update_tiles.calls", "count", _calls("tiling.update_tiles")),
    ("tiling.update_tiles.s", "s", _self("tiling.update_tiles")),
    ("tiling.update_tiles.ms_per_call", "ms",
     _ratio(_self("tiling.update_tiles"), _calls("tiling.update_tiles"), 1e3)),
    ("tiling.update_tiles.events", "count", _count("tiling.update_tiles", "events")),
    ("tiling.generate_tiles.s", "s", _self("tiling.generate_tiles")),
    ("tiling.write_tiles.s", "s", _self("tiling.write_tiles")),
    ("tiling.write_tiles.bytes", "bytes", _count("tiling.write_tiles", "bytes")),
    ("currents.CurrentSampler.step.calls", "count", _calls("currents.CurrentSampler.step")),
    ("currents.CurrentSampler.step.s", "s", _self("currents.CurrentSampler.step")),
    ("currents.CurrentSampler.velocity.calls", "count", _calls("currents.CurrentSampler.velocity")),
    ("currents.CurrentSampler.velocity.s", "s", _self("currents.CurrentSampler.velocity")),
    ("dvl.measure.calls", "count", _calls("dvl.measure")),
    ("dvl.measure.s", "s", _self("dvl.measure")),
    ("dvl.measure.bottom_frac", "fraction",
     _ratio(_count("dvl.measure", "bottom"), _calls("dvl.measure"))),
    ("dvl.current_profile.calls", "count", _calls("dvl.current_profile")),
    ("dvl.current_profile.s", "s", _self("dvl.current_profile")),
    ("sonar.gather_scatterers.s", "s", _self("sonar.gather_scatterers")),
    ("sonar.gather_scatterers.scatterers", "count", _count("sonar.gather_scatterers", "scatterers")),
    ("sonar.ping.calls", "count", _calls("sonar.ping")),
    ("sonar.ping.s", "s", _self("sonar.ping")),
    ("sonar.write_aplot_csv.s", "s", _self("sonar.write_aplot_csv")),
    ("sonar.write_aplot_csv.bytes", "bytes", _count("sonar.write_aplot_csv", "bytes")),
    ("sonar.write_aplot_pgm.s", "s", _self("sonar.write_aplot_pgm")),
    ("sonar.write_aplot_pgm.bytes", "bytes", _count("sonar.write_aplot_pgm", "bytes")),
    ("lidar.scan.calls", "count", _calls("lidar.scan")),
    ("lidar.scan.s", "s", _self("lidar.scan")),
    ("lidar.scan.points", "count", _count("lidar.scan", "points")),
    ("lidar.scan.hit_frac", "fraction",
     _ratio(_count("lidar.scan", "points"), _count("lidar.scan", "rays"))),
    ("lidar.write_ply.s", "s", _self("lidar.write_ply")),
    ("lidar.write_ply.bytes", "bytes", _count("lidar.write_ply", "bytes")),
    ("lidar.write_ply.us_per_point", "us",
     _ratio(_self("lidar.write_ply"), _count("lidar.write_ply", "points"), 1e6)),
    ("coupling.step.calls", "count", _calls("coupling.step")),
    ("coupling.step.s", "s", _self("coupling.step")),
    ("meshtools.load_obj.s", "s", _self("meshtools.load_obj")),
    ("meshtools.subdivide.s", "s", _self("meshtools.subdivide")),
    ("meshtools.distort.s", "s", _self("meshtools.distort")),
    ("meshtools.save_obj.s", "s", _self("meshtools.save_obj")),
    ("meshtools.save_obj.vertices", "count", _count("meshtools.save_obj", "vertices")),
    ("meshtools.save_obj.bytes", "bytes", _count("meshtools.save_obj", "bytes")),
]
OUT_KINDS = ("csv", "ply", "pgm", "obj", "json")


@dataclass
class Rep:
    """One repetition: every command of the workload, run once."""

    traced: bool
    ok: bool = True
    reasons: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    peak_rss_mb: float = 0.0
    bytes_written: int = 0
    files_by_kind: dict = field(default_factory=dict)
    digest: str = ""
    spans: list = field(default_factory=list)
    env: dict = field(default_factory=dict)
    kernel_s: list = field(default_factory=list)  # before the first child and after each
    scaled: dict = field(default_factory=lambda: dict.fromkeys(SCALED, 0.0))

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)


def kernel() -> float:
    """Time one fixed piece of work in the mix subsim spends its time on:
    interpreted loops over floats and small tuples, tuple-keyed dicts,
    repr float formatting and joins, and small numpy operations."""
    import numpy as np

    t0 = time.perf_counter()
    values = np.linspace(-40.0, 40.0, 6000).reshape(-1, 3)
    edges: dict = {}
    acc = 0.0
    lines = []
    for i, (x, y, z) in enumerate(values.tolist()):
        acc += math.hypot(max(x - 1.0, 0.0), min(y, 2.0)) + z
        edges[(i % 97, i)] = len(edges)
        lines.append("v " + " ".join(repr(float(a)) for a in (x, y, z, x * 0.5, y * 0.5, 0.25)))
    text = "\n".join(lines)
    grid = np.sort(np.hypot(np.sin(values[:, 0]), values[:, 1]))
    if not (acc and text and grid.size and edges):
        raise AssertionError("kernel")
    return time.perf_counter() - t0


def host_speed(cpus: set[int]) -> float:
    """Kernel time, the mean of KERNEL_REPEATS runs on each of `cpus`,
    averaged over them. A mean, not a median: a CPU switches between
    fast and slow spells within a child's run, and the child's time
    follows the share of slow spells."""
    own = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.fmean(kernel() for _ in range(KERNEL_REPEATS)))
    finally:
        os.sched_setaffinity(0, own)
    return sum(times) / len(times)


def spawn(argv: list[str], log_stem: Path, cpus: set[int] | None = None) -> tuple[int, float, float]:
    """Run a child with PYTHONPATH=src, on `cpus` if given; returns
    (exit code, wall s, ru_maxrss MiB)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    own = os.sched_getaffinity(0)
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        try:
            if cpus:
                os.sched_setaffinity(0, cpus)  # the child inherits it
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=REPO)
        finally:
            os.sched_setaffinity(0, own)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 rather than proc.wait: it returns this child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tree_digest(paths: list[Path]) -> tuple[str, int, dict]:
    """sha256 over relative paths and contents; total bytes; bytes and files by suffix."""
    digest = hashlib.sha256()
    total = 0
    kinds: dict = defaultdict(lambda: [0, 0])
    for root in paths:
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
        for path in files:
            data = path.read_bytes()
            digest.update(str(path.relative_to(root.parent)).encode())
            digest.update(data)
            total += len(data)
            kind = kinds[path.suffix.lstrip(".")]
            kind[0] += len(data)
            kind[1] += 1
    return digest.hexdigest(), total, dict(kinds)


def check_outputs(wl: workloads.Workload, outs: list[Path], seed: int, rep: Rep) -> None:
    """Structural checks of one repetition's outputs."""
    c = wl.checks
    if "steps" in c:
        manifest = outs[0] / "manifest.json"
        if not manifest.is_file():
            return rep.fail("missing manifest.json")
        if json.loads(manifest.read_text()).get("seed") != seed:
            rep.fail("manifest seed differs from the workload seed")
        for vid in c["vehicles"]:
            pose = outs[0] / vid / "pose.csv"
            rows = len(pose.read_text().splitlines()) - 1 if pose.is_file() else -1
            if rows != c["steps"]:
                rep.fail(f"{vid}/pose.csv has {rows} rows, expected {c['steps']}")
        for sub, expected in c["sensor_files"].items():
            d = outs[0] / sub
            stems = {p.stem for p in d.iterdir()} if d.is_dir() else set()
            if len(stems) != expected:
                rep.fail(f"{sub} has {len(stems)} products, expected {expected}")
    if "tiles" in c:
        n = len(list(outs[0].glob("*.obj"))) if outs[0].is_dir() else 0
        if n != c["tiles"]:
            rep.fail(f"{n} tile meshes, expected {c['tiles']}")
        source = outs[0] / c["distorted_from"]
        if not source.is_file() or not outs[1].is_file():
            return rep.fail("missing tile mesh or distorted mesh")
        nv, nf = obj_counts(source)
        for _ in range(c["subdivide"]):
            # Midpoint split of a disc-shaped mesh: one new vertex per edge,
            # E = V + F - 1 by Euler's formula, and four faces per face.
            nv, nf = nv + (nv + nf - 1), 4 * nf
        if obj_counts(outs[1]) != (nv, nf):
            rep.fail(f"distorted mesh has {obj_counts(outs[1])} vertices/faces, expected {(nv, nf)}")


def obj_counts(path: Path) -> tuple[int, int]:
    """Vertex and face lines of an OBJ file."""
    lines = path.read_text().splitlines()
    return sum(ln.startswith("v ") for ln in lines), sum(ln.startswith("f ") for ln in lines)


def run_rep(wl: workloads.Workload, rep_dir: Path, seed: int, traced: bool, rep_id: str,
            cpus: set[int]) -> Rep:
    rep = Rep(traced=traced)
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    rep_dir.mkdir(parents=True)
    rep.kernel_s.append(host_speed(cpus))
    outs = [rep_dir / o for o in wl.outputs]
    for i, (cmd, kind) in enumerate(zip(wl.commands, wl.phases)):
        argv = list(cmd)
        for j, out in enumerate(outs):
            argv = [a.replace(f"{{out{j}}}", str(out)) for a in argv]
        result = rep_dir / f"child{i}.json"
        code, wall, rss = spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), str(result), kind, str(int(traced)),
             rep_id, "--", *argv],
            rep_dir / f"child{i}",
            cpus,
        )
        rep.kernel_s.append(host_speed(cpus))
        scale = 2.0 * REF_KERNEL_S / (rep.kernel_s[-2] + rep.kernel_s[-1])
        rep.wall_s += wall
        rep.scaled["wall_s"] += wall * scale
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        stderr = (rep_dir / f"child{i}.err").read_text(errors="replace")
        if code != 0:
            rep.fail(f"subsim {argv[0]} exited {code}: {stderr.strip()[-300:]}")
        if "Traceback" in stderr:
            rep.fail(f"traceback from subsim {argv[0]}")
        if not result.is_file():
            rep.fail(f"no timing record from subsim {argv[0]}")
            continue
        record = json.loads(result.read_text())
        rep.setup_s += record["setup_s"]
        rep.run_s += record["run_s"]
        rep.scaled["setup_s"] += record["setup_s"] * scale
        rep.scaled["run_s"] += record["run_s"] * scale
        offset = len(rep.spans)  # parent indices are per command
        rep.spans.extend(dict(s, parent=s["parent"] + offset if s["parent"] >= 0 else -1)
                         for s in record["spans"])
        rep.env = record["env"]
    if rep.ok:
        check_outputs(wl, outs, seed, rep)
    rep.digest, rep.bytes_written, rep.files_by_kind = tree_digest([o for o in outs if o.exists()])
    shutil.rmtree(rep_dir)
    return rep


def span_stats(spans: list[dict]) -> dict:
    """Per span name: calls, self seconds and summed counters."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    stats: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, s in enumerate(spans):
        st = stats[s["name"]]
        st["calls"] += 1
        st["self_s"] += (s["end"] - s["start"]) - child_time[i]
        for k, v in (s["counts"] or {}).items():
            st[k] = st.get(k, 0) + v
    return stats


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(reps: list[Rep], expected: tuple[str, ...]) -> tuple[dict, list[str]]:
    traced = [r for r in reps if r.traced and r.ok]
    untraced = [r for r in reps if not r.traced and r.ok]
    problems = []
    per_rep = []
    for r in traced:
        st = span_stats(r.spans)
        missing = [name for name in expected if st[name]["calls"] == 0]
        problem = "expected layers recorded no calls: " + ", ".join(missing)
        if missing and problem not in problems:
            problems.append(problem)
        per_rep.append({name: fn(st) for name, _, fn in PER_LAYER})
    metrics = {name: {"value": median([m[name] for m in per_rep]), "unit": unit}
               for name, unit, _ in PER_LAYER}
    last = (traced or untraced or [Rep(traced=False)])[-1]
    for kind in OUT_KINDS:
        metrics[f"out.bytes.{kind}"] = {"value": last.files_by_kind.get(kind, [0, 0])[0],
                                        "unit": "bytes"}
    metrics["out.files"] = {"value": sum(v[1] for v in last.files_by_kind.values()), "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": (median([r.scaled["run_s"] for r in traced])
                  - median([r.scaled["run_s"] for r in untraced])),
        "unit": "s",
    }
    return metrics, problems


def declared_metrics() -> tuple[set, set]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (REPO / "src" / "subsim" / "cli.py").is_file() or not (REPO / "scenarios").is_dir():
        print(f"error: {REPO} has no subsim sources (src/subsim, scenarios)", file=sys.stderr)
        return 2

    work = REPO / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    t_gen = time.perf_counter()
    wl = workloads.build(args.workload, work / "inputs", args.seed, REPO)
    t_gen = time.perf_counter() - t_gen

    # Warm-up, untimed: validates generated scenarios and compiles bytecode.
    problems = []
    kernel()
    for cmd in wl.commands:
        warm = ["validate", cmd[1]] if cmd[0] == "run" else ["--help"]
        code, _, _ = spawn([sys.executable, "-m", "subsim.cli", *warm], work / "warmup")
        if code != 0:
            problems.append(f"subsim {' '.join(warm)} failed: {(work / 'warmup.out').read_text()}")

    reps: list[Rep] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    durations = []
    all_cpus = os.sched_getaffinity(0)
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        # Pinned: CPUs in turn, a traced repetition on the same CPU as the
        # untraced one before it.
        turn = len(reps) // (1 + args.trace) % len(all_cpus)
        cpus = {sorted(all_cpus)[turn]} if wl.pin else all_cpus
        t0 = time.perf_counter()
        reps.append(run_rep(wl, work / "rep", args.seed, traced,
                            f"{args.workload}-{args.seed}-{len(reps)}", cpus))
        durations.append(time.perf_counter() - t0)
        enough = len(reps) >= MIN_REPS + args.trace
        if enough and time.perf_counter() + median(durations) > deadline:
            break
    elapsed = time.perf_counter() - start

    # Digests as written, before any repetition is marked failed for its digest.
    traced_digests = {r.digest for r in reps if r.traced}
    untraced_digests = {r.digest for r in reps if not r.traced}
    trace_same = traced_digests == untraced_digests and len(untraced_digests) == 1
    if args.trace and not trace_same:
        problems.append("traced output digests differ from untraced")
    digests = Counter(r.digest for r in reps if r.ok)
    reference, shared = digests.most_common(1)[0] if digests else ("", 0)
    if shared == 1 and sum(digests.values()) > 1:
        reference = "none shared"  # every repetition wrote a different tree
    for r in reps:
        if r.ok and r.digest != reference:
            r.fail(f"output digest {r.digest[:12]} differs from {reference[:12]}")
    good = [r for r in reps if r.ok]
    failed = len(reps) - len(good)

    if args.trace:
        metrics, layer_problems = layer_metrics(reps, wl.expect_layers)
        problems += layer_problems
    else:
        metrics = {name: {"value": median([r.scaled[name] if name in SCALED else getattr(r, name)
                                           for r in good]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    unscaled = {name: median([getattr(r, name) for r in good]) for name in SCALED}
    e2e_names, layer_names = declared_metrics()
    if set(metrics) != (layer_names if args.trace else e2e_names):
        problems.append("metrics differ from those declared in BENCHMARK.json")

    env = dict(getattr(good[0] if good else reps[0], "env", {}) if reps else {})
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    })
    correct = failed == 0 and not problems and bool(reps)

    results_dir = REPO / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed, "generate_s": t_gen,
        "env": env, "digest": reference, "correct": correct, "problems": problems,
        "reps": [{"traced": r.traced, "ok": r.ok, "reasons": r.reasons, "digest": r.digest,
                  "wall_s": r.wall_s, "setup_s": r.setup_s, "run_s": r.run_s,
                  "peak_rss_mb": r.peak_rss_mb, "bytes_written": r.bytes_written,
                  "kernel_s": r.kernel_s, "scaled": r.scaled}
                 for r in reps],
        "ref_kernel_s": REF_KERNEL_S, "unscaled": unscaled,
        "metrics": metrics,
    }, indent=1))
    if args.trace:
        (results_dir / f"{stem}-spans.json").write_text(
            json.dumps([s for r in reps if r.traced for s in r.spans]))
    shutil.rmtree(work)

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions in {elapsed:.1f} s, "
          f"{failed} failed, failed_frac {failed / max(len(reps), 1):.3f}, digest {reference[:16]}")
    if args.trace:
        n_traced = sum(r.traced for r in reps)
        print(f"traced digest equals untraced: {trace_same} ({n_traced} traced)")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"kernel median {median([k for r in reps for k in r.kernel_s]) * 1e3:.2f} ms (reference "
          f"{REF_KERNEL_S * 1e3:.2f} ms); unscaled medians: "
          + ", ".join(f"{k} {v:.4f} s" for k, v in unscaled.items()))
    if env.get("sonar_threads") and env["sonar_threads"] > env["nproc"]:
        print(f"note: scenario.SONAR_THREADS = {env['sonar_threads']} exceeds nproc {env['nproc']}")
    for p in problems + [f"rep {i}: {'; '.join(r.reasons)}" for i, r in enumerate(reps) if not r.ok]:
        print(f"problem: {p}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
