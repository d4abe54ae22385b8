"""The benchmark's tracer over subsim: every layer it wraps is found, called
and annotated, so a renamed function, parameter or result attribute that
the benchmark reads fails here and not only in a benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CHILD = REPO / "bench" / "child.py"


def _child_module():
    """bench/child.py as a module; importing it wraps nothing."""
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, name, kind, argv):
    """One traced subsim command through bench/child.py, RuntimeWarnings
    as errors: its timing record."""
    result = tmp_path / f"{name}.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(CHILD), str(result), kind, "1", name, "--", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-2000:]
    record = json.loads(result.read_text(encoding="utf-8"))
    assert record["exit_code"] == 0
    return record


def test_every_traced_layer_is_wrapped_called_and_annotated(tmp_path):
    """A one-second demo run, a tile export of its DEM and a distort of one
    tile, each with every target of the tracer wrapped."""
    child = _child_module()
    records = [
        _traced(tmp_path, "run", "run", ["run", str(REPO / "scenarios" / "demo.yaml"), "--out",
                                         str(tmp_path / "run"), "--duration", "1"]),
        _traced(tmp_path, "tiles", "tiles", ["tiles", str(REPO / "scenarios" / "demo_seafloor.asc"),
                                             "--tile-size", "400", "--overlap", "20", "--out",
                                             str(tmp_path / "tiles")]),
        _traced(tmp_path, "distort", "distort", ["distort", str(tmp_path / "tiles" / "tile_001_001.obj"),
                                                 "--extent", "0.5", "--subdivide", "1", "--seed", "3",
                                                 "--out", str(tmp_path / "distorted.obj")]),
    ]
    names = [name for name, _, _ in child.TARGETS]
    for record in records:
        assert sorted(record["patched"]) == sorted(names)
        assert all(count >= 1 for count in record["patched"].values()), record["patched"]
    spans = [span for record in records for span in record["spans"]]
    assert {span["name"] for span in spans} == set(names)
    annotated = child._annotators({m: importlib.import_module(f"subsim.{m}") for m in child.LAYERS})
    for span in spans:
        assert (span["counts"] is not None) == (span["name"] in annotated), span["name"]
