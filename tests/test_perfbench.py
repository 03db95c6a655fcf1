"""The benchmark harness still runs against the library: its tracer finds
the library's functions by name, so deleting or renaming one can break it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_quick_run(workload: str) -> dict:
    """The result line of a traced quick worker run on ``workload``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", "1", "--quick"],
        env=env, cwd=ROOT, text=True, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["errors"]
    return result


def test_traced_quick_structure_run_yields_every_layer_metric():
    result = traced_quick_run("structure")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec["per_layer"]
               if result["layers"].get(m["name"], {}).get("value") is None]
    assert not missing


def test_traced_quick_distance_run_times_the_row_reduction():
    # the tracer finds the kernel by name inside sampled_upper, and
    # exact_distance, which builds its systematic form from g and reduces
    # no rows, is still a span of its own
    layers = traced_quick_run("distance")["layers"]
    assert layers["cyclic.row_reduce.ms"]["value"] is not None
    assert layers["distance.sampled_upper.row_reduce_share"]["value"] is not None
    assert layers["distance.exact_distance.ms"]["value"] is not None


def test_cold_start_snippet_builds_the_structure_fields():
    # the bench's cold-start child reads the lazy field tables; a failure
    # there ends a bench run non-zero even when the traced run passes
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    fields = [list(f) for f in WORKLOADS["structure"].fields]
    proc = subprocess.run([sys.executable, "-c", run.SETUP_CODE.format(fields=fields)],
                          env=run.child_env(), cwd=ROOT, text=True,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
