"""The benchmark harness still runs against the library: its tracer finds
the library's functions by name, so deleting or renaming one can break it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_quick_structure_run_yields_every_layer_metric():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "structure", "--seed", "0", "--seconds", "0",
         "--trace", "1", "--quick"],
        env=env, cwd=ROOT, text=True, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["errors"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec["per_layer"]
               if result["layers"].get(m["name"], {}).get("value") is None]
    assert not missing


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
