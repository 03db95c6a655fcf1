"""Quick self-test of the benchmark harness (a few seconds):

    python3 perfbench/selftest.py

* every workload's smallest job of each kind runs untraced and traced,
  passes its checks, and yields every per-layer metric BENCHMARK.json names;
* the checks reject corrupted outputs;
* BENCHMARK.json names the metrics run.py and tracing.py produce;
* run.py refuses, without a result line, a directory that holds only the
  benchmark and not the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from check import CheckError
from tracing import HIGHER_IS_BETTER, PER_LAYER

def fail(msg: str):
    raise SystemExit(f"selftest FAILED: {msg}")


def check_manifest():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        fail("BENCHMARK.json end_to_end metrics differ from run.py's")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != \
            [(name, unit) for name, unit, _, _ in PER_LAYER]:
        fail("BENCHMARK.json per_layer metrics differ from tracing.py's")
    for m in spec["per_layer"]:
        want = "higher" if m["name"] in HIGHER_IS_BETTER else "lower"
        if m["better"] != want:
            fail(f"BENCHMARK.json: {m['name']} should be better {want}")


def check_quick_runs(per_layer_names: list[str]):
    from workloads import WORKLOADS
    env = run.child_env()
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "worker.py"), "--workload", name,
             "--seed", "0", "--seconds", "0", "--trace", "1", "--quick"],
            env=env, cwd=run.ROOT, text=True, capture_output=True, timeout=120)
        if proc.returncode != 0:
            fail(f"{name}: worker exited {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if result["failed"]:
            fail(f"{name}: " + "\n".join(result["errors"]))
        missing = [m for m in per_layer_names
                   if result["layers"].get(m, {}).get("value") is None]
        if missing or result["wall_s"] is None:
            fail(f"{name}: no value for {missing or ['wall_s']}")
        print(f"ok   {name}: {result['attempted']} job runs, "
              f"{result['layers']['bench.job_ms']['value']:.0f} ms traced")


def check_rejections():
    """Corrupt one output of each checked kind; the check must refuse it."""
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS
    jobs = {job.kind: job for w in WORKLOADS.values() for job in w.quick(0)}

    def corrupt_cli(out):
        code, text = out
        data = json.loads(text)
        if "generator_poly" in data:
            data["generator_poly"][0] ^= 1
        elif "checks" in data:
            data["checks"][-1]["status"] = "FAIL"
        elif isinstance(data, list):
            data[0]["k"] += 1
        else:
            data["cosets"] += 1
        return code, json.dumps(data)

    def corrupt_report(out):
        witness = list(out.witness)
        j = next(i for i, c in enumerate(witness) if c == 0)
        witness[j] = 1
        return type(out)(**{**out.__dict__, "witness": tuple(witness),
                            "witness_weight": out.witness_weight + 1,
                            "upper": out.upper + 1,
                            "exact": None if out.exact is None else out.exact + 1})

    def corrupt_tally(out):
        out = dict(out)
        w = max(out)
        out[w] += 1
        return out

    def corrupt_bch(out):
        return type(out)(out.delta + 1, out.witness, out.source)

    corrupters = {
        "cli.verify": corrupt_cli, "cli.construct": corrupt_cli,
        "cli.inspect": corrupt_cli, "cli.table": corrupt_cli,
        "distance.exact_distance": corrupt_report,
        "distance.sampled_upper": corrupt_report,
        "distance.weight_distribution": corrupt_tally,
        "bounds.bch_search": corrupt_bch,
    }
    for kind, corrupt in corrupters.items():
        job = jobs[kind]
        bad = corrupt(job.run())
        try:
            job.check(bad)
        except CheckError:
            print(f"ok   {kind}: corrupted output rejected")
            continue
        fail(f"{kind}: corrupted output passed its check")


def check_refuses_bare_directory():
    scratch = run.OUT / "bare"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(run.BENCH, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "witness",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=scratch, text=True, capture_output=True, timeout=60)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("run.py produced a result without the library's sources")
        print(f"ok   bare directory refused with exit code {proc.returncode}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    per_layer = [m[0] for m in PER_LAYER]
    check_manifest()
    print("ok   BENCHMARK.json matches the harness")
    check_rejections()
    check_quick_runs(per_layer)
    check_refuses_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
