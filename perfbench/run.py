"""tdcodes benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload structure --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  ``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: one pass over the workload's job list, untraced, as the sum
  of each job's median time over the run's passes, scaled to the reference
  machine speed of probe.py (the raw seconds are printed and saved too);
* ``setup_s``: cold start, the median over several fresh interpreters of
  ``import tdcodes.cli`` plus building the workload's fields and their
  lazy tables, timed from launch to exit;
* ``peak_rss_mb``: peak resident memory of the process that ran the jobs.

``--trace 1`` reports the per-layer metrics of ``tracing.LAYER_METRICS``
from a traced run and writes the spans as JSONL under ``perfbench/out``.
Failed jobs (an exception or a failed output check) appear as ``failed``
out of ``attempted``; their share is printed as ``failed_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_LAUNCHES = 7
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_CODE = """
import tdcodes.cli
from tdcodes.gf import make_field
for s, m in {fields!r}:
    f = make_field(s, m)
    f._ext_tables, f.np_mul_table, f.np_inv_table
"""


def child_env() -> dict:
    """The library from this checkout, one thread for BLAS and OpenMP (the
    workloads are single-threaded by design, and 1 <= nproc), and the
    default size gate."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("TD_MAX_N", None)
    return env


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else None
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_sha": sha, "src_sha256": digest.hexdigest()}


def run_worker(opts, env, spans: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", opts.workload,
           "--seed", str(opts.seed), "--seconds", str(opts.seconds),
           "--trace", str(opts.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, text=True, capture_output=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_start(fields, env) -> list[float]:
    code = SETUP_CODE.format(fields=[list(f) for f in fields])
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=20)
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not (SRC / "tdcodes" / "__init__.py").is_file():
        print(f"no tdcodes sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    env = child_env()
    OUT.mkdir(exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    spans = OUT / f"{stem}.spans.jsonl" if opts.trace else None
    worker = run_worker(opts, env, spans)
    if not worker["versions"]["tdcodes_file"].startswith(str(SRC)):
        print(f"tdcodes was imported from {worker['versions']['tdcodes_file']}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    if opts.trace:
        metrics = worker["layers"]
    else:
        setup = cold_start(WORKLOADS[opts.workload].fields, env)
        worker["setup_samples"] = setup
        values = {"wall_s": worker["wall_s"], "setup_s": statistics.median(setup),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted, failed = worker["attempted"], worker["failed"]
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())

    worker["machine"] = machine()
    worker["metrics"] = metrics
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(worker, fh, indent=1)

    for err in worker["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"machine: {json.dumps(worker['machine'])}")
    print(f"versions: {json.dumps(worker['versions'])}")
    if opts.trace:
        slowest = max(worker["by_job"], key=lambda j: sum(r["self_ms"] for r in
                                                          worker["by_job"][j]))
        print(f"self time of the slowest job, {slowest}:")
        for row in worker["by_job"][slowest]:
            print(f"  {row['name']:<36} {row['self_ms']:10.1f} ms self "
                  f"{row['ms']:10.1f} ms total {row['calls']:9.0f} calls")
    print(f"wall_raw_s {worker['wall_raw_s']} s (speed probe median "
          f"{worker['probe_s'] * 1e3:.1f} ms)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {failed / attempted if attempted else 1.0} share "
          f"({failed} of {attempted} job runs)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
