"""Runs one workload in its own process and prints one JSON line.

Closed loop, one client: the jobs run one at a time, cycling through the
seeded job list until ``--seconds`` have passed (at least one full pass);
a job is started only if its last run still fits in the time left.  Each
job's output is checked after its timer stops: fully on its first run,
and by equality with that first output afterwards.

Before each untraced job run the machine-speed probe (probe.py) times its
kernel in a separate process; ``wall_s`` is the raw time scaled by the
run's median probe time.

Without ``--trace`` every run is untraced.  With it, each job runs
untraced and then traced, so the tracing overhead comes from the same
pass; span records are kept for each job's first traced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="the smallest job of each kind instead of the full "
                         "list, without warm-up")
    ap.add_argument("--spans", type=Path, default=None,
                    help="write the recorded spans here as JSONL")
    opts = ap.parse_args()

    import tdcodes.cli  # noqa: F401  (load the library before any timer)
    from probe import REFERENCE_S, SpeedProbe
    from tracing import LAYER_METRICS, OVERHEAD_METRIC, PROBE_METRIC, Tracer
    from workloads import WORKLOADS

    spec = WORKLOADS[opts.workload]
    warm = spec.quick(opts.seed)
    jobs = warm if opts.quick else spec.full(opts.seed)
    tracer = Tracer() if opts.trace else None
    errors: list[str] = []
    first_output: dict[str, object] = {}
    attempted = failed = 0

    def execute(job, traced: bool) -> float | None:
        """Run, time and check one job; the time is None if it failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            if traced:
                with tracer.installed(job.id, record=job.id not in tracer.runs) as run:
                    t0 = time.perf_counter()
                    out = run(job.run)
                    elapsed = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = job.run()
                elapsed = time.perf_counter() - t0
            if job.id not in first_output:
                job.check(out)
                first_output[job.id] = out
            elif out != first_output[job.id]:
                raise AssertionError("output differs from the job's first run")
            return elapsed
        except Exception:  # a failed job is counted and reported, not fatal
            failed += 1
            errors.append(f"{job.id}: {traceback.format_exc(limit=4)}")
            return None

    if not opts.quick:
        for job in warm:  # fill lazy state outside the measurement
            execute(job, traced=False)

    plain: dict[str, list[float]] = {job.id: [] for job in jobs}
    traced: dict[str, list[float]] = {job.id: [] for job in jobs}

    def cost(job) -> float:
        est = plain[job.id][-1] if plain[job.id] else 0.0
        if tracer is not None:
            est += traced[job.id][-1] if traced[job.id] else est
        return est

    probes: list[float] = []
    deadline = time.perf_counter() + opts.seconds
    first = True
    with SpeedProbe() as probe:
        while True:
            ran = False
            for job in jobs:
                if not first and time.perf_counter() + cost(job) > deadline:
                    continue
                probes.append(probe.measure())
                t = execute(job, traced=False)
                if t is not None:
                    plain[job.id].append(t)
                if tracer is not None:
                    t = execute(job, traced=True)
                    if t is not None:
                        traced[job.id].append(t)
                ran = True
            first = False
            if not ran:
                break

    def per_pass(samples):
        if any(not s for s in samples.values()):
            return None
        return sum(statistics.median(s) for s in samples.values())

    wall_raw_s = per_pass(plain)
    probe_s = statistics.median(probes)
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wall_s": None if wall_raw_s is None else wall_raw_s * REFERENCE_S / probe_s,
        "wall_raw_s": wall_raw_s,
        "probe_s": probe_s,
        "probes": probes,
        "samples": {job.id: plain[job.id] for job in jobs},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": _versions(),
    }
    if tracer is not None:
        agg = tracer.per_pass()
        layers = {name: {"value": float(fn(agg)), "unit": unit}
                  for name, unit, fn, _ in LAYER_METRICS}
        traced_s = per_pass(traced)
        overhead = None
        if wall_raw_s is not None and traced_s is not None:
            overhead = (traced_s - wall_raw_s) * 1e3
        layers[OVERHEAD_METRIC[0]] = {"value": overhead, "unit": OVERHEAD_METRIC[1]}
        layers[PROBE_METRIC[0]] = {"value": probe_s * 1e3, "unit": PROBE_METRIC[1]}
        result["layers"] = layers
        result["traced_samples"] = {job.id: traced[job.id] for job in jobs}
        result["by_job"] = tracer.by_job()
        if opts.spans is not None:
            tracer.write_spans(opts.spans)
    print(json.dumps(result))
    return 0


def _versions() -> dict:
    import numpy
    import sympy
    import tdcodes
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "sympy": sympy.__version__, "tdcodes": tdcodes.__version__,
            "tdcodes_file": tdcodes.__file__}


if __name__ == "__main__":
    sys.exit(main())
