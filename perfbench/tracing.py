"""Per-layer tracing from outside the library.

``Tracer.installed()`` replaces every public function of the tdcodes
modules with a timing wrapper in every namespace that binds it (``verify``,
``cli`` and ``distance`` import ``make_field``; ``cyclic`` imports
``cyclotomic_coset``; ``verify.SUITES`` holds the suite functions), and
wraps the lazy field tables of ``FieldSpec``.  Each wrapped call is a span
(name, start, end, parent, job); self time is a span's duration minus its
children's.  Leaf functions called hundreds of thousands of times per
job are only counted (``COUNT_ONLY``) or left alone (``UNWRAPPED``), so
their time stays in their caller's self time.  Operation counts are computed from a call's inputs, never read
from the library.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

MODULES = ("gf", "polys", "coset", "cyclic", "bounds", "distance", "verify")
# Digit sums run millions of times inside lemma6_check: left unwrapped.
UNWRAPPED = {"coset.q_weight", "coset.q_adic_digits"}
COUNT_ONLY = {"coset.cyclotomic_coset"}
FIELD_TABLES = ("_base_tables", "_ext_tables", "np_mul_table", "np_inv_table")
JOB_SPAN = "bench.job"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _totient(n: int) -> int:
    result, p, rest = n, 2, n
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def _codewords(args, kwargs, _):
    obj = _arg(args, kwargs, 0, "code_or_matrix")
    k = obj.rows if hasattr(obj, "rows") else obj.k
    return {"distance.codewords": obj.field.q ** k}


def _bch_units(args, kwargs, _):
    units = _totient(_arg(args, kwargs, 0, "T").n)
    budget = args[1] if len(args) > 1 else kwargs.get("budget")
    return {"bounds.bch_search.units": units if budget is None
            else min(budget, units)}


def _suite_checks(args, kwargs, result):
    if result is None:
        return {}
    return {"verify.checks": len(result),
            "verify.skipped": sum(1 for c in result if c.ok is None)}


def _cli_exit(args, kwargs, result):
    return {"cli.commands": 1,
            "cli.nonzero_exits": int(result is None or result[0] != 0)}


# Computed operation counts: name -> f(args, kwargs, result) -> {counter: k}
COUNTERS: dict[str, Callable] = {
    "polys.mul": lambda a, k, r: {"polys.mul.coeff_products":
                                  len(_arg(a, k, 1, "a")) * len(_arg(a, k, 2, "b"))},
    "cyclic.gram_matrix": lambda a, k, r: {"cyclic.gram_matrix.products":
                                           math.prod(_arg(a, k, 0, "mat").array.shape)
                                           * _arg(a, k, 0, "mat").rows},
    "cyclic.row_reduce": lambda a, k, r: {"cyclic.row_reduce.cells":
                                          math.prod(_arg(a, k, 1, "array").shape)},
    "coset.build_T": lambda a, k, r: {"coset.build_T.residues":
                                      _arg(a, k, 0, "q") ** _arg(a, k, 1, "m") - 2},
    "bounds.bch_search": _bch_units,
    "bounds.ap_in_set": lambda a, k, r: {"bounds.ap_in_set.members":
                                         _arg(a, k, 1, "w").length},
    "distance.exact_distance": _codewords,
    "distance.weight_distribution": _codewords,
    "verify.run_suite": _suite_checks,
    "cli.main": _cli_exit,
}


class Tracer:
    """Collects per-job span statistics; records individual spans only for
    runs started with ``record=True``, up to ``span_cap`` per name and job
    (the statistics always count every call)."""

    def __init__(self, span_cap: int = 2000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped: dict[str, int] = {}
        self._recorded: dict[str, int] = {}
        self.origin = perf_counter_ns()
        self._stack: list[list] = []
        self._next_id = 1
        self._record = False
        self._job = ""
        self.runs: dict[str, int] = {}
        self.stats: dict[str, dict[str, list[int]]] = {}  # job -> name -> [calls, ns, self ns]
        self.edges: dict[str, dict[tuple, int]] = {}      # job -> (parent, child) -> ns
        self.counts: dict[str, dict[str, int]] = {}       # job -> counter -> k

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0, name]
            tracer._next_id += 1
            stack.append(frame)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer._close(frame, parent, t0, t1)
                if counter is not None:
                    counts = tracer._counts
                    for key, k in counter(args, kwargs, result).items():
                        counts[key] = counts.get(key, 0) + k

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._stats.get(name)
            if st is None:
                st = tracer._stats[name] = [0, 0, 0]
            st[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, t0, t1):
        name = frame[2]
        dur = t1 - t0
        st = self._stats.get(name)
        if st is None:
            st = self._stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        key = (parent[2] if parent else None, name)
        self._edges[key] = self._edges.get(key, 0) + dur
        if parent is not None:
            parent[1] += dur
        if self._record:
            seen = self._recorded[name] = self._recorded.get(name, 0) + 1
            if seen <= self.span_cap:
                self.spans.append((self._job, frame[0],
                                   parent[0] if parent else None, name, t0, t1))
            else:
                self.dropped[name] = self.dropped.get(name, 0) + 1

    # -- installation -----------------------------------------------------------

    def _targets(self):
        """(qualified name, original) for every public library function."""
        out = []
        for mod_name in MODULES:
            mod = sys.modules[f"tdcodes.{mod_name}"]
            for attr, val in vars(mod).items():
                name = f"{mod_name}.{attr}"
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__
                        and name not in UNWRAPPED):
                    out.append((name, val))
        return out

    def _patch_all(self, patches: list):
        """Install the wrappers, noting each replaced binding in patches."""
        import workloads
        from tdcodes import cli, gf, verify  # noqa: F401  (cli loads every module)
        wrappers = {}
        for name, fn in self._targets():
            maker = self._counted if name in COUNT_ONLY else self._timed
            wrappers[id(fn)] = (fn, maker(name, fn))
        namespaces = [vars(m) for key, m in sys.modules.items()
                      if key == "tdcodes" or key.startswith("tdcodes.")]
        namespaces.append(verify.SUITES)
        for ns in namespaces:
            for key, val in list(ns.items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    patches.append((ns, key, val))
                    ns[key] = hit[1]
        patches.append((vars(workloads), "run_cli", workloads.run_cli))
        vars(workloads)["run_cli"] = self._timed("cli.main", workloads.run_cli)
        for attr in FIELD_TABLES:
            prop = gf.FieldSpec.__dict__[attr]
            patches.append((prop, "func", prop.func))
            prop.func = self._timed(f"gf.FieldSpec.{attr}", prop.func)

    @contextlib.contextmanager
    def installed(self, job_id: str, record: bool):
        """Trace one run of a job: wrap the library, time the job as a
        root span, unwrap on exit."""
        self._job = job_id
        self._record = record
        self._recorded = {}
        self.runs[job_id] = self.runs.get(job_id, 0) + 1
        self._stats = self.stats.setdefault(job_id, {})
        self._edges = self.edges.setdefault(job_id, {})
        self._counts = self.counts.setdefault(job_id, {})
        patches: list[tuple] = []
        try:
            self._patch_all(patches)
            yield lambda fn: self._timed(JOB_SPAN, fn)()
        finally:
            for obj, key, val in reversed(patches):
                if isinstance(obj, dict):
                    obj[key] = val
                else:
                    setattr(obj, key, val)
            self._stack.clear()

    # -- results ----------------------------------------------------------------

    def per_pass(self) -> "Aggregate":
        """Statistics of one pass over the job list: each job's totals
        divided by the number of its traced runs, summed over jobs."""
        agg = Aggregate({}, {}, {})
        for job, runs in self.runs.items():
            for name, st in self.stats[job].items():
                acc = agg.stats.setdefault(name, [0.0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += st[i] / runs
            for key, ns in self.edges[job].items():
                agg.edges[key] = agg.edges.get(key, 0.0) + ns / runs
            for key, k in self.counts[job].items():
                agg.counts[key] = agg.counts.get(key, 0.0) + k / runs
        return agg

    def by_job(self, top: int = 8) -> dict[str, list[dict]]:
        """Per job and run: the names with the largest self time."""
        out = {}
        for job, runs in self.runs.items():
            rows = sorted(self.stats[job].items(), key=lambda kv: -kv[1][2])
            out[job] = [{"name": name, "calls": st[0] / runs,
                         "ms": st[1] / runs / 1e6, "self_ms": st[2] / runs / 1e6}
                        for name, st in rows[:top] if st[1]]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for job, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "job": job, "span": sid, "parent": parent, "name": name,
                    "start_ms": round((t0 - self.origin) / 1e6, 4),
                    "end_ms": round((t1 - self.origin) / 1e6, 4),
                    "ms": round((t1 - t0) / 1e6, 4)}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"unrecorded_spans": self.dropped}) + "\n")


@dataclass
class Aggregate:
    stats: dict[str, list[float]]   # name -> [calls, ns, self ns]
    edges: dict[tuple, float]
    counts: dict[str, float]

    def ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e6

    def self_ms(self, *prefixes: str) -> float:
        return sum(st[2] for name, st in self.stats.items()
                   if name.startswith(prefixes)) / 1e6

    def calls(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[0]

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _codewords_per_s(agg: Aggregate) -> float:
    seconds = (agg.ms("distance.exact_distance")
               + agg.ms("distance.weight_distribution")) / 1e3
    return _ratio(agg.count("distance.codewords"), seconds)


def _transforms_ms(agg: Aggregate) -> float:
    names = ("coset.negate_set", "coset.scale_set", "coset.complement_set",
             "coset.dual_defining_set")
    return sum(agg.stats.get(n, [0, 0, 0])[2] for n in names) / 1e6


# (metric, unit, value, the end-to-end metric it should move and where)
LAYER_METRICS: list[tuple[str, str, Callable[[Aggregate], float], str]] = [
    ("gf.make_field.ms", "ms", lambda a: a.ms("gf.make_field"),
     "setup_s on all workloads; wall_s on structure (each suite rebuilds its field)"),
    ("gf.make_field.calls", "count", lambda a: a.calls("gf.make_field"),
     "setup_s on all workloads; wall_s on structure"),
    ("gf.tables.ms", "ms",
     lambda a: a.self_ms("gf.FieldSpec."),
     "setup_s on structure and distance"),
    ("polys.mul.ms", "ms", lambda a: a.ms("polys.mul"), "wall_s on structure"),
    ("polys.mul.coeff_products", "count",
     lambda a: a.count("polys.mul.coeff_products"), "wall_s on structure"),
    ("cyclic.minimal_polynomial.ms", "ms",
     lambda a: a.ms("cyclic.minimal_polynomial"),
     "wall_s on structure; no change on witness"),
    ("cyclic.generator_polynomial.ms", "ms",
     lambda a: a.ms("cyclic.generator_polynomial"),
     "wall_s on structure; no change on witness"),
    ("cyclic.generator_matrix.ms", "ms", lambda a: a.ms("cyclic.generator_matrix"),
     "wall_s on structure; no change on witness"),
    ("cyclic.gram_matrix.ms", "ms", lambda a: a.ms("cyclic.gram_matrix"),
     "wall_s on structure; no change on witness"),
    ("cyclic.gram_matrix.products", "count",
     lambda a: a.count("cyclic.gram_matrix.products"),
     "wall_s on structure; no change on witness"),
    ("cyclic.hull_dimension.ms", "ms", lambda a: a.ms("cyclic.hull_dimension"),
     "wall_s on structure; no change on witness"),
    ("cyclic.row_reduce.ms", "ms", lambda a: a.ms("cyclic.row_reduce"),
     "wall_s on structure (hull) and distance (information sets)"),
    ("cyclic.row_reduce.calls", "count", lambda a: a.calls("cyclic.row_reduce"),
     "wall_s on structure and distance"),
    ("cyclic.row_reduce.cells", "count",
     lambda a: a.count("cyclic.row_reduce.cells"),
     "wall_s on structure and distance"),
    ("coset.build_T.ms", "ms", lambda a: a.ms("coset.build_T"),
     "wall_s and peak_rss_mb on witness"),
    ("coset.build_T.residues", "count", lambda a: a.count("coset.build_T.residues"),
     "wall_s and peak_rss_mb on witness"),
    ("coset.cyclotomic_coset.calls", "count",
     lambda a: a.calls("coset.cyclotomic_coset"), "wall_s on witness"),
    ("coset.transforms.ms", "ms", _transforms_ms,
     "wall_s and peak_rss_mb on witness"),
    ("bounds.bch_search.ms", "ms", lambda a: a.ms("bounds.bch_search"),
     "wall_s on witness"),
    ("bounds.bch_search.units", "count",
     lambda a: a.count("bounds.bch_search.units"), "wall_s on witness"),
    ("bounds.ap_in_set.ms", "ms", lambda a: a.ms("bounds.ap_in_set"),
     "wall_s on witness"),
    ("bounds.ap_in_set.members", "count",
     lambda a: a.count("bounds.ap_in_set.members"), "wall_s on witness"),
    ("distance.exact_distance.ms", "ms", lambda a: a.ms("distance.exact_distance"),
     "wall_s and peak_rss_mb on distance"),
    ("distance.weight_distribution.ms", "ms",
     lambda a: a.ms("distance.weight_distribution"),
     "wall_s and peak_rss_mb on distance"),
    ("distance.codewords", "count", lambda a: a.count("distance.codewords"),
     "wall_s on distance"),
    ("distance.codewords_per_s", "1/s", _codewords_per_s, "wall_s on distance"),
    ("distance.sampled_upper.ms", "ms", lambda a: a.ms("distance.sampled_upper"),
     "wall_s and peak_rss_mb on distance"),
    ("distance.sampled_upper.row_reduce_share", "share",
     lambda a: _ratio(a.edges.get(("distance.sampled_upper", "cyclic.row_reduce"), 0),
                      a.ms("distance.sampled_upper") * 1e6),
     "wall_s on distance"),
    ("verify.run_suite.ms", "ms", lambda a: a.self_ms("verify."),
     "wall_s on structure and witness (self time of the suites)"),
    ("verify.checks", "count", lambda a: a.count("verify.checks"),
     "wall_s on structure and witness"),
    ("verify.skipped_frac", "share",
     lambda a: _ratio(a.count("verify.skipped"), a.count("verify.checks")),
     "wall_s on structure: rises when a size gate skips a check"),
    ("cli.main.ms", "ms", lambda a: a.self_ms("cli."),
     "wall_s on structure and witness (parsing, glue and JSON output)"),
    ("cli.commands", "count", lambda a: a.count("cli.commands"),
     "wall_s on structure and witness"),
    ("cli.nonzero_exits", "count", lambda a: a.count("cli.nonzero_exits"),
     "failed jobs on any workload"),
] + [
    (f"{layer}.self_ms", "ms", (lambda a, p=f"{layer}.": a.self_ms(p)),
     f"wall_s wherever the {layer} layer works")
    for layer in ("gf", "polys", "coset", "cyclic", "bounds", "distance")
] + [
    ("bench.job_ms", "ms", lambda a: a.ms(JOB_SPAN),
     "traced time of one pass over the job list"),
    ("bench.uncovered_ms", "ms", lambda a: a.self_ms(JOB_SPAN),
     "job time that no library or CLI span covers"),
]

# Set by the worker: it times the same jobs untraced and traced, and it
# runs the machine-speed probe.
OVERHEAD_METRIC = ("bench.trace_overhead_ms", "ms", None,
                   "tracing cost: traced minus untraced time of one pass")
PROBE_METRIC = ("bench.probe_ms", "ms", None,
                "median machine-speed probe time of the run (see probe.py)")
PER_LAYER = LAYER_METRICS + [OVERHEAD_METRIC, PROBE_METRIC]
HIGHER_IS_BETTER = {"distance.codewords_per_s", "verify.checks"}
