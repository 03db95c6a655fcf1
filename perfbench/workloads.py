"""The benchmark's workloads: seeded job lists and the check for each job.

A job calls the public tdcodes API, or the CLI entry point in-process as a
user would, and returns its output; the job's check runs after the job's
timer stops.  Every job is rebuilt from scratch on each call (fresh field,
fresh code objects), so no run profits from a cache filled by an earlier
run.  Jobs reach the library through module attributes (``gf.make_field``,
not a name imported here), so the tracer's patches apply to them.  This
module imports tdcodes only inside the job builders, so the launcher can
read the workload table without paying for the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import check
from check import (check_codeword, check_generator, check_progression,
                   check_suite_json, coset_count, dimension, expect, field_of,
                   ints_in, set_size, weight_tally)


@dataclass
class Job:
    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    why: str
    fields: tuple[tuple[int, int], ...]  # (s, m) pairs the workload builds
    full: Callable[[int], list[Job]]
    quick: Callable[[int], list[Job]]


def run_cli(args: list[str]) -> tuple[int, str]:
    """``tdcodes ARGS`` in-process: (exit code, standard output)."""
    from tdcodes import cli
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="tdcodes")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _cli_json(output, what: str):
    code, text = output
    expect(code == 0, f"{what} exited {code}")
    return json.loads(text)


def _s_of(q: int) -> int:
    return q.bit_length() - 1


# ---------------------------------------------------------------------------
# Job kinds
# ---------------------------------------------------------------------------

def verify_job(claim: str, q: int, m: int) -> Job:
    args = ["verify", "--id", claim, "--q", str(q), "--m", str(m),
            "--format", "json"]
    n = q ** m - 1

    def claim_detail(checks, prefix):
        hits = [c["detail"] for c in checks if c["claim"].startswith(prefix)]
        expect(len(hits) == 1, f"no single claim starting {prefix!r}")
        return hits[0]

    def check_output(output):
        payload = _cli_json(output, " ".join(args))
        check_suite_json(payload, claim, q, m)
        checks = payload["checks"]
        k0, k1 = dimension(q, m, 0), dimension(q, m, 1)
        if claim == "thm2":
            expect(ints_in(claim_detail(checks, "duadic pair")) == [k0]
                   and k0 == k1 == (n + 1) // 2, "thm2 dimension mismatch")
        elif claim == "thm3":
            expect(ints_in(claim_detail(checks, "dimensions")) == [0, k0, 1, k1]
                   and (k0, k1) == ((n + 3) // 2, (n - 1) // 2),
                   "thm3 dimension mismatch")
        elif claim == "thm16":
            expect(ints_in(claim_detail(checks, "pair has")) == [n, k0],
                   "thm16 dimension mismatch")
        elif claim == "lemma1":
            expect(ints_in(claim_detail(checks, "sizes"))[-4:]
                   == [0, set_size(q, m, 0), 1, set_size(q, m, 1)],
                   "lemma1 set sizes mismatch")
        elif claim in ("lemma7", "lemma10"):
            parity = 0  # both witnesses target T_0
            detail = claim_detail(checks, "progression lies in T_0")
            b, a, lo, hi = ints_in(detail)
            check_progression(q, m, parity, b, a, lo, hi)

    return Job(f"verify {claim} q={q} m={m}", "cli.verify",
               lambda: run_cli(args), check_output)


def construct_job(q: int, m: int, parity: int, rng: random.Random) -> Job:
    args = ["construct", "--q", str(q), "--m", str(m), "--parity", str(parity)]
    sample_seed = rng.randrange(1 << 30)

    def check_output(output):
        from tdcodes.gf import make_field
        data = _cli_json(output, " ".join(args))
        T = check.defining_set(q, m, parity)
        expect(data["defining_set"] == T, "defining set differs from T")
        expect(data["n"] == q ** m - 1 and data["k"] == data["n"] - len(T)
               == dimension(q, m, parity), "construct dimension mismatch")
        field = field_of(make_field(_s_of(q), m))
        check_generator(field, data["generator_poly"], T,
                        random.Random(sample_seed))

    return Job(f"construct q={q} m={m} parity={parity}", "cli.construct",
               lambda: run_cli(args), check_output)


def inspect_job(q: int, m: int, parity: int) -> Job:
    args = ["inspect", "--q", str(q), "--m", str(m), "--parity", str(parity),
            "--format", "json"]

    def check_output(output):
        data = _cli_json(output, " ".join(args))
        expect(data["set_size"] == set_size(q, m, parity)
               and data["k"] == dimension(q, m, parity), "inspect sizes")
        expect(data["cosets"] == coset_count(q, m, parity), "inspect coset count")
        expect(data["fixed_by_negation"] == (m % 2 == 0), "inspect negation")

    return Job(f"inspect q={q} m={m} parity={parity}", "cli.inspect",
               lambda: run_cli(args), check_output)


def table_job(section: str, extra: list[str]) -> Job:
    args = ["table", "--section", section, "--with-search", "--format", "json"] \
        + extra

    def check_output(output):
        from tdcodes import bounds
        rows = _cli_json(output, " ".join(args))
        expect(rows, "empty table")
        for row in rows:
            q, m = row["q"], row["m"]
            n = q ** m - 1
            expect(q == 1 << row["s"] and (m % 2 == 1) == (section == "16"),
                   f"row q={q} m={m} is not in section {section}")
            want = {"pair": (n, dimension(q, m, 0)),
                    "extended": (n + 1, dimension(q, m, 0)),
                    "even_like": (n, dimension(q, m, 0) - 1),
                    "parity0": (n, dimension(q, m, 0)),
                    "parity1": (n, dimension(q, m, 1))}[row["family"]]
            expect((row["n"], row["k"]) == want, f"table row {row} parameters")
            parity = 1 if row["family"] in ("even_like", "parity1") else 0
            expect(row["d_bound"] == bounds.theorem_bound(q, m, parity),
                   f"table row {row} bound")
            if "search_delta" in row:
                expect(row["search_delta"] >= row["d_bound"],
                       f"search delta below the closed form in {row}")

    return Job(" ".join(["table", section] + extra), "cli.table", lambda: run_cli(args),
               check_output)


def bch_job(q: int, m: int, parity: int) -> Job:
    from tdcodes import bounds, coset

    def run():
        return bounds.bch_search(coset.build_T(q, m, parity))

    def check_output(report):
        w = report.witness
        expect(not report.partial and w is not None, "bch_search found nothing")
        check_progression(q, m, parity, w.b, w.a, w.i_lo, w.i_hi)
        expect(report.delta == w.i_hi - w.i_lo + 2, "delta != length + 1")
        expect(report.delta >= bounds.theorem_bound(q, m, parity),
               "bch_search below the closed-form bound")

    return Job(f"bch_search q={q} m={m} parity={parity}", "bounds.bch_search",
               run, check_output)


def _validated_generator(q: int, m: int, T, rng):
    """The library's generator polynomial for T, checked independently."""
    from tdcodes import coset, cyclic
    from tdcodes.gf import make_field
    spec = make_field(_s_of(q), m)
    field = field_of(spec)
    g = cyclic.generator_polynomial(spec, coset.defining_set(spec.n, q, T))
    check_generator(field, g, T, rng)
    return field, g


def _q_cosets(q: int, n: int) -> list[list[int]]:
    seen, out = set(), []
    for i in range(n):
        if i in seen:
            continue
        orbit, j = [], i
        while j not in orbit:
            orbit.append(j)
            j = j * q % n
        seen.update(orbit)
        out.append(sorted(orbit))
    return out


def exact_job(q: int, m: int, k: int, rng: random.Random) -> Job:
    """Exact distance of a seeded coset-closed [n, k] code: its non-zeros
    are random q-cyclotomic cosets of total size k."""
    from tdcodes import bounds, coset, cyclic, distance, gf
    n = q ** m - 1
    cosets = _q_cosets(q, n)
    rng.shuffle(cosets)
    nonzeros: list[int] = []
    for c in cosets:
        if len(nonzeros) + len(c) <= k:
            nonzeros += c
    expect(len(nonzeros) == k, f"no coset union of size {k} modulo {n}")
    T = sorted(set(range(n)) - set(nonzeros))
    sample_seed = rng.randrange(1 << 30)

    def run():
        field = gf.make_field(_s_of(q), m)
        code = cyclic.code_from_T(field, coset.defining_set(n, q, T))
        return distance.exact_distance(code)

    def check_output(report):
        field, g = _validated_generator(q, m, T, random.Random(sample_seed))
        expect(report.exact == report.upper == report.witness_weight,
               "exact report is inconsistent")
        check_codeword(field, g, report.witness, report.exact)
        bch = bounds.bch_search(coset.defining_set(n, q, T)).delta
        expect(report.exact >= bch, f"d = {report.exact} below BCH bound {bch}")

    return Job(f"exact_distance [{n},{k}] q={q}", "distance.exact_distance",
               run, check_output)


def tally_job(q: int, m: int, parity: int, rng: random.Random) -> Job:
    from tdcodes import bounds, coset, cyclic, distance, gf
    sample_seed = rng.randrange(1 << 30)
    k = dimension(q, m, parity)

    def run():
        field = gf.make_field(_s_of(q), m)
        return distance.weight_distribution(
            cyclic.code_from_T(field, coset.build_T(q, m, parity)))

    def check_output(tally):
        T = check.defining_set(q, m, parity)
        field, g = _validated_generator(q, m, T, random.Random(sample_seed))
        expect(tally == weight_tally(field, g, k), "weight tally differs")
        expect(sum(tally.values()) == q ** k and tally.get(0) == 1,
               "tally does not cover the code")
        d = min(w for w in tally if w)
        expect(d >= bounds.theorem_bound(q, m, parity), f"d = {d} below bound")

    return Job(f"weight_distribution [{q ** m - 1},{k}] q={q}",
               "distance.weight_distribution", run, check_output)


def sampled_job(q: int, m: int, parity: int, trials: int, seed: int,
                extended: bool, rng: random.Random,
                expected: int | None = None) -> Job:
    from tdcodes import bounds, coset, cyclic, distance, gf
    sample_seed = rng.randrange(1 << 30)
    n = q ** m - 1

    def run():
        field = gf.make_field(_s_of(q), m)
        code = cyclic.code_from_T(field, coset.build_T(q, m, parity))
        target = cyclic.extend_code(code) if extended else code
        return distance.sampled_upper(target, trials=trials, seed=seed)

    def check_output(report):
        T = check.defining_set(q, m, parity)
        field, g = _validated_generator(q, m, T, random.Random(sample_seed))
        expect(report.upper == report.witness_weight and report.seed == seed,
               "sampled report is inconsistent")
        check_codeword(field, g, report.witness, report.upper, extended)
        expect(report.upper >= bounds.theorem_bound(q, m, parity),
               f"upper bound {report.upper} below the proven lower bound")
        if expected is not None:
            expect(report.upper == expected,
                   f"sampled upper {report.upper}, expected {expected}")

    length = n + 1 if extended else n
    return Job(f"sampled_upper [{length},{dimension(q, m, parity)}] q={q} "
               f"parity={parity} trials={trials}", "distance.sampled_upper",
               run, check_output)


def duadic_job(q: int, m: int) -> Job:
    from tdcodes import distance

    def check_output(result):
        expect(result.ok, f"duadic distances differ: {result.reason}")

    return Job(f"duadic_distance_equality q={q} m={m}", "distance.duadic",
               lambda: distance.verify_duadic_distance_equality(q, m),
               check_output)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _shuffled(jobs: list[Job], rng: random.Random) -> list[Job]:
    rng.shuffle(jobs)
    return jobs


def structure_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [verify_job(c, q, m) for c, q, m in
            (("thm2", 4, 3), ("thm2", 8, 3), ("thm2", 4, 5),
             ("thm3", 4, 4), ("thm3", 16, 2), ("thm16", 4, 5))]
    jobs += [construct_job(q, m, rng.randrange(2), rng)
             for q, m in ((4, 6), (16, 3))]
    return _shuffled(jobs, rng)


def structure_quick(seed: int) -> list[Job]:
    rng = random.Random(seed)
    return [verify_job("thm2", 4, 3), verify_job("thm3", 4, 2),
            verify_job("thm16", 4, 3), construct_job(4, 2, 0, rng)]


def distance_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [exact_job(4, 3, 12, rng), tally_job(4, 2, 0, rng),
            tally_job(4, 2, 1, rng)]
    for parity in (0, 1):
        for extended in (False, True):
            jobs.append(sampled_job(
                4, 3, parity, 2048, seed, extended, rng,
                expected=(16 if extended else 15) if seed == 0 else None))
    # the duadic check keeps its default sampling seed: with other seeds the
    # two sampled bounds can differ, which the library reports as inconclusive
    jobs.append(duadic_job(4, 3))
    jobs.append(sampled_job(4, 5, rng.randrange(2), 64, seed, False, rng))
    return _shuffled(jobs, rng)


def distance_quick(seed: int) -> list[Job]:
    rng = random.Random(seed)
    return [exact_job(4, 2, 4, rng), tally_job(4, 2, 1, rng),
            sampled_job(4, 2, 0, 16, seed, False, rng),
            sampled_job(4, 2, 1, 16, seed, True, rng), duadic_job(2, 3)]


def witness_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [verify_job("lemma7", 4, 11), verify_job("lemma10", 4, 10),
            verify_job("lemma1", 4, 10), verify_job("lemma6", 16, 4),
            bch_job(4, 7, 0), bch_job(4, 7, 1),
            inspect_job(4, 9, rng.randrange(2)),
            table_job("16", []), table_job("18", [])]
    return _shuffled(jobs, rng)


def witness_quick(seed: int) -> list[Job]:
    rng = random.Random(seed)
    return [verify_job("lemma7", 4, 3), verify_job("lemma10", 4, 10),
            verify_job("lemma1", 4, 2), verify_job("lemma6", 4, 2),
            bch_job(4, 3, 0), inspect_job(4, 3, rng.randrange(2)),
            table_job("16", ["--s", "2", "--max-n", "1023"])]


WORKLOADS = {
    "structure": Workload(
        why="construct and structure-check the codes: generator polynomials, "
            "Gram and hull matrices (cyclic, polys); no distance work",
        fields=((2, 3), (3, 3), (2, 5), (2, 4), (4, 2), (2, 6), (4, 3)),
        full=structure_jobs, quick=structure_quick),
    "distance": Workload(
        why="exact, tallied and sampled minimum distances of small-generator "
            "codes: distance enumeration and information-set row reductions",
        fields=((2, 3), (2, 2), (2, 5)),
        full=distance_jobs, quick=distance_quick),
    "witness": Workload(
        why="integer-only progression witnesses, defining sets and BCH search "
            "at n up to 4.2M: coset and bounds layers and peak memory",
        fields=(),
        full=witness_jobs, quick=witness_quick),
}
