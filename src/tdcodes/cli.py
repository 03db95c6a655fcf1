"""Command-line front end.

Commands map the library onto runnable artifacts: ``construct`` emits a
code (or a derived variant) as JSON or pretty text, ``inspect`` summarizes
a defining set, ``verify`` runs a named claim suite, ``bound`` and
``distance`` report minimum-distance bounds, and ``table`` regenerates the
parameter summaries of the two code families.

Exit codes: 0 all good, 1 a verified claim failed, 2 usage or domain
error, 3 internal failure (for example a bad field-spec file).

Every ``click.echo`` names its stream: click's default-stream cache never
frees a stream it need not wrap, so in-process calls would leak their output.
"""

from __future__ import annotations

import json
import os
import sys

import click

from tdcodes import bounds, coset, cyclic, distance, verify
from tdcodes.bounds import DomainError
from tdcodes.gf import FieldError, FieldSpec, check_field_size, load_field_spec, make_field

VARIANTS = ("plain", "even_like", "dual", "complement", "extended")
DISTANCE_MAX_BYTES = 1 << 28  # largest k x cols systematic form `distance` builds
# the theorems whose BOUND_CASES rows each `table` section lists
TABLE_SECTIONS = {"16": ("thm8",), "18": ("thm12", "thm15")}


def _max_n() -> int:
    return int(os.environ.get("TD_MAX_N", str(1 << 20)))


def _checked_s(q: int, m: int) -> int:
    """s for q = 2^s, once q is valid and n = q^m - 1 is within TD_MAX_N."""
    s = q.bit_length() - 1
    if not 1 <= s <= 8 or q != 1 << s:
        raise click.UsageError(f"--q must be a power of two in 2..256, got {q}")
    n = q ** m - 1
    if n > _max_n():
        raise click.UsageError(
            f"n = {n} exceeds TD_MAX_N = {_max_n()}; raise the env var to override")
    return s


def _build_field(q: int, m: int, field_spec_path) -> FieldSpec:
    """GF(q^m) from the field-spec file or the default moduli: a usage error
    past TD_MAX_N or outside the field domain, exit 3 if the moduli fail."""
    s = _checked_s(q, m)
    try:
        check_field_size(s, m)
    except FieldError as exc:
        raise click.UsageError(str(exc)) from None
    if s == 1:
        click.echo("warning: q = 2 is outside the verified bound analysis; "
                   "constructions are exploratory", file=sys.stderr)
    try:
        if field_spec_path:
            spec = load_field_spec(field_spec_path)
            if spec.q != q or spec.m != m:
                raise click.UsageError(
                    f"field-spec file describes GF({spec.q}^{spec.m}), "
                    f"but --q {q} --m {m} was requested")
            return spec
        return make_field(s, m)
    except FieldError as exc:
        click.echo(f"field construction failed: {exc}", file=sys.stderr)
        sys.exit(3)


def _emit(data, fmt: str, out, pretty_text: str | None = None):
    if fmt == "pretty" and pretty_text is not None:
        payload = pretty_text
    else:
        payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        click.echo(payload, file=sys.stdout)


def _code_for(field: FieldSpec, parity: int, variant: str):
    """The cyclic code of the variant; the base code for "extended"."""
    base = cyclic.code_from_T(field, coset.build_T(field.q, field.m, parity))
    derive = {"even_like": cyclic.even_like, "dual": cyclic.dual_code,
              "complement": cyclic.complement_code}.get(variant)
    return derive(base) if derive else base


@click.group()
def main():
    """Construct and verify the 2^s-ary digit-parity cyclic code families."""


@main.command()
@click.option("--q", type=int, required=True, help="Alphabet size, a power of two.")
@click.option("--m", type=int, required=True, help="Extension degree; n = q^m - 1.")
@click.option("--parity", type=click.IntRange(0, 1), default=0, show_default=True)
@click.option("--variant", type=click.Choice(VARIANTS), default="plain",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]),
              default="json", show_default=True)
@click.option("--pretty", "pretty_flag", is_flag=True,
              help="Shorthand for --format pretty.")
@click.option("--field-spec", "field_spec_path",
              type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file overriding the default moduli.")
@click.option("--out", type=click.Path(), default=None)
def construct(q, m, parity, variant, fmt, pretty_flag, field_spec_path, out):
    """Emit a code of the family (or a derived variant)."""
    if pretty_flag:
        fmt = "pretty"
    field = _build_field(q, m, field_spec_path)
    if variant == "extended":
        base = _code_for(field, parity, "plain")
        data = {"q": q, "m": m, "parity": parity, "variant": "extended",
                "n": base.n + 1, "k": base.k, "base_n": base.n}
        text = f"extended code: [{base.n + 1}, {base.k}] over GF({q})"
        _emit(data, fmt, out, text)
        return
    code = _code_for(field, parity, variant)
    data = cyclic.code_to_json(code, parity=parity,
                               variant=None if variant == "plain" else variant)
    text = (f"[{code.n}, {code.k}] code over GF({q}), defining set size "
            f"{len(code.T)}\ng(x) = {cyclic.poly_pretty(field, code.generator)}"
            if fmt == "pretty" else None)
    _emit(data, fmt, out, text)


@main.command()
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--parity", type=click.IntRange(0, 1), default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]),
              default="pretty", show_default=True)
def inspect(q, m, parity, fmt):
    """Summarize a defining set without building the generator polynomial."""
    _checked_s(q, m)
    n = q ** m - 1
    try:
        T = coset.build_T(q, m, parity)
    except ValueError as exc:  # m below 2
        raise click.UsageError(str(exc)) from None
    cosets = coset.coset_count(T)
    data = {"q": q, "m": m, "parity": parity, "n": n, "set_size": len(T),
            "k": n - len(T), "cosets": cosets,
            "fixed_by_negation": coset.is_negation(T, T)}
    text = (f"T_({q},{m};{parity}): n={n}, |T|={len(T)}, k={n - len(T)}, "
            f"{cosets} cosets, fixed by negation: "
            f"{data['fixed_by_negation']}")
    _emit(data, fmt, None, text)


@main.command()
@click.option("--id", "claim_id", required=True,
              type=click.Choice(sorted(verify.SUITES)),
              help="Claim suite to run.")
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--field-spec", "field_spec_path",
              type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]),
              default="pretty", show_default=True)
@click.pass_context
def verify_cmd(ctx, claim_id, q, m, field_spec_path, fmt):
    """Check every sub-claim of a named structural statement."""
    field = None
    if field_spec_path or claim_id in verify.FIELD_SUITES:
        field = _build_field(q, m, field_spec_path)
    elif claim_id in verify.SIZED_SUITES:
        _checked_s(q, m)
    try:
        checks = verify.run_suite(claim_id, q, m, field=field)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from None
    payload = [{"claim": c.claim,
                "status": "pass" if c.ok else "FAIL",
                "detail": c.detail} for c in checks]
    if fmt == "json":
        _emit({"id": claim_id, "q": q, "m": m, "checks": payload}, "json", None)
    else:
        for row in payload:
            line = f"[{row['status']:>4}] {row['claim']}"
            if row["detail"]:
                line += f"  ({row['detail']})"
            click.echo(line, file=sys.stdout)
    if not all(c.ok for c in checks):
        ctx.exit(1)


main.add_command(verify_cmd, name="verify")


@main.command()
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--parity", type=click.IntRange(0, 1), default=0, show_default=True)
@click.option("--search/--no-search", default=False,
              help="Run the exhaustive progression search instead of the "
                   "named witness.")
@click.option("--budget", type=int, default=None,
              help="Cap on multipliers scanned by --search.")
@click.option("--out", type=click.Path(), default=None)
def bound(q, m, parity, search, budget, out):
    """Report a progression-based lower bound for a code of the family."""
    _checked_s(q, m)
    try:
        if search:
            report = bounds.bch_search(coset.build_T(q, m, parity), budget=budget)
        else:
            report = bounds.lemma_bound_report(q, m, parity)
    except ValueError as exc:  # a DomainError, or a search too large to run unbudgeted
        raise click.UsageError(str(exc)) from None
    _emit(bounds.report_to_json(report), "json", out)


@main.command(name="distance")
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--parity", type=click.IntRange(0, 1), default=0, show_default=True)
@click.option("--variant", type=click.Choice(VARIANTS), default="plain",
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--cap", type=click.IntRange(max=distance.DEFAULT_CAP),
              default=distance.DEFAULT_CAP, show_default=True,
              help="Largest message space q^k for an exact distance; above it the "
                   "distance is sampled.")
@click.option("--trials", type=click.IntRange(min=1), default=2048,
              show_default=True,
              help="random information-set forms: max(1, trials // 16)")
@click.option("--field-spec", "field_spec_path",
              type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--out", type=click.Path(), default=None)
def distance_cmd(q, m, parity, variant, seed, cap, trials, field_spec_path, out):
    """Certify a distance interval: progression lower bound plus an exact or
    sampled upper bound."""
    field = _build_field(q, m, field_spec_path)
    code = _code_for(field, parity, variant)
    k = code.k
    extended = variant == "extended"
    cols = code.n + 1 if extended else code.n
    if k * cols > DISTANCE_MAX_BYTES:
        raise click.UsageError(
            f"the {k} x {cols} systematic form needs {k * cols} bytes, "
            f"over the limit of {DISTANCE_MAX_BYTES}")
    try:
        lower = bounds.theorem_bound(q, m, parity) \
            if variant in ("plain", "extended") else 1
    except DomainError:
        lower = 1
    if field.n <= 4096 and variant == "plain":
        lower = max(lower, bounds.bch_search(code.T).delta)
    target = cyclic.extend_code(code) if extended else code
    if q ** k <= cap:
        report = distance.exact_distance(target, cap=cap, lower=lower)
    else:
        report = distance.sampled_upper(target, trials=trials, seed=seed,
                                        lower=lower)
    data = {"lower": report.lower, "upper": report.upper, "exact": report.exact,
            "method": report.method, "seed": report.seed,
            "witness": list(report.witness) if report.witness else None}
    _emit(data, "json", out)


@main.command()
@click.option("--section", type=click.Choice(sorted(TABLE_SECTIONS)), required=True,
              help="16 = odd-m families (pair, extension, even-like); "
                   "18 = even-m LCD families.")
@click.option("--s", "s_values", type=click.IntRange(max=8), multiple=True,
              help="Restrict to these base degrees (default 2..4).")
@click.option("--max-n", type=int, default=None,
              help="Cap on code length (default TD_MAX_N).")
@click.option("--with-search/--no-search", default=False,
              help="Add an exhaustive progression-search column (n <= 4096).")
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]),
              default="pretty", show_default=True)
def table(section, s_values, max_n, with_search, fmt):
    """Regenerate the parameter summary rows for one family."""
    cap = max_n if max_n is not None else _max_n()
    s_list = sorted(set(s_values)) if s_values else [2, 3, 4]
    rows = []
    for s in s_list:
        if s < 0:
            raise click.UsageError(f"--s must be a base degree >= 2, got {s}")
        q = 1 << s
        for m in range(2, 17):
            n = q ** m - 1
            if n > cap:
                break
            if bounds.bound_case(m).theorem not in TABLE_SECTIONS[section]:
                continue
            # (family, n, k, the parity of its bound, gets that parity's search)
            if section == "16":
                entries = [("pair", n, (n + 1) // 2, 0, True),
                           ("extended", n + 1, (n + 1) // 2, 0, False),
                           ("even_like", n, (n - 1) // 2, 1, True)]
            else:
                entries = [("parity0", n, (n + 3) // 2, 0, True),
                           ("parity1", n, (n - 1) // 2, 1, True)]
            for family, length, k, p, searched in entries:
                try:
                    d_bound = bounds.theorem_bound(q, m, p)
                except DomainError as exc:  # q = 2, or --s 0
                    raise click.UsageError(f"--s {s}: {exc}") from None
                row = {"s": s, "q": q, "m": m, "family": family, "n": length,
                       "k": k, "d_bound": d_bound}
                if searched and with_search and n <= 4096:
                    row["search_delta"] = bounds.bch_search(
                        coset.build_T(q, m, p)).delta
                rows.append(row)
    if fmt == "json":
        _emit(rows, "json", None)
        return
    for row in rows:
        extra = f"  search delta {row['search_delta']}" \
            if "search_delta" in row else ""
        click.echo(f"q={row['q']:<4} m={row['m']:<3} {row['family']:<10} "
                   f"[{row['n']}, {row['k']}, >={row['d_bound']}]{extra}",
                   file=sys.stdout)


if __name__ == "__main__":
    main()
