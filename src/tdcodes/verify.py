"""Claim suites: each verifiable structural statement about the digit-parity
codes (duadic pair, self-dual extension, self-orthogonal even-like, LCD,
dimensions, progression witnesses, closed-form bounds) is packaged as a
named suite returning one ClaimCheck per sub-claim.

Suites raise DomainError when (q, m) is outside a claim's domain.  thm2
and thm3 check every structure claim on g(x) at every n the field tables
admit; at the CLI's default TD_MAX_N the slowest case, thm3 at (32, 4)
with n = 2^20 - 1, takes about 8 s and 200 MB in a fresh process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from tdcodes import bounds, coset, cyclic
from tdcodes.bounds import DomainError
from tdcodes.coset import Parity
from tdcodes.gf import FieldSpec, make_field

WITNESS_MAX_LENGTH = 1 << 22
# suites that build a field, and so accept a caller-supplied one
FIELD_SUITES = ("thm2", "thm3")
# suites whose work grows with n
SIZED_SUITES = ("thm2", "thm3", "thm16", "thm18", "lemma1", "lemma6")
# the theorems whose cases are the rows of bounds.BOUND_CASES
_THEOREM_DOMAINS = {"thm8": "odd m >= 3", "thm12": "m = 2 mod 4",
                    "thm15": "m = 0 mod 4"}


@dataclass(frozen=True)
class ClaimCheck:
    claim: str
    ok: bool
    detail: str = ""


def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


def _s_of(q: int) -> int:
    s = q.bit_length() - 1
    _require(s >= 1 and q == 1 << s, f"q must be a power of two >= 2, got {q}")
    return s


def _field_for(q: int, m: int, field: FieldSpec | None) -> FieldSpec:
    if field is not None:
        if field.q != q or field.m != m:
            raise ValueError(f"supplied field is GF({field.q}^{field.m}), "
                             f"expected GF({q}^{m})")
        return field
    return make_field(_s_of(q), m)


def _pair(q, m, field):
    f = _field_for(q, m, field)
    c0 = cyclic.code_from_T(f, coset.build_T(q, m, Parity.EVEN))
    c1 = cyclic.code_from_T(f, coset.build_T(q, m, Parity.ODD))
    return f, c0, c1


# ---------------------------------------------------------------------------
# Size and negation structure of the defining sets
# ---------------------------------------------------------------------------

def verify_lemma1(q: int, m: int) -> list[ClaimCheck]:
    _s_of(q)
    _require(m >= 2, f"need m >= 2, got {m}")
    n = q ** m - 1
    T0 = coset.build_T(q, m, Parity.EVEN)
    T1 = coset.build_T(q, m, Parity.ODD)
    checks = []
    if m % 2 == 1:
        checks.append(ClaimCheck(
            "sizes (n-1)/2 and (n-1)/2",
            len(T0) == len(T1) == (n - 1) // 2,
            f"|T_0|={len(T0)}, |T_1|={len(T1)}"))
        checks.append(ClaimCheck(
            "-T_0 = T_1", coset.is_negation(T0, T1), ""))
    else:
        checks.append(ClaimCheck(
            "sizes (n-3)/2 and (n+1)/2",
            len(T0) == (n - 3) // 2 and len(T1) == (n + 1) // 2,
            f"|T_0|={len(T0)}, |T_1|={len(T1)}"))
        checks.append(ClaimCheck(
            "-T_i = T_i",
            coset.is_negation(T0, T0) and coset.is_negation(T1, T1), ""))
    checks.append(ClaimCheck(
        "disjoint cover of Z_n", coset.disjoint_cover(T0, T1), ""))
    return checks


def verify_lemma5(q: int, m: int) -> list[ClaimCheck]:
    _s_of(q)
    _require(m >= 2, f"need m >= 2, got {m}")
    tested = 0
    for ell in range(1, 2 * m + 1):
        if (m // math.gcd(ell, m)) % 2 == 0:
            continue
        tested += 1
        if not coset.gcd_lemma5_check(q, ell, m):
            return [ClaimCheck("gcd(q^m-1, q^ell+1) = 1", False,
                               f"fails at ell={ell}")]
    return [ClaimCheck("gcd(q^m-1, q^ell+1) = 1", True,
                       f"{tested} admissible ell in 1..{2 * m}")]


def verify_lemma6(q: int, m: int) -> list[ClaimCheck]:
    _require(q >= 3, f"need q >= 3, got {q}")
    _require(m >= 2, f"need m >= 2, got {m}")
    for A in range(2, q):
        for h in range(m):
            if not coset.lemma6_check(q, m, A, h):
                return [ClaimCheck("digit-weight reflection identity", False,
                                   f"fails at A={A}, h={h}")]
    return [ClaimCheck("digit-weight reflection identity", True,
                       f"all A in 2..{q - 1}, h in 0..{m - 1}")]


# ---------------------------------------------------------------------------
# Progression witnesses
# ---------------------------------------------------------------------------

class _ImplicitT:
    """T_(q,m;parity) as a membership test, never built: the nonzero i whose
    digit-sum parity is the requested one.  Bit j*s of i is the low bit of
    digit j, so that parity is the popcount parity of i & mask."""

    def __init__(self, q: int, m: int, parity: Parity | int):
        self.n = q ** m - 1
        s = q.bit_length() - 1
        self._mask = sum(1 << (j * s) for j in range(m))
        self._parity = int(parity)

    def __contains__(self, i: int) -> bool:
        return i != 0 and (i & self._mask).bit_count() & 1 == self._parity


def verify_witness(lemma_id: str, q: int, m: int) -> list[ClaimCheck]:
    witness, parity = bounds.lemma_witness(lemma_id, q, m)
    _require(witness.length <= WITNESS_MAX_LENGTH, f"the {lemma_id} progression "
             f"has {witness.length} members, over the cap of {WITNESS_MAX_LENGTH}")
    T = _ImplicitT(q, m, parity)
    checks = [
        ClaimCheck("gcd(a, n) = 1", math.gcd(witness.a, T.n) == 1,
                   f"a={witness.a}, n={T.n}"),
        ClaimCheck(f"progression lies in T_{int(parity)}",
                   bounds.ap_in_set(T, witness),
                   f"b={witness.b}, a={witness.a}, "
                   f"i in [{witness.i_lo}, {witness.i_hi}]"),
    ]
    expected = bounds.theorem_bound(q, m, parity)
    checks.append(ClaimCheck("implied bound matches the closed form",
                             witness.delta == expected,
                             f"delta={witness.delta}, closed form={expected}"))
    return checks


def _bounds_witnessed(q: int, m: int, defining_set) -> bool:
    """For each parity p, the witness-backed bound's progression lies in
    ``defining_set(p)`` and implies the closed-form bound."""
    for parity in Parity:
        report = bounds.lemma_bound_report(q, m, parity)
        if not (bounds.ap_in_set(defining_set(parity), report.witness)
                and report.delta == bounds.theorem_bound(q, m, parity)):
            return False
    return True


# ---------------------------------------------------------------------------
# Structure of the codes
# ---------------------------------------------------------------------------

def verify_thm2(q: int, m: int, field: FieldSpec | None = None) -> list[ClaimCheck]:
    """Odd m: duadic pair under -1, self-dual extension, self-orthogonal
    even-like codes, and dual-vs-complement parameter agreement."""
    _s_of(q)
    _require(m >= 3 and m % 2 == 1, f"need odd m >= 3, got m={m}")
    f, c0, c1 = _pair(q, m, field)
    n = f.n
    checks = []

    split = coset.splitting_check(c0.T, c1.T)
    dims = c0.k == c1.k == (n + 1) // 2
    checks.append(ClaimCheck("duadic pair split by -1 with dimension (n+1)/2",
                             bool(split) and dims,
                             split.reason if not split else f"k={c0.k}"))

    sd = all(cyclic.extension_is_self_dual(c) for c in (c0, c1))
    checks.append(ClaimCheck("extended codes are self-dual", sd,
                             f"[{n + 1}, {(n + 1) // 2}]"))
    so = all(e.k == (n - 1) // 2 and cyclic.is_self_orthogonal(e)
             for e in map(cyclic.even_like, (c0, c1)))
    checks.append(ClaimCheck(
        "even-like codes are self-orthogonal with dimension (n-1)/2", so, ""))

    params_agree = all(
        (cyclic.dual_code(a).n, cyclic.dual_code(a).k)
        == (cyclic.even_like(b).n, cyclic.even_like(b).k)
        for a, b in ((c0, c1), (c1, c0)))
    checks.append(ClaimCheck("dual and even-like complement share (n, k)",
                             params_agree, ""))
    return checks


def verify_thm3(q: int, m: int, field: FieldSpec | None = None) -> list[ClaimCheck]:
    """Even m: dual defining-set identities, LCD structure, dimensions."""
    _s_of(q)
    _require(m >= 2 and m % 2 == 0, f"need even m >= 2, got m={m}")
    f, c0, c1 = _pair(q, m, field)
    n = f.n
    checks = []

    duals_match = (cyclic.dual_code(c0).T == cyclic.even_like(c1).T
                   and cyclic.dual_code(c1).T == cyclic.even_like(c0).T)
    checks.append(ClaimCheck("dual of each code is the other's even-like code",
                             duals_match, ""))

    lcd = cyclic.is_lcd(c0) and cyclic.is_lcd(c1)
    checks.append(ClaimCheck("both codes are LCD (defining-set level)", lcd, ""))

    checks.append(ClaimCheck("dimensions (n+3)/2 and (n-1)/2",
                             c0.k == (n + 3) // 2 and c1.k == (n - 1) // 2,
                             f"k0={c0.k}, k1={c1.k}"))

    hulls = (cyclic.hull_dimension(c0), cyclic.hull_dimension(c1))
    checks.append(ClaimCheck("hull dimension is 0 (polynomial level)",
                             hulls == (0, 0), f"dims {hulls}"))
    return checks


def verify_bound_theorem(theorem: str, q: int, m: int) -> list[ClaimCheck]:
    """Theorem 8, 12 or 15: re-prove the witnesses of the case of m.  A case
    with one witness also checks the bound it gives both parities."""
    case = next((c for c in bounds.BOUND_CASES
                 if c.theorem == theorem and c.covers(m)), None)
    _require(case is not None, f"need {_THEOREM_DOMAINS[theorem]}, got m={m}")
    if len(case.witnesses) > 1:
        return [ClaimCheck(f"[{wid}] {c.claim}", c.ok, c.detail)
                for wid in case.witnesses for c in verify_witness(wid, q, m)]
    checks = verify_witness(case.witnesses[0], q, m)  # first: it caps the length
    return checks + [ClaimCheck(
        "shared lower bound for both codes of the pair",
        _bounds_witnessed(q, m, lambda p: _ImplicitT(q, m, p)),
        f"d >= {bounds.theorem_bound(q, m, Parity.EVEN)}")]


def _defining_sets(q: int, m: int):
    """(T_0, T_1): the parameter summaries read only the defining sets,
    never g, so they build no field."""
    _s_of(q)
    return coset.build_T(q, m, Parity.EVEN), coset.build_T(q, m, Parity.ODD)


def verify_thm16(q: int, m: int) -> list[ClaimCheck]:
    """Odd-m parameter summary for the pair, the extension, and the
    even-like codes."""
    _require(m >= 3 and m % 2 == 1, f"need odd m >= 3, got m={m}")
    Ts = _defining_sets(q, m)
    n = Ts[0].n
    k0, k1 = (n - len(T) for T in Ts)
    d = bounds.theorem_bound(q, m, Parity.EVEN)
    return [
        ClaimCheck("pair has parameters [n, (n+1)/2]",
                   k0 == k1 == (n + 1) // 2, f"[{n}, {k0}]"),
        ClaimCheck("extension has parameters [n+1, (n+1)/2]",
                   k0 == (n + 1) // 2, f"[{n + 1}, {k0}]"),
        # an even-like code adjoins 0 to T, which drops k by one
        ClaimCheck("even-like codes have parameters [n, (n-1)/2]",
                   all(0 not in T and k - 1 == (n - 1) // 2
                       for T, k in zip(Ts, (k0, k1))), ""),
        ClaimCheck("distance bound q^((m-1)/2) + 2q - 1",
                   _bounds_witnessed(q, m, Ts.__getitem__), f"d >= {d}"),
    ]


def verify_thm18(q: int, m: int) -> list[ClaimCheck]:
    """Even-m parameter summary for the two LCD codes."""
    _require(m >= 2 and m % 2 == 0, f"need even m >= 2, got m={m}")
    Ts = _defining_sets(q, m)
    n = Ts[0].n
    k0, k1 = (n - len(T) for T in Ts)
    d0 = bounds.theorem_bound(q, m, Parity.EVEN)
    d1 = bounds.theorem_bound(q, m, Parity.ODD)
    return [
        ClaimCheck("LCD codes (defining-set level)",
                   all(coset.is_negation(T, T) for T in Ts), ""),
        ClaimCheck("parameters [n, (n+3)/2] and [n, (n-1)/2]",
                   k0 == (n + 3) // 2 and k1 == (n - 1) // 2,
                   f"k0={k0}, k1={k1}"),
        ClaimCheck("distance bounds per the case table",
                   _bounds_witnessed(q, m, Ts.__getitem__),
                   f"d0 >= {d0}, d1 >= {d1}"),
    ]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SUITES = {
    "lemma1": verify_lemma1,
    "lemma5": verify_lemma5,
    "lemma6": verify_lemma6,
    "thm2": verify_thm2,
    "thm3": verify_thm3,
    "thm16": verify_thm16,
    "thm18": verify_thm18,
}
SUITES.update({thm: (lambda q, m, _t=thm: verify_bound_theorem(_t, q, m))
               for thm in _THEOREM_DOMAINS})
SUITES.update({wid: (lambda q, m, _w=wid: verify_witness(_w, q, m))
               for case in bounds.BOUND_CASES for wid in case.witnesses
               if wid.startswith("lemma")})


def run_suite(claim_id: str, q: int, m: int,
              field: FieldSpec | None = None) -> list[ClaimCheck]:
    try:
        suite = SUITES[claim_id]
    except KeyError:
        raise DomainError(f"unknown claim id {claim_id!r}; "
                          f"known: {sorted(SUITES)}") from None
    if field is not None and claim_id in FIELD_SUITES:
        return suite(q, m, field=field)
    return suite(q, m)
