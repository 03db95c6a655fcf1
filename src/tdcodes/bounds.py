"""BCH-bound engine: arithmetic-progression witnesses inside defining sets,
the named lemma witnesses for the digit-parity sets, closed-form minimum
distance lower bounds, and an exhaustive best-progression search.

A progression {(b + a*i) mod n : i_lo <= i <= i_hi} with gcd(a, n) = 1 that
lies inside the defining set certifies minimum distance >= its length + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tdcodes import coset
from tdcodes.coset import DefiningSet, Parity
from tdcodes.gf import _prime_factors


class DomainError(ValueError):
    """The requested (q, m) lies outside a lemma's or theorem's domain."""


@dataclass(frozen=True)
class APWitness:
    b: int
    a: int
    i_lo: int
    i_hi: int

    def __post_init__(self):
        if self.i_lo > self.i_hi:
            raise ValueError(f"empty progression range [{self.i_lo}, {self.i_hi}]")

    @property
    def length(self) -> int:
        return self.i_hi - self.i_lo + 1

    @property
    def delta(self) -> int:
        """The implied distance bound: progression length + 1."""
        return self.length + 1


@dataclass(frozen=True)
class BoundReport:
    delta: int
    witness: APWitness | None
    source: str
    partial: bool = False


def negate_witness(w: APWitness, n: int) -> APWitness:
    """Witness whose members are the negations of w's members."""
    return APWitness((n - w.b) % n, w.a, -w.i_hi, -w.i_lo)


def ap_in_set(T: DefiningSet, w: APWitness) -> bool:
    """Whether every progression member lies in T (a DefiningSet, or any
    set of residues modulo ``T.n`` that supports ``in``)."""
    if math.gcd(w.a, T.n) != 1:
        raise ValueError(f"common difference {w.a} is not coprime to {T.n}")
    return all((w.b + w.a * i) % T.n in T for i in range(w.i_lo, w.i_hi + 1))


# ---------------------------------------------------------------------------
# Named witnesses for the digit-parity sets
# ---------------------------------------------------------------------------

def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


def _check_q(q: int):
    _require(q >= 4 and q & (q - 1) == 0,
             f"q must be a power of two >= 4, got {q}")


def _w_lemma7(q: int, m: int):
    _check_q(q)
    _require(m >= 3 and m % 2 == 1, f"lemma7 needs odd m >= 3, got m={m}")
    a = q ** ((m - 1) // 2) + 1
    return APWitness(2 * q ** (m - 1), a, -(q - 1), q ** ((m - 1) // 2) + q - 2), \
        Parity.EVEN


def _w_lemma9(q: int, m: int):
    _check_q(q)
    _require(m % 4 == 2 and m >= 6, f"lemma9 needs m = 2 mod 4, m >= 6, got m={m}")
    a = q ** ((m - 2) // 2) + 1
    return APWitness(q ** (m - 2), a, -(q - 1), q ** ((m - 2) // 2) + q - 2), \
        Parity.ODD


def _w_lemma10(q: int, m: int):
    _check_q(q)
    _require(m % 4 == 2 and m >= 10, f"lemma10 needs m = 2 mod 4, m >= 10, got m={m}")
    a = q ** ((m - 2) // 2) + 1
    return APWitness(q ** (m - 1) + q ** (m - 2), a,
                     -(q - 1), q ** ((m - 2) // 2) + q - 2), Parity.EVEN


def _w_lemma11(q: int, m: int):
    _check_q(q)
    _require(m == 6, f"lemma11 needs m = 6, got m={m}")
    a = (q ** 6 - 1) // (q - 1) - q ** 4 - 1
    return APWitness(q ** 5 + q, a, -(q * q - q), q * q - q), Parity.EVEN


def _w_lemma13(q: int, m: int):
    _check_q(q)
    _require(m % 4 == 0 and m >= 4, f"lemma13 needs m = 0 mod 4, got m={m}")
    a = ((q - 2) // 2) * ((q ** m - 1) // (q - 1)) \
        + (q ** ((m - 2) // 2) - 1) // (q - 1)
    return APWitness(q ** (m - 1), a, 1, q ** ((m - 2) // 2)), Parity.EVEN


def _w_lemma14(q: int, m: int):
    _check_q(q)
    _require(m % 4 == 0 and m >= 4, f"lemma14 needs m = 0 mod 4, got m={m}")
    a = (q ** m - 1) // (q - 1) - 2 * ((q ** ((m + 2) // 2) - 1) // (q - 1))
    return APWitness(0, a, 1, q ** ((m - 2) // 2)), Parity.ODD


def _w_thm12_m2(q: int, m: int, parity: Parity):
    _check_q(q)
    _require(m == 2, f"the m=2 progression needs m = 2, got m={m}")
    b = 2 * q if parity is Parity.EVEN else q
    return APWitness(b, 2, 0, q // 2 - 1), parity


WITNESS_BUILDERS = {
    "lemma7": _w_lemma7,
    "lemma9": _w_lemma9,
    "lemma10": _w_lemma10,
    "lemma11": _w_lemma11,
    "lemma13": _w_lemma13,
    "lemma14": _w_lemma14,
    "thm12m2p0": lambda q, m: _w_thm12_m2(q, m, Parity.EVEN),
    "thm12m2p1": lambda q, m: _w_thm12_m2(q, m, Parity.ODD),
}


def lemma_witness(lemma_id: str, q: int, m: int) -> tuple[APWitness, Parity]:
    """The named progression witness and the parity of its target set."""
    try:
        builder = WITNESS_BUILDERS[lemma_id]
    except KeyError:
        raise DomainError(f"unknown witness id {lemma_id!r}; "
                          f"known: {sorted(WITNESS_BUILDERS)}") from None
    return builder(q, m)


@dataclass(frozen=True)
class BoundCase:
    """One class of m: its theorem, the witnesses the theorem's suite checks
    (in claim order), and per parity the strongest witness and the
    closed-form bound d(q, m)."""

    theorem: str
    covers: Callable[[int], bool]
    witnesses: tuple[str, ...]
    witness: tuple[str, str]
    bound: tuple[Callable[[int, int], int], Callable[[int, int], int]]


BOUND_CASES = (
    # odd m: the lemma7 witness, negated, lies in the mirror set T_1
    BoundCase("thm8", lambda m: m % 2 == 1 and m >= 3, ("lemma7",), ("lemma7",) * 2,
              (lambda q, m: q ** ((m - 1) // 2) + 2 * q - 1,) * 2),
    BoundCase("thm12", lambda m: m == 2, ("thm12m2p0", "thm12m2p1"),
              ("thm12m2p0", "thm12m2p1"), (lambda q, m: (q + 2) // 2,) * 2),
    BoundCase("thm12", lambda m: m == 6, ("lemma9", "lemma11"), ("lemma11", "lemma9"),
              (lambda q, m: 2 * q * q - 2 * q + 2, lambda q, m: q * q + 2 * q - 1)),
    BoundCase("thm12", lambda m: m % 4 == 2 and m >= 10, ("lemma9", "lemma10"),
              ("lemma10", "lemma9"),
              (lambda q, m: q ** ((m - 2) // 2) + 2 * q - 1,) * 2),
    BoundCase("thm15", lambda m: m % 4 == 0 and m >= 4, ("lemma13", "lemma14"),
              ("lemma13", "lemma14"), (lambda q, m: q ** ((m - 2) // 2) + 1,) * 2),
)


def bound_case(m: int) -> BoundCase:
    """The row of BOUND_CASES that covers m."""
    case = next((c for c in BOUND_CASES if c.covers(m)), None)
    _require(case is not None, f"m must be at least 2, got {m}")
    return case


def theorem_bound(q: int, m: int, parity: Parity | int) -> int:
    """Closed-form lower bound on the minimum distance of the digit-parity
    code of that parity."""
    if q == 2:
        raise DomainError("the binary family is out of scope (q >= 4 required)")
    _check_q(q)
    return bound_case(m).bound[Parity(parity)](q, m)


# ---------------------------------------------------------------------------
# Exhaustive best-progression search
# ---------------------------------------------------------------------------

def _longest_run(t: int, n: int, a: int, floor: int) -> tuple[int, int]:
    """The length L of the longest progression b, b + a, ..., b + (L-1)a
    inside a set of residues modulo n held as the bitset t (bit b set when
    b is in the set; not every residue is), and the least b starting one;
    (0, 0) when L < floor, found without measuring L.

    S_k, the b starting a run of at least 2^k, doubles as
    S_{k+1} = S_k & rot(S_k, 2^k a), where rot(x, d) holds the b with
    b + d in x.  Only the S_k with 2^k <= floor are built before the
    starts of runs of at least floor, P_floor, are put together by binary
    decomposition (P_{L + 2^k} = P_L & rot(S_k, L a)); the doubling goes on
    only when P_floor is nonempty, and binary lifting then finds L.
    """
    def starts(x: int, y: int, d: int) -> int:
        """x & rot(y, d); x < 2^n truncates the wrapped shift."""
        d %= n
        return x & ((y >> d) | (y << (n - d)))

    runs = [t]
    while 1 << len(runs) <= floor:
        runs.append(starts(runs[-1], runs[-1], a << (len(runs) - 1)))
        if not runs[-1]:
            return 0, 0
    hits, length = runs[-1], 1 << (len(runs) - 1)
    for k in reversed(range(len(runs) - 1)):
        if floor >> k & 1:
            hits, length = starts(hits, runs[k], length * a), length + (1 << k)
    if not hits:
        return 0, 0
    while runs[-1]:
        runs.append(starts(runs[-1], runs[-1], a << (len(runs) - 1)))
    for k in reversed(range(len(runs) - 1)):
        if longer := starts(hits, runs[k], length * a):
            hits, length = longer, length + (1 << k)
    return length, (hits & -hits).bit_length() - 1


def _unit_mask(n: int) -> np.ndarray:
    """Whether each i in [0, n) is a unit modulo n: the multiples of each
    prime factor of n are sieved out."""
    unit = np.ones(n, dtype=bool)
    for p in _prime_factors(n):
        unit[::p] = False
    return unit


def _kth_true(mask: np.ndarray, k: int) -> int:
    """The index of the k-th True of mask (from 0; mask has more than k),
    counted a block at a time."""
    for lo, hi in coset._blocks(mask.size):
        found = int(np.count_nonzero(mask[lo:hi]))
        if k < found:
            return lo + int(np.flatnonzero(mask[lo:hi])[k])
        k -= found


def bch_search(T: DefiningSet, budget: int | None = None) -> BoundReport:
    """Maximum progression-based bound over all (a, b).

    T is held as one bitset, and each unit a is tested with shift-AND
    doubling on it (``_longest_run``): only a unit that can beat the best
    run so far is measured.  T is closed under multiplication by q, and
    the progressions of -a are those of a reversed, so a, -a and their
    q-multiples have the same longest run: only the least member of each
    such orbit is scanned, and it is the one a scan of every unit would
    pick.  The canonical witness takes the largest bound, then the
    smallest a, then the smallest b.  ``budget`` caps the number of units
    counted, scanned or not; a truncated search is flagged partial.
    """
    n = T.n
    if budget is None and n > 1 << 16:
        raise ValueError("exhaustive search needs n <= 2^16; pass a budget")
    if T.first_unclosed is not None:
        raise ValueError("defining set is not closed under multiplication by q")
    if len(T) == 0:
        return BoundReport(1, None, "exhaustive search")
    if T.mask.all():
        return BoundReport(n, APWitness(0, 1, 0, n - 2), "exhaustive search")
    units = _unit_mask(n)
    partial = budget is not None and budget < np.count_nonzero(units)
    if partial:
        units[_kth_true(units, max(budget, 0)):] = False
    units &= coset._orbit_leaders(T.q, n, signed=True)
    t = int.from_bytes(np.packbits(T.mask, bitorder="little").tobytes(), "little")
    best_len = 0
    best_a = best_b = 0
    for a in np.flatnonzero(units).tolist():
        length, b = _longest_run(t, n, a, best_len + 1)
        if length:
            best_len, best_a, best_b = length, a, b
    if best_len == 0:
        return BoundReport(1, None, "exhaustive search", partial)
    witness = APWitness(best_b, best_a, 0, best_len - 1)
    return BoundReport(best_len + 1, witness, "exhaustive search", partial)


def lemma_bound_report(q: int, m: int, parity: Parity | int) -> BoundReport:
    """Witness-backed report for the strongest named progression, negating
    the odd-m witness when the target parity asks for the mirror set."""
    parity = Parity(parity)
    wid = bound_case(m).witness[parity]
    witness, target = lemma_witness(wid, q, m)
    source = wid
    if target is not parity:
        witness = negate_witness(witness, q ** m - 1)
        source = f"{wid} (negated)"
    return BoundReport(witness.delta, witness, source)


def report_to_json(r: BoundReport) -> dict:
    data = {
        "delta": r.delta,
        "b": r.witness.b if r.witness else None,
        "a": r.witness.a if r.witness else None,
        "i_lo": r.witness.i_lo if r.witness else None,
        "i_hi": r.witness.i_hi if r.witness else None,
        "source": r.source,
    }
    if r.partial:
        data["partial"] = True
    return data
