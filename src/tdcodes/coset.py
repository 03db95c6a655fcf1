"""Integer-side machinery: q-cyclotomic cosets modulo n, the digit-parity
defining sets T_(q,m;0) / T_(q,m;1), the set transforms (negate, scale,
complement, dual) used to derive codes, and the gcd and digit-weight
identities of the bound analysis.  A defining set is one read-only boolean
mask over Z_n; transforms, closure and coset leaders are array operations on
it, never loops over members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np


class Parity(IntEnum):
    """Digit-weight parity selecting a defining set: EVEN -> T_0, ODD -> T_1."""

    EVEN = 0
    ODD = 1


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus a human-readable reason for failures."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _parity_mask(s: int, m: int) -> int:
    # bit j*s of i is the low bit of digit j, so the digit-sum parity of i
    # is the popcount parity of i & mask
    mask = 0
    for j in range(m):
        mask |= 1 << (j * s)
    return mask


def cyclotomic_coset(i: int, q: int, n: int) -> tuple[int, ...]:
    """The q-cyclotomic coset of i modulo n, sorted ascending."""
    if math.gcd(n, q) != 1:
        raise ValueError("q must be invertible modulo n")
    i %= n
    orbit = [i]
    j = i * q % n
    while j != i:
        orbit.append(j)
        j = j * q % n
    return tuple(sorted(orbit))


def leader_mask(q: int, n: int) -> np.ndarray:
    """Whether each i in [0, n) is the least member of its q-cyclotomic
    coset: the orbits i, qi, q^2 i, ... mod n are walked all at once."""
    return _orbit_leaders(q, n, signed=False)


def _orbit_leaders(q: int, n: int, signed: bool) -> np.ndarray:
    """Whether each i in [0, n) is the least of its orbit under
    multiplication by the powers of q, and with ``signed`` by their
    negatives too."""
    if math.gcd(n, q) != 1:
        raise ValueError("q must be invertible modulo n")
    idx = np.arange(n, dtype=np.int64)
    lead, x = np.ones(n, dtype=bool), idx
    while True:
        if signed:
            lead &= n - x >= idx
        x = x * q % n
        if np.array_equal(x, idx):
            return lead
        lead &= x >= idx


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """A set of residues modulo n, held as a read-only boolean mask over Z_n
    (n = mask.size; the mask is made read-only in place).  Defining sets are
    closed under multiplication by q modulo n."""

    q: int
    mask: np.ndarray

    def __post_init__(self):
        self.mask.flags.writeable = False

    @property
    def n(self) -> int:
        return self.mask.size

    @cached_property
    def elems(self) -> tuple[int, ...]:
        """The members in ascending order, derived from the mask."""
        return tuple(np.flatnonzero(self.mask).tolist())

    def __contains__(self, i: int) -> bool:
        return bool(self.mask[i % self.n])

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefiningSet):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash((self.q, self.mask.tobytes()))


def _first_unclosed(S: DefiningSet) -> int | None:
    """The least member e of S with qe mod n outside S, or None when S is
    closed under multiplication by q."""
    bad = S.mask & ~S.mask[np.arange(S.n, dtype=np.int64) * S.q % S.n]
    e = int(bad.argmax())
    return e if bad[e] else None


def defining_set(n: int, q: int, elems, validate: bool = True) -> DefiningSet:
    """Normalize residues into [0, n) and optionally verify coset closure."""
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(elems, dtype=np.int64) % n] = True
    S = DefiningSet(q, mask)
    if validate and (e := _first_unclosed(S)) is not None:
        raise ValueError(
            f"set is not closed under multiplication by {q} mod {n}: "
            f"{e} is in, {e * q % n} is not")
    return S


def build_T(q: int, m: int, parity: Parity | int) -> DefiningSet:
    """Residues 1..n-1 whose base-q digit sum has the requested parity.

    Closed under multiplication by q because the digit sum is invariant
    under the cyclic digit shift i -> qi mod n.
    """
    s = q.bit_length() - 1
    if q != 1 << s or s < 1:
        raise ValueError(f"q must be a power of two >= 2, got {q}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    want = int(Parity(parity))
    x = np.arange(q ** m - 1, dtype=np.int64)
    x &= _parity_mask(s, m)
    mask = (np.bitwise_count(x) & 1) == want
    mask[0] = False
    return DefiningSet(q, mask)


# ---------------------------------------------------------------------------
# Set transforms
# ---------------------------------------------------------------------------

def negate_set(S: DefiningSet) -> DefiningSet:
    """Elementwise -x mod n; preserves coset closure."""
    return DefiningSet(S.q, np.roll(S.mask[::-1], 1))


def scale_set(v: int, S: DefiningSet) -> DefiningSet:
    """Elementwise v*x mod n (v need not be a unit); preserves coset closure."""
    mask = np.zeros(S.n, dtype=bool)
    mask[np.flatnonzero(S.mask) * (v % S.n) % S.n] = True
    return DefiningSet(S.q, mask)


def complement_set(S: DefiningSet) -> DefiningSet:
    return DefiningSet(S.q, ~S.mask)


def dual_defining_set(S: DefiningSet) -> DefiningSet:
    """Z_n minus (-S): the defining set of the dual code."""
    return complement_set(negate_set(S))


def splitting_check(S1: DefiningSet, S2: DefiningSet, v: int) -> CheckResult:
    """Whether (S1, S2, v) splits Z_n: disjoint cover of Z_n - {0} by
    coset-closed sets swapped by the unit v."""
    if S1.n != S2.n or S1.q != S2.q:
        return CheckResult(False, "sets live on different (n, q)")
    n = S1.n
    if (S1.mask & S2.mask).any():
        return CheckResult(False, "S1 and S2 intersect")
    if len(S1) + len(S2) != n - 1 or S1.mask[0] or S2.mask[0]:
        return CheckResult(False, "S1 and S2 do not cover Z_n minus {0}")
    for S, name in ((S1, "S1"), (S2, "S2")):
        if _first_unclosed(S) is not None:
            return CheckResult(False, f"{name} is not a union of cosets")
    if math.gcd(v, n) != 1:
        return CheckResult(False, f"v={v} is not a unit modulo {n}")
    # v permutes Z_n minus {0}, which S1 and S2 partition, so v*S1 = S2
    # gives v*S2 = S1
    if scale_set(v, S1) != S2:
        return CheckResult(False, f"v*S1 != S2 for v={v}")
    return CheckResult(True, f"(S1, S2, {v}) splits Z_{n}")


# ---------------------------------------------------------------------------
# Arithmetic identities used by the bound analysis
# ---------------------------------------------------------------------------

def gcd_lemma5_check(q: int, ell: int, m: int) -> bool:
    """gcd(q^m - 1, q^ell + 1) = 1 whenever m / gcd(ell, m) is odd."""
    if q < 2 or q & (q - 1):
        raise ValueError(f"q must be a power of two, got {q}")
    if m < 2 or ell < 1:
        raise ValueError("need m >= 2 and ell >= 1")
    if (m // math.gcd(ell, m)) % 2 == 0:
        raise ValueError(
            f"m/gcd(ell, m) = {m // math.gcd(ell, m)} is even; "
            "the identity is not claimed here")
    return math.gcd(q ** m - 1, q ** ell + 1) == 1


def _reflects(q: int, m: int, top: int, total: int) -> bool:
    """Whether wt_q(top - i) + wt_q(i) = total for every 0 <= i <= top, the
    m base-q digits of i and top - i taken off both arrays at once."""
    i = np.arange(top + 1, dtype=np.int64)
    x, sums = np.stack([i, top - i]), 0
    for _ in range(m):
        x, digit = np.divmod(x, q)
        sums = sums + digit[0] + digit[1]
    return bool((sums == total).all())


def lemma6_check(q: int, m: int, A: int, h: int) -> bool:
    """Digit-weight reflection: wt_q(A q^h - 1 - i) = (q-1)h + A - 1 - wt_q(i)
    for every 0 <= i <= A q^h - 1."""
    if not 2 <= A <= q - 1:
        raise ValueError(f"need 2 <= A <= q-1, got A={A}")
    if not 0 <= h <= m - 1:
        raise ValueError(f"need 0 <= h <= m-1, got h={h}")
    return _reflects(q, m, A * q ** h - 1, (q - 1) * h + A - 1)
