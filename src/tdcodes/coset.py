"""Integer-side machinery: q-cyclotomic cosets modulo n, the digit-parity
defining sets T_(q,m;0) / T_(q,m;1), the set transforms (negate,
complement, dual) used to derive codes, and the gcd and digit-weight
identities of the bound analysis.  A defining set is one read-only boolean
mask over Z_n; transforms, closure and coset leaders are array operations on
it, never loops over members.

Every code length here is n = q^m - 1 = 2^(sm) - 1 with q = 2^s, so
multiplying a residue by q mod n rotates its B = sm bits left by s
(``_times_q``).  The kernels walk the residues one block of ``_BLOCK`` at a
time (``_blocks``), so besides the masks they return they hold only
fixed-size scratch.  Residue blocks are unsigned and as narrow as that step
allows (``_residues``): uint32 below 2^32, else uint64.  Any other modulus
keeps the product x*q mod n.  Base-q digit sums for the Lemma 6 reflection
come from one table built digit by digit, wt(d q^j + i) = d + wt(i).
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


_BLOCK = 1 << 15  # residues per step of the blocked kernels


def _blocks(n: int):
    """(lo, hi) for consecutive blocks of [0, n), _BLOCK long but the last."""
    for lo in range(0, n, _BLOCK):
        yield lo, min(lo + _BLOCK, n)


def _overlap(a: np.ndarray, b: np.ndarray) -> int:
    """|a & b| for boolean arrays (or views) of one length, a block at a time."""
    return sum(int(np.count_nonzero(a[lo:hi] & b[lo:hi]))
               for lo, hi in _blocks(a.size))


def leader_mask(q: int, n: int) -> np.ndarray:
    """Whether each i in [0, n) is the least member of its q-cyclotomic
    coset: the orbits i, qi, q^2 i, ... mod n are walked all at once."""
    return _orbit_leaders(q, n, signed=False)


def _rotation(q: int, n: int) -> tuple[int, int] | None:
    """(B, s) when x -> x*q mod n rotates B-bit words left by s: n + 1 = 2^B
    and q = 2^e, so q = 2^s mod n with s = e mod B.  None otherwise."""
    B = n.bit_length()
    if n + 1 != 1 << B or q & (q - 1):
        return None
    return B, (q.bit_length() - 1) % B


def _residues(q: int, n: int, lo: int, hi: int) -> np.ndarray:
    """lo, lo + 1, ..., hi - 1 in the narrowest unsigned type ``_times_q``
    works in modulo n: uint32 when its values stay below 2^32, else uint64.
    A rotation needs only n < 2^32 (the bits its left shift pushes past the
    word are the ones the mask drops); a product needs (n - 1)(q mod n) < 2^32."""
    top = n if _rotation(q, n) else (n - 1) * (q % n)
    return np.arange(lo, hi, dtype=np.uint32 if top < 1 << 32 else np.uint64)


def _times_q(x: np.ndarray, q: int, n: int, tmp: np.ndarray) -> np.ndarray:
    """x*q mod n in place, for residues x held as ``_residues`` holds them
    (tmp is scratch of the same shape and type): the rotation
    ((x << s) & n) | (x >> (B - s)) when there is one, else the product."""
    if rot := _rotation(q, n):
        B, s = rot
        np.right_shift(x, B - s, out=tmp)
        x <<= s
        x &= n
        x |= tmp
        return x
    x *= q % n
    x %= n
    return x


def _order(q: int, n: int) -> int:
    """The least k >= 1 with q^k = 1 mod n (q a unit modulo n)."""
    if rot := _rotation(q, n):
        B, s = rot
        return B // math.gcd(B, s)
    k, x = 1, q % n
    while x != 1 % n:
        k, x = k + 1, x * q % n
    return k


def _orbit_leaders(q: int, n: int, signed: bool) -> np.ndarray:
    """Whether each i in [0, n) is the least of its orbit under
    multiplication by the powers of q, and with ``signed`` by their
    negatives too: block by block, the orbit minimum is kept over the order
    of q steps, and one more step brings the block back to its residues."""
    if math.gcd(n, q) != 1:
        raise ValueError("q must be invertible modulo n")
    order = _order(q, n)
    out = np.empty(n, dtype=bool)
    for lo, hi in _blocks(n):
        x = _residues(q, n, lo, hi)
        low, tmp = x.copy(), np.empty_like(x)
        for j in range(order):
            if j:
                np.minimum(low, _times_q(x, q, n, tmp), out=low)
            if signed:
                np.minimum(low, np.subtract(n, x, out=tmp), out=low)
        np.equal(low, _times_q(x, q, n, tmp), out=out[lo:hi])
        del x, low, tmp  # before the next block's are made
    return out


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

    @cached_property
    def first_unclosed(self) -> int | None:
        """The least member e with qe mod n outside the set, or None when
        the set is closed under multiplication by q: checked once per set,
        however many callers ask."""
        return _first_unclosed(self)

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
    q, n, mask = S.q, S.n, S.mask
    for lo, hi in _blocks(n):
        x = _residues(q, n, lo, hi)
        bad = mask[lo:hi] & ~mask[_times_q(x, q, n, np.empty_like(x))]
        if bad.any():
            return lo + int(bad.argmax())
    return None


def defining_set(n: int, q: int, elems) -> DefiningSet:
    """Normalize residues into [0, n) and verify coset closure."""
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(elems, dtype=np.int64) % n] = True
    S = DefiningSet(q, mask)
    if (e := S.first_unclosed) is not None:
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
    if s < 1 or q != 1 << s:
        raise ValueError(f"q must be a power of two >= 2, got {q}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    want = int(Parity(parity))
    # filled in place by doubling: adding 2^b to i < 2^b adds 2^(b mod s) to
    # digit b // s, which flips the digit-sum parity only when s divides b
    mask = np.empty(q ** m - 1, dtype=bool)
    mask[0] = want == 0
    for b in range(s * m):
        lo, hi = 1 << b, min(2 << b, mask.size)
        if b % s:
            mask[lo:hi] = mask[:hi - lo]
        else:
            np.logical_not(mask[:hi - lo], out=mask[lo:hi])
    mask[0] = False
    return DefiningSet(q, mask)


# ---------------------------------------------------------------------------
# Set transforms
# ---------------------------------------------------------------------------

def negate_set(S: DefiningSet) -> DefiningSet:
    """Elementwise -x mod n; preserves coset closure."""
    mask = np.empty_like(S.mask)
    mask[0] = S.mask[0]
    mask[1:] = S.mask[:0:-1]
    return DefiningSet(S.q, mask)


def is_negation(S1: DefiningSet, S2: DefiningSet) -> bool:
    """Whether S2 = -S1, read off a reversed view of S1's mask: -S1 and S2
    are equal when both have the size of their intersection."""
    if S1.n != S2.n or S1.q != S2.q:
        return False
    a, b = S1.mask, S2.mask
    both = int(a[0] & b[0]) + _overlap(a[:0:-1], b[1:])
    return len(S1) == len(S2) == both


def disjoint_cover(S1: DefiningSet, S2: DefiningSet) -> bool:
    """Whether S1 and S2 are disjoint and every nonzero residue is in one:
    disjoint sets cover Z_n minus {0} when their sizes, less 1 if 0 is in
    one, add up to n - 1."""
    if S1.n != S2.n or _overlap(S1.mask, S2.mask):
        return False
    return len(S1) + len(S2) - int(S1.mask[0] | S2.mask[0]) == S1.n - 1


def coset_count(S: DefiningSet) -> int:
    """The number of q-cyclotomic cosets in S: its members that lead one."""
    lead = leader_mask(S.q, S.n)
    lead &= S.mask
    return int(np.count_nonzero(lead))


def complement_set(S: DefiningSet) -> DefiningSet:
    return DefiningSet(S.q, ~S.mask)


def dual_defining_set(S: DefiningSet) -> DefiningSet:
    """Z_n minus (-S): the defining set of the dual code."""
    return complement_set(negate_set(S))


def splitting_check(S1: DefiningSet, S2: DefiningSet) -> CheckResult:
    """Whether (S1, S2, -1) splits Z_n: disjoint cover of Z_n - {0} by
    coset-closed sets swapped by negation, the unit v = n - 1."""
    if S1.n != S2.n or S1.q != S2.q:
        return CheckResult(False, "sets live on different (n, q)")
    n = S1.n
    if _overlap(S1.mask, S2.mask):
        return CheckResult(False, "S1 and S2 intersect")
    if len(S1) + len(S2) != n - 1 or S1.mask[0] or S2.mask[0]:
        return CheckResult(False, "S1 and S2 do not cover Z_n minus {0}")
    for S, name in ((S1, "S1"), (S2, "S2")):
        if S.first_unclosed is not None:
            return CheckResult(False, f"{name} is not a union of cosets")
    # -1 permutes Z_n minus {0}, which S1 and S2 partition, so -S1 = S2
    # gives -S2 = S1
    if not is_negation(S1, S2):
        return CheckResult(False, f"v*S1 != S2 for v={n - 1}")
    return CheckResult(True, f"(S1, S2, {n - 1}) splits Z_{n}")


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


def _digit_sums(q: int, top: int, dtype) -> np.ndarray:
    """wt_q(i) for 0 <= i <= top, one base-q digit per broadcast:
    wt(d q^j + i) = d + wt(i) for i < q^j, the leading digit d running
    only as far as top needs."""
    w = np.zeros(1, dtype=dtype)
    while w.size <= top:
        digits = min(q, -(-(top + 1) // w.size))
        w = (np.arange(digits, dtype=dtype)[:, None] + w).ravel()
    return w[:top + 1]


def _reflects(q: int, m: int, top: int, total: int) -> bool:
    """Whether wt_q(top - i) + wt_q(i) = total for every 0 <= i <= top < q^m,
    read off one digit-sum table and its reverse."""
    if not 0 <= top < q ** m:
        raise ValueError(f"need 0 <= top < q^m, got top={top}")
    w = _digit_sums(q, top, np.min_scalar_type(2 * (q - 1) * m))
    return all(bool((w[lo:hi] + w[::-1][lo:hi] == total).all())
               for lo, hi in _blocks(w.size))


def lemma6_check(q: int, m: int, A: int, h: int) -> bool:
    """Digit-weight reflection: wt_q(A q^h - 1 - i) = (q-1)h + A - 1 - wt_q(i)
    for every 0 <= i <= A q^h - 1."""
    if not 2 <= A <= q - 1:
        raise ValueError(f"need 2 <= A <= q-1, got A={A}")
    if not 0 <= h <= m - 1:
        raise ValueError(f"need 0 <= h <= m-1, got h={h}")
    return _reflects(q, m, A * q ** h - 1, (q - 1) * h + A - 1)
