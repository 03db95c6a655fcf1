"""Cyclic codes over GF(q) from defining sets: minimal and generator
polynomials, dimensions, derived codes (dual, complement, even-like,
extended), generator matrices and their row reduction on bit-sliced words
for the distance engine, and the structure checks (LCD, self-orthogonal,
self-dual extension, hull dimension).  These read g(x) alone, never a
matrix: the Gram matrix of the rows x^j g(x) off the autocorrelation of g,
and the hull off gcd(g, g*) with the reciprocal g*.

Code equality is equality of (field, defining set), and derived codes
(dual, complement, even-like) transform the defining set's mask.  The
generator polynomial, one minimal polynomial per coset leader in T, is
computed lazily since set-level derivations never need it.  All minimal
polynomials step together on the field's log/exp tables (the scalar
``minimal_polynomial`` serves fields too large for tables), and a
balanced product tree folds them on the batched multiply of
:mod:`tdcodes.polys`, an exact bit-plane FFT for long operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from tdcodes import coset, packed, polys
from tdcodes.coset import DefiningSet, cyclotomic_coset, negate_set, complement_set, \
    dual_defining_set
from tdcodes.gf import FieldError, FieldSpec


def minimal_polynomial(field: FieldSpec, i: int) -> tuple[int, ...]:
    """Minimal polynomial of beta^i over GF(q): the product of (x - beta^j)
    over the cyclotomic coset of i, projected back to base coefficients,
    one scalar field operation at a time (the path of fields without
    tables)."""
    orbit = cyclotomic_coset(i, field.q, field.n)
    acc = [1]  # extension-field coefficients, little-endian
    for j in orbit:
        root = field.beta_power(j)
        nxt = [0] * (len(acc) + 1)
        for t, c in enumerate(acc):
            if c:
                nxt[t] ^= field.ext_mul(root, c)
                nxt[t + 1] ^= c
        acc = nxt
    return tuple(field.project_base(c) for c in acc)


def _minimal_polynomials(field: FieldSpec, leaders: np.ndarray):
    """The minimal polynomials of beta^e for the coset leaders e, as uint8
    rows of m + 1 base coefficients (zero above each degree) and their
    degrees.  With the field tables, all rows step at once: step t
    multiplies each row by x + beta^(e q^t) by log/exp gathers, until
    e q^(t+1) = e closes the row's coset."""
    tables = field._ext_tables
    if tables is None:
        mins = [minimal_polynomial(field, e) for e in leaders.tolist()]
        rows = np.zeros((leaders.size, field.m + 1), dtype=np.uint8)
        for row, p in zip(rows, mins):
            row[:len(p)] = p
        return rows, np.array([len(p) - 1 for p in mins], dtype=np.intp)
    exp, log = tables
    n, q = field.n, field.q
    acc = np.zeros((leaders.size, field.m + 1), dtype=np.int32)  # extension coefficients
    acc[:, 0] = 1
    degrees = np.zeros(leaders.size, dtype=np.intp)
    r = leaders.astype(np.int64)
    live = np.ones(leaders.size, dtype=bool)
    while live.any():
        step = np.where(acc != 0, exp.take((log.take(acc) + r[:, None]) % n), 0)
        step[:, 1:] ^= acc[:, :-1]
        acc = np.where(live[:, None], step, acc)
        degrees += live
        r = r * q % n
        live &= r != leaders
    if (acc >= q).any():
        raise FieldError("a minimal polynomial coefficient is not in the base subfield")
    return acc.astype(np.uint8), degrees


def generator_polynomial(field: FieldSpec, T: DefiningSet) -> tuple[int, ...]:
    """Product of the minimal polynomials of the cosets in T, one per coset
    leader, folded by a balanced product tree."""
    if coset._first_unclosed(T) is not None:
        raise ValueError("defining set is not closed under multiplication by q")
    leaders = np.flatnonzero(T.mask & coset.leader_mask(field.q, field.n))
    g = polys._fold(field, *_minimal_polynomials(field, leaders))
    assert g.size - 1 == len(T)
    return tuple(g.tolist())


@dataclass(frozen=True)
class CyclicCode:
    """A q-ary cyclic code of length n = q^m - 1 given by its defining set."""

    field: FieldSpec
    T: DefiningSet

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def k(self) -> int:
        return self.n - len(self.T)

    @cached_property
    def generator(self) -> tuple[int, ...]:
        return generator_polynomial(self.field, self.T)


def code_from_T(field: FieldSpec, T: DefiningSet) -> CyclicCode:
    if T.n != field.n or T.q != field.q:
        raise ValueError(f"defining set (n={T.n}, q={T.q}) does not match the "
                         f"field (n={field.n}, q={field.q})")
    if coset._first_unclosed(T) is not None:
        raise ValueError("defining set is not closed under multiplication by q")
    return CyclicCode(field, T)


def even_like(code: CyclicCode) -> CyclicCode:
    """Adjoin 0 to the defining set, dropping the dimension by one.  When
    the code's generator is already known, the even-like generator is
    (x + 1) g(x), so it is set from g instead of folded again."""
    if 0 in code.T:
        raise ValueError("0 is already in the defining set")
    mask = code.T.mask.copy()
    mask[0] = True
    out = CyclicCode(code.field, DefiningSet(code.q, mask))
    if "generator" in vars(code):
        vars(out)["generator"] = polys.mul(code.field, (1, 1), code.generator)
    return out


def dual_code(code: CyclicCode) -> CyclicCode:
    return CyclicCode(code.field, dual_defining_set(code.T))


def complement_code(code: CyclicCode) -> CyclicCode:
    return CyclicCode(code.field, complement_set(code.T))


def is_lcd(code: CyclicCode) -> bool:
    """LCD iff the defining set is fixed by negation."""
    return negate_set(code.T) == code.T


# ---------------------------------------------------------------------------
# Generator matrices over GF(q), stored as uint8 arrays of base reprs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorMatrix:
    field: FieldSpec
    array: np.ndarray

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


def generator_matrix(code: CyclicCode) -> GeneratorMatrix:
    """Rows are the coefficient vectors of x^j g(x), j = 0..k-1."""
    g = np.asarray(code.generator, dtype=np.uint8)
    k, n = code.k, code.n
    arr = np.zeros((k, n), dtype=np.uint8)
    for j in range(k):
        arr[j, j:j + g.size] = g
    arr.flags.writeable = False
    return GeneratorMatrix(code.field, arr)


def extend_code(code: CyclicCode) -> GeneratorMatrix:
    """Append the overall-sum coordinate (characteristic 2: the XOR of a row)."""
    mat = generator_matrix(code)
    tail = np.bitwise_xor.reduce(mat.array, axis=1)[:, None]
    arr = np.concatenate([mat.array, tail], axis=1)
    arr.flags.writeable = False
    return GeneratorMatrix(code.field, arr)


_BLOCK_WORDS = 1 << 15  # words a row update touches per numpy call, to stay in cache


def row_reduce(field: FieldSpec, stack: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Reduced row echelon forms over GF(q) of a stack of B matrices with k
    rows each, all in one column sweep; returns (rrefs, pivot columns of
    each matrix).

    The stack is bit-sliced (:mod:`tdcodes.packed`), (s, W, k, B), and so
    are the rrefs; a lone matrix is a stack with B = 1.  At each column
    every matrix reads its column off one byte per plane and row, and takes
    as pivot the first row not yet used that is nonzero there.  Each matrix
    then XORs into every row, from the pivot's word on, the multiple of its
    pivot row that the row's entry selects; the pivot row itself takes
    1 + 1/lead, which normalises it.  The rows not yet used are zero left
    of the column, so the earlier words stay as they are.  A matrix with no
    pivot in the column picks a spare zero row k instead, which changes
    nothing.  The rref is unique, so the rows need no swaps: they are put
    in pivot order once, at the end, with the unused rows, which are zero,
    last."""
    s, nwords, k, nmat = stack.shape
    rows = np.zeros((s, nwords, k + 1, nmat), dtype=packed.WORD)
    rows[:, :, :k] = stack
    octets = rows.view(np.uint8)       # byte j of lane b's word at [..., 8b + j]
    plane_bits = np.arange(s, dtype=np.uint8)[:, None, None]
    masks = packed.scalar_masks(field)
    mul, inv = field.np_mul_table, field.np_inv_table
    lanes = np.arange(nmat)
    offsets = field.q * lanes          # lane b's multiples in the flat table
    span = max(1, _BLOCK_WORDS // (s * (k + 1) * nmat))
    free = np.ones((k + 1, nmat), dtype=bool)  # row k: the spare
    cand = np.ones((k + 1, nmat), dtype=bool)  # the spare stays a candidate
    cols: list[int] = []               # per step: the column and each
    used: list[np.ndarray] = []        # matrix's pivot row (k for none)
    left = k * nmat
    for c in range(64 * nwords):
        if not left:
            break
        w, b = divmod(c, 64)
        octet = octets[:, w, :, b // 8::8] >> (b % 8)
        octet &= 1
        col = np.bitwise_or.reduce(octet << plane_bits, axis=0)
        np.logical_and(col[:k], free[:k], out=cand[:k])
        p = cand.argmax(axis=0)
        found = int(np.count_nonzero(p < k))
        if not found:
            continue
        free[p, lanes] = False
        left -= found
        cols.append(c)
        used.append(p)
        lead_inv = inv.take(col[p, lanes])
        pick = mul[lead_inv].take(col + offsets)
        pick[p, lanes] = lead_inv ^ 1
        table = packed.multiples(masks, rows[:, w:, p, lanes]).reshape(s, nwords - w, -1)
        pick = pick + offsets
        for lo in range(w, nwords, span):  # a cache-sized block of words at a time
            rows[:, lo:lo + span] ^= table[:, lo - w:lo - w + span].take(pick, axis=-1)
    # sort key of each row: the step that made it a pivot, or past the last
    # step for an unused row
    nsteps = len(cols)
    used_at = np.array(used, dtype=np.intp).reshape(nsteps, nmat)
    key = nsteps + np.arange(k)[:, None].repeat(nmat, axis=1)
    mat, step = np.nonzero((used_at < k).T)   # by matrix, then by step
    key[used_at[step, mat], mat] = step
    cols = np.array(cols, dtype=np.intp)
    ranks = np.bincount(mat, minlength=nmat)
    pivots = [cols[at].tolist() for at in np.split(step, np.cumsum(ranks)[:-1])]
    return rows[:, :, key.argsort(axis=0), lanes], pivots


def _gram_band(code: CyclicCode) -> np.ndarray:
    """(r(0), ..., r(k-1)), r(d) = sum_u g_u g_(u+d).

    The rows x^j g(x), j < k, never wrap around, so their Gram matrix is
    Toeplitz with entries r(|i - j|).  r(d) is the coefficient of
    x^(deg g + d) in g(x) * x^(deg g) g(1/x); lags past deg g are zero."""
    g = code.generator
    lags = polys.mul(code.field, g, g[::-1])[len(g) - 1:][:code.k]
    band = np.zeros(code.k, dtype=np.uint8)
    band[:len(lags)] = lags
    return band


def is_self_orthogonal(code: CyclicCode) -> bool:
    return not _gram_band(code).any()


def extension_is_self_dual(code: CyclicCode) -> bool:
    """Whether the code extended by the overall-sum coordinate is self-dual:
    each extended row gains the coordinate g(1), which adds g(1)^2 to every
    Gram entry."""
    if 2 * code.k != code.n + 1:
        return False
    g1 = int(np.bitwise_xor.reduce(code.generator))
    return bool((_gram_band(code) == code.field.base_mul(g1, g1)).all())


def hull_dimension(code: CyclicCode) -> int:
    """dim(C intersect C-dual) = |T minus -T| = deg g - deg gcd(g, g*): the
    reciprocal g*(x) = x^(deg g) g(1/x) has the roots beta^(-i), i in T.
    Zero exactly when g is self-reciprocal, the LCD criterion of Yang and
    Massey."""
    g = code.generator
    return len(g) - len(polys.gcd(code.field, g, g[::-1]))


# ---------------------------------------------------------------------------
# Rendering and JSON output
# ---------------------------------------------------------------------------

def poly_pretty(field: FieldSpec, p) -> str:
    """Descending-degree display with w-power coefficients."""
    if not p:
        return "0"
    text = [field.base_text(c) for c in range(field.q)]
    coef = ["", ""] + [t + " " for t in text[2:]]  # 1 x^d prints as x^d
    terms = [f"{coef[p[d]]}x^{d}" for d in range(len(p) - 1, 1, -1) if p[d]]
    if len(p) > 1 and p[1]:
        terms.append(f"{coef[p[1]]}x")
    if p[0]:
        terms.append(text[p[0]])
    return " + ".join(terms)


def code_to_json(code: CyclicCode, parity: int | None = None,
                 variant: str | None = None) -> dict:
    data = {
        "q": code.q,
        "m": code.field.m,
        "n": code.n,
        "k": code.k,
        "defining_set": list(code.T.elems),
        "generator_poly": list(code.generator),
    }
    if parity is not None:
        data["parity"] = int(parity)
    if variant is not None:
        data["variant"] = variant
    return data

