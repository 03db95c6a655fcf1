"""Polynomial arithmetic over GF(q) with coefficients as base-field reprs.

Polynomials are little-endian tuples of ints with no trailing zeros; the
zero polynomial is the empty tuple.  Functions that need field arithmetic
take the field first; none mutates its arguments.

The array kernels work on uint8 rows.  One batched multiply serves
``mul`` and the product tree ``_fold``: schoolbook multiplication-table
rows for short operands, an exact FFT over the s bit planes for long ones.
"""

from __future__ import annotations

import numpy as np


_FFT_MIN_LEN = 32  # shorter operand length from which _mul_rows takes the FFT


def _mul_array(table: np.ndarray, a, b) -> np.ndarray:
    """Row-wise products of nonempty coefficient rows, (..., la) by
    (..., lb) with the same leading shape, as uint8: one row XOR of the
    multiplication table per coefficient index of the shorter operand that
    is nonzero in some row."""
    a, b = sorted((np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)),
                  key=lambda c: c.shape[-1])
    la, lb = a.shape[-1], b.shape[-1]
    out = np.zeros(a.shape[:-1] + (la + lb - 1,), dtype=np.uint8)
    for i in np.flatnonzero(a.reshape(-1, la).any(axis=0)):
        out[..., i:i + lb] ^= table[a[..., i, None], b]
    return out


def _fft_len(size: int) -> int:
    """The least c * 2^k >= size with c in (1, 3, 5): a length pocketfft
    transforms fast, at most 25% over size."""
    return min(c << ((size + c - 1) // c - 1).bit_length() for c in (1, 3, 5))


def _rounded(x: np.ndarray) -> np.ndarray:
    """x rounded to integers (x is overwritten); raises if an entry is 1/4
    or more away from every integer, which an exact convolution never is."""
    r = np.rint(x)
    x -= r
    if np.abs(x, out=x).max(initial=0.0) >= 0.25:
        raise ArithmeticError("FFT product is not within 1/4 of an integer")
    return r


def _mul_fft(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products by an exact FFT over bit planes.  With a = sum_u
    w^u a_u and b = sum_v w^v b_v, a_u, b_v in GF(2)[x], ab = sum_t w^t c_t,
    c_t = sum_(u+v=t) a_u b_v: c_t is the parity of the integer convolution,
    whose counts stay below s min(la, lb) < 2^53, so rounding recovers them
    exactly.  That takes s rfft per operand and 2s - 1 irfft, each batch of
    planes in one call; w^t for t >= s is reduced by the base modulus (the
    base exp table)."""
    s, size = field.s, a.shape[-1] + b.shape[-1] - 1
    nfft = _fft_len(size)
    planes = np.arange(s, dtype=np.uint8).reshape((s,) + (1,) * a.ndim)
    fa = np.fft.rfft((a >> planes) & 1, nfft)
    fb = np.fft.rfft((b >> planes) & 1, nfft)
    spec = np.zeros((2 * s - 1,) + fa.shape[1:], dtype=fa.dtype)
    for u in range(s):
        spec[u:u + s] += fa[u] * fb
    del fa, fb
    counts = _rounded(np.fft.irfft(spec, nfft)[..., :size])
    del spec
    parity = (counts.astype(np.int64) & 1).astype(np.uint8)
    del counts
    exp = field._base_tables[0]
    w_pow = np.array([exp[t % (field.q - 1)] for t in range(2 * s - 1)], dtype=np.uint8)
    parity *= w_pow.reshape((-1,) + (1,) * (parity.ndim - 1))
    return np.bitwise_xor.reduce(parity, axis=0)


def _mul_rows(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of nonempty uint8 coefficient rows: schoolbook
    table rows while the shorter operand is short, the bit-plane FFT from
    _FFT_MIN_LEN on."""
    if min(a.shape[-1], b.shape[-1]) < _FFT_MIN_LEN:
        return _mul_array(field.np_mul_table, a, b)
    return _mul_fft(field, a, b)


def mul(field, a, b) -> tuple[int, ...]:
    """Product of a and b."""
    if not a or not b:
        return ()
    return tuple(_mul_rows(field, np.asarray(a, dtype=np.uint8),
                           np.asarray(b, dtype=np.uint8)).tolist())


def _fold(field, rows: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Product of the polynomials in the rows of a uint8 stack, row i of
    degree degrees[i] and zero above it, by a balanced product tree: each
    level multiplies rows 2i and 2i + 1 for every i in one batched call and
    carries an odd last row up unchanged."""
    if not rows.shape[0]:
        return np.ones(1, dtype=np.uint8)
    while rows.shape[0] > 1:
        pairs = rows.shape[0] // 2
        da, db = degrees[0:2 * pairs:2], degrees[1:2 * pairs:2]
        prod = _mul_rows(field, rows[0:2 * pairs:2, :da.max() + 1],
                         rows[1:2 * pairs:2, :db.max() + 1])
        if rows.shape[0] % 2:
            width = max(prod.shape[1], rows.shape[1])
            nxt = np.zeros((pairs + 1, width), dtype=np.uint8)
            nxt[:pairs, :prod.shape[1]] = prod
            nxt[pairs, :rows.shape[1]] = rows[-1]
            rows, degrees = nxt, np.append(da + db, degrees[-1])
        else:
            rows, degrees = prod, da + db
    return rows[0, :degrees[0] + 1]


def _divmod_array(field, a: np.ndarray, b: np.ndarray) -> tuple:
    """Quotient and trimmed remainder of uint8 coefficient arrays, b with a
    nonzero leading coefficient: one multiplication-table row XOR of the
    monic divisor per quotient degree."""
    table, inv = field.np_mul_table, field.base_inv(int(b[-1]))
    monic, rem = table[inv, b], a.copy()
    quot = np.zeros(max(a.size - b.size + 1, 0), dtype=np.uint8)
    for i in range(quot.size - 1, -1, -1):
        if c := rem[i + b.size - 1]:
            quot[i] = c
            rem[i:i + b.size] ^= table[c, monic]
    nz = np.flatnonzero(rem[:b.size - 1])
    return table[inv, quot], rem[:nz[-1] + 1 if nz.size else 0]


def gcd(field, a, b) -> tuple[int, ...]:
    """Monic greatest common divisor, by Euclid's algorithm; gcd(0, 0) = 0."""
    a, b = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    while b.size:
        a, b = b, _divmod_array(field, a, b)[1]
    return tuple(_divmod_array(field, a, a[-1:])[0].tolist()) if a.size else ()
