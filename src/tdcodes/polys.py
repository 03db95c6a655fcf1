"""Polynomial arithmetic over GF(q) with coefficients as base-field reprs.

Polynomials are little-endian tuples of ints with no trailing zeros; the
zero polynomial is the empty tuple.  Functions that need field arithmetic
take the field first; none mutates its arguments.
"""

from __future__ import annotations

import numpy as np


def trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _mul_array(table: np.ndarray, a, b) -> np.ndarray:
    """Product of two nonempty coefficient sequences as a uint8 array: one
    row XOR of the multiplication table per nonzero coefficient of the
    shorter operand."""
    a, b = (np.asarray(c, dtype=np.uint8) for c in sorted((a, b), key=len))
    out = np.zeros(a.size + b.size - 1, dtype=np.uint8)
    for i in np.flatnonzero(a):
        out[i:i + b.size] ^= table[a[i], b]
    return out


def mul(field, a, b) -> tuple[int, ...]:
    """Product of a and b."""
    return tuple(_mul_array(field.np_mul_table, a, b).tolist()) if a and b else ()


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


def divmod_(field, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem = _divmod_array(field, np.asarray(a, dtype=np.uint8),
                              np.asarray(b, dtype=np.uint8))
    return trim(quot.tolist()), tuple(rem.tolist())


def gcd(field, a, b) -> tuple[int, ...]:
    """Monic greatest common divisor, by Euclid's algorithm; gcd(0, 0) = 0."""
    a, b = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    while b.size:
        a, b = b, _divmod_array(field, a, b)[1]
    return tuple(_divmod_array(field, a, a[-1:])[0].tolist()) if a.size else ()
