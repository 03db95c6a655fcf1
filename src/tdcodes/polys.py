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


def divmod_(field, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    inv_lead = field.base_inv(b[-1])
    quot = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        factor = field.base_mul(a[-1], inv_lead)
        quot[da - db] = factor
        for j, cb in enumerate(b):
            if cb:
                a[da - db + j] ^= field.base_mul(factor, cb)
        a.pop()
    return trim(quot), trim(a)


def eval_ext(field, p, x: int) -> int:
    """Evaluate at an extension-field point, coefficients embedded."""
    acc = 0
    for c in reversed(p):
        acc = field.ext_mul(acc, x) ^ field.embed_base(c)
    return acc


def x_pow_n_plus_1(n: int) -> tuple[int, ...]:
    """x^n - 1, which in characteristic 2 is x^n + 1."""
    out = [0] * (n + 1)
    out[0] = 1
    out[-1] = 1
    return tuple(out)
