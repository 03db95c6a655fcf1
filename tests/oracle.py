"""Slow dense references for the fast paths of tdcodes.

The library reads its structure checks off g(x) (the Gram band and
gcd(g, g*)) and multiplies and divides polynomials with vectorized table
rows; these references build the k x n generator matrices and run the
schoolbook product and long division instead, so the tests can compare two
independent computations.
"""

import numpy as np

from tdcodes.cyclic import GeneratorMatrix, dual_code, generator_matrix, row_reduce
from tdcodes.polys import trim


def poly_mul(field, a, b) -> tuple[int, ...]:
    """Schoolbook product of little-endian base-field polynomials."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] ^= field.base_mul(ca, cb)
    return tuple(out)


def poly_divmod(field, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Schoolbook long division, one coefficient at a time."""
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


def gram_matrix(mat: GeneratorMatrix) -> np.ndarray:
    """G * G^T over GF(q) with the Euclidean inner product."""
    mul = mat.field.np_mul_table
    a = mat.array
    out = np.zeros((mat.rows, mat.rows), dtype=np.uint8)
    for i in range(mat.rows):
        out[i] = np.bitwise_xor.reduce(mul[a[i][None, :], a], axis=1)
    return out


def products_are_zero(a: GeneratorMatrix, b: GeneratorMatrix) -> bool:
    """Whether every row of a is orthogonal to every row of b."""
    mul = a.field.np_mul_table
    for i in range(a.rows):
        if np.bitwise_xor.reduce(mul[a.array[i][None, :], b.array], axis=1).any():
            return False
    return True


def matrix_rank(mat: GeneratorMatrix) -> int:
    return len(row_reduce(mat.field, mat.array)[1])


def hull_dimension(code) -> int:
    """dim(C intersect C-dual) = n - rank of the stacked generator matrices."""
    g = generator_matrix(code)
    d = generator_matrix(dual_code(code))
    stacked = np.concatenate([g.array, d.array], axis=0)
    _, pivots = row_reduce(code.field, stacked)
    return code.n - len(pivots)
