"""Slow dense references for the fast paths of tdcodes.

The library reads its structure checks off the Gram band of g(x) and
multiplies polynomials with vectorized table rows; these references build
the k x n generator matrices and run the schoolbook product instead, so the
tests can compare two independent computations.
"""

import numpy as np

from tdcodes.cyclic import GeneratorMatrix, dual_code, generator_matrix, row_reduce


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
