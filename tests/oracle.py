"""Slow dense references for the fast paths of tdcodes.

The library reads its structure checks off g(x) (the Gram band and
gcd(g, g*)), multiplies and divides polynomials with vectorized table
rows, and row-reduces, encodes and enumerates codewords on bit-sliced
words; these references build the k x n generator matrices, run the
schoolbook product and long division, and eliminate, encode and enumerate
one byte per symbol instead, so the tests can compare two independent
computations.
"""

import numpy as np

from tdcodes.cyclic import GeneratorMatrix, dual_code, generator_matrix
from tdcodes.polys import trim


def row_reduce(field, array) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(q), one byte per symbol: scan the
    columns, swap the first nonzero row up, normalise it and clear the column
    in every other row by a multiplication-table gather."""
    a = array.astype(np.uint8).copy()
    mul, inv = field.np_mul_table, field.np_inv_table
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        p = r + nz[0]
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = mul[inv[a[r, c]], a[r]]
        others = np.flatnonzero(a[:, c])
        others = others[others != r]
        if others.size:
            a[others] ^= mul[a[others, c][:, None], a[r][None, :]]
        pivots.append(c)
        r += 1
    return a, pivots


def encode(code_or_matrix, message) -> np.ndarray:
    """Message times the generator matrix, one byte per symbol."""
    mat = code_or_matrix if isinstance(code_or_matrix, GeneratorMatrix) \
        else generator_matrix(code_or_matrix)
    msg = np.asarray(message, dtype=np.uint8)
    if msg.shape != (mat.rows,):
        raise ValueError(f"message length {msg.size} != dimension {mat.rows}")
    mul = mat.field.np_mul_table
    return np.bitwise_xor.reduce(mul[msg[:, None], mat.array], axis=0)


def gray_scan(mat: GeneratorMatrix):
    """Minimum nonzero weight, the first codeword of that weight and the
    weight tally, one byte per symbol: the low 10 message bits in binary
    order inside each step, one Gray step of the bits above at a time."""
    mul = mat.field.np_mul_table
    rows = [mul[1 << t, mat.array[j]] for j in range(mat.rows)
            for t in range(mat.field.s)]
    low = min(10, len(rows))
    chunk = np.zeros((1, mat.cols), dtype=np.uint8)
    for b in range(low):
        chunk = np.concatenate([chunk, chunk ^ rows[b]], axis=0)
    hist = np.zeros(mat.cols + 1, dtype=np.int64)
    base = np.zeros(mat.cols, dtype=np.uint8)
    best_w, best_cw = mat.cols + 1, None
    for t in range(1 << (len(rows) - low)):
        if t:
            base ^= rows[low + (t & -t).bit_length() - 1]
        words = chunk ^ base
        weights = np.count_nonzero(words, axis=1)
        hist += np.bincount(weights, minlength=mat.cols + 1)
        if t == 0:
            weights[0] = mat.cols + 1
        j = int(weights.argmin())
        if weights[j] < best_w:
            best_w, best_cw = int(weights[j]), words[j].copy()
    return best_w, best_cw, hist


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
