"""Slow dense references for the fast paths of tdcodes, and the helpers
only the tests use (extension-field products, powers and inverses on tables
of their own, the subfield embedding and projection, text and JSON forms,
sets that skip the closure check, and set scaling).

The library reads its structure checks off g(x) (the Gram band and
gcd(g, g*)), tests field moduli on GF(2)-linear squaring maps after a root
sieve, builds the field tables by doubling, computes all minimal
polynomials in one vectorized pass and folds them by a product tree on a
bit-plane FFT multiply, divides polynomials with vectorized table rows,
row-reduces, encodes and scores codewords on bit-sliced words, finds the
exact distance of a cyclic code by Brouwer-Zimmermann enumeration of one
information set with the cyclic stop rule, tallies weights by a Gray scan
of one message per projective point, counts cosets with a leader mask that
steps one block of residues at a time by bit rotation, runs the progression
search as shift-AND doubling on a bitset over one unit per orbit of +-q^j,
and reads digit sums off one table built digit by digit; these references
test every candidate modulus by polynomial powers on a schoolbook product
and base table of their own, build the tables one power or product at a
time, fold one scalar minimal polynomial at a time, build the k x n
generator matrices, run the schoolbook product and long division,
eliminate, encode and score one byte per symbol, scan all q^k messages for
both the minimum and the tally, walk each coset one member at a time or
all residues at once by products, scan every unit for runs, list the
members of each progression and sum the digits of one integer at a time
instead, so the tests can compare two independent computations."""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from tdcodes.bounds import APWitness, BoundReport
from tdcodes import coset
from tdcodes.cyclic import dual_code
from tdcodes.gf import FieldError, FieldSpec, _prime_factors, default_base_modulus, make_field
from tdcodes.polys import _mul_array

# every (q, m) with q = 2^s, s = 1..4, m >= 2 and n = q^m - 1 <= 4095: the
# sizes the differential tests sweep
SMALL_QM = [(1 << s, m) for s in range(1, 5) for m in range(2, 13)
            if (1 << s) ** m - 1 <= 4095]


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


@dataclass(frozen=True)
class CosetPartition:
    """All q-cyclotomic cosets modulo n, keyed by their minimal members."""

    n: int
    q: int
    leaders: tuple[int, ...]
    coset_of: dict[int, int]

    def coset(self, i: int) -> tuple[int, ...]:
        return cyclotomic_coset(i, self.q, self.n)


def q_adic_digits(i: int, q: int, m: int) -> tuple[int, ...]:
    """Digits d_0..d_{m-1} with i = sum d_j q^j."""
    if not 0 <= i <= q ** m - 1:
        raise ValueError(f"value {i} out of range for {m} base-{q} digits")
    digits = []
    for _ in range(m):
        i, d = divmod(i, q)
        digits.append(d)
    return tuple(digits)


def q_weight(i: int, q: int, m: int) -> int:
    """Digit sum of the q-adic expansion of i."""
    return sum(q_adic_digits(i, q, m))


def coset_partition(q: int, n: int) -> CosetPartition:
    leaders = []
    coset_of: dict[int, int] = {}
    for i in range(n):
        if i in coset_of:
            continue
        orbit = cyclotomic_coset(i, q, n)
        leaders.append(orbit[0])
        for j in orbit:
            coset_of[j] = orbit[0]
    return CosetPartition(n, q, tuple(leaders), coset_of)


def orbit_leaders(q: int, n: int, signed: bool) -> np.ndarray:
    """Whether each i in [0, n) is the least of its orbit under the powers
    of q, and with ``signed`` their negatives too: all n residues at once,
    stepped by int64 products x*q mod n until they come back."""
    if math.gcd(n, q) != 1:
        raise ValueError("q must be invertible modulo n")
    x = np.arange(n, dtype=np.int64)
    low, y = x.copy(), x.copy()
    while True:
        if signed:
            np.minimum(low, n - y, out=low)
        y = y * (q % n) % n
        if np.array_equal(y, x):
            return low == x
        np.minimum(low, y, out=low)


def progression_members(w: APWitness, n: int) -> list[int]:
    """The residues b + a*i mod n, i_lo <= i <= i_hi, in order."""
    return [(w.b + w.a * i) % n for i in range(w.i_lo, w.i_hi + 1)]


def longest_progression(T, a: int) -> tuple[int, int]:
    """The longest progression b, b + a, ... inside T and the least b that
    starts one, from the member list of the progression of n terms at each
    b: (0, 0) when T is empty."""
    n = T.n
    best_len, best_b = 0, 0
    for b in range(n):
        members = progression_members(APWitness(b, a, 0, n - 1), n)
        length = next((i for i, x in enumerate(members) if x not in T), n)
        if length > best_len:
            best_len, best_b = length, b
    return best_len, best_b


def _longest_circular_run(arr: np.ndarray) -> tuple[int, np.ndarray]:
    """Length of the longest circular run of True plus all run starts of
    that length.  Assumes arr has at least one False and one True."""
    n = arr.size
    gaps_at = np.flatnonzero(~arr)
    lengths = np.empty(gaps_at.size, dtype=np.int64)
    lengths[:-1] = np.diff(gaps_at) - 1
    lengths[-1] = gaps_at[0] + n - gaps_at[-1] - 1
    best = int(lengths.max())
    starts = (gaps_at[lengths == best] + 1) % n
    return best, starts


def bch_search(T, budget=None) -> BoundReport:
    """The progression search over every unit a, q-multiples and negatives
    included: one circular run scan of the index array i -> [a*i mod n in T]
    per a."""
    n = T.n
    if len(T) == 0:
        return BoundReport(1, None, "exhaustive search")
    mem = np.zeros(n, dtype=bool)
    mem[list(T.elems)] = True
    if mem.all():
        return BoundReport(n, APWitness(0, 1, 0, n - 2), "exhaustive search")
    idx = np.arange(n, dtype=np.int64)
    best_len = 0
    best_a = best_b = 0
    scanned = 0
    partial = False
    for a in range(1, n):
        if math.gcd(a, n) != 1:
            continue
        if budget is not None and scanned >= budget:
            partial = True
            break
        scanned += 1
        length, starts = _longest_circular_run(mem[a * idx % n])
        if length > best_len:
            best_len = length
            best_a = a
            best_b = int((a * starts % n).min())
    if best_len == 0:
        return BoundReport(1, None, "exhaustive search", partial)
    witness = APWitness(best_b, best_a, 0, best_len - 1)
    return BoundReport(best_len + 1, witness, "exhaustive search", partial)


@dataclass(frozen=True)
class GeneratorMatrix:
    """A k x n matrix over GF(q), one byte per symbol."""
    field: FieldSpec
    array: np.ndarray

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]


def generator_matrix(code) -> GeneratorMatrix:
    """Rows are the coefficient vectors of x^j g(x), j = 0..k-1."""
    g = np.asarray(code.generator, dtype=np.uint8)
    arr = np.zeros((code.k, code.n), dtype=np.uint8)
    for j in range(code.k):
        arr[j, j:j + g.size] = g
    return GeneratorMatrix(code.field, arr)


def extended_matrix(code) -> GeneratorMatrix:
    """The generator matrix with the overall-sum column appended, each
    row's XOR (characteristic 2)."""
    arr = generator_matrix(code).array
    tail = np.bitwise_xor.reduce(arr, axis=1)[:, None]
    return GeneratorMatrix(code.field, np.concatenate([arr, tail], axis=1))


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


def lightest(field, rows, pair_scan: bool):
    """The lightest row, or with ``pair_scan`` the lightest nonzero word
    among it and, for each lam != 0, the first lightest nonzero
    r_i + lam * r_j (i != j) in (i, j) order, one byte per symbol:
    (n + 1, None) when no word qualifies."""
    mul = field.np_mul_table
    n = rows.shape[1]
    weights = np.count_nonzero(rows, axis=1)
    j = int(weights.argmin())
    if not pair_scan:
        return int(weights[j]), rows[j]
    best_w, best = n + 1, None
    if weights[j]:
        best_w, best = int(weights[j]), rows[j]
    for lam in range(1, field.q):
        lam_w, lam_word = n + 1, None
        for i, j in itertools.permutations(range(len(rows)), 2):
            word = rows[i] ^ mul[lam, rows[j]]
            w = int(np.count_nonzero(word))
            if 0 < w < lam_w:
                lam_w, lam_word = w, word
        if lam_w < best_w:
            best_w, best = lam_w, lam_word
    return best_w, best


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


def minimal_polynomial(field, i: int) -> tuple[int, ...]:
    """Minimal polynomial of beta^i over GF(q): the product of (x - beta^j)
    over the cyclotomic coset of i, projected back to base coefficients,
    one scalar field operation at a time."""
    acc = [1]  # extension-field coefficients, little-endian
    for j in cyclotomic_coset(i, field.q, field.n):
        root = beta_power(field, j)
        nxt = [0] * (len(acc) + 1)
        for t, c in enumerate(acc):
            if c:
                nxt[t] ^= ext_mul(field, root, c)
                nxt[t + 1] ^= c
        acc = nxt
    return tuple(project_base(field, c) for c in acc)


def generator_polynomial(field, T) -> tuple[int, ...]:
    """The product of the scalar minimal polynomials of the coset leaders
    in T, folded one schoolbook table-row product at a time."""
    g = np.ones(1, dtype=np.uint8)
    for e in np.flatnonzero(T.mask & coset.leader_mask(field.q, field.n)).tolist():
        g = _mul_array(field.np_mul_table, g, minimal_polynomial(field, e))
    return tuple(g.tolist())


def second_primitive_field(s: int, m: int):
    """GF(q^m) under the second primitive extension modulus, in the order
    default_ext_modulus searches, so a field other than make_field's."""
    moduli = primitive_moduli(s, m, default_base_modulus(s))
    return make_field(s, m, ext_modulus=next(itertools.islice(moduli, 1, None)))


def raw_set(n: int, q: int, elems) -> coset.DefiningSet:
    """The residues elems mod n as a set, closed under q or not: the
    DefiningSet constructor checks nothing, coset.defining_set checks closure."""
    mask = np.zeros(n, dtype=bool)
    mask[[e % n for e in elems]] = True
    return coset.DefiningSet(q, mask)


def scale_set(v: int, S) -> coset.DefiningSet:
    """Elementwise v*x mod n, one member at a time (v need not be a unit)."""
    return raw_set(S.n, S.q, [v * e for e in S.elems])


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


def trim(coeffs) -> tuple[int, ...]:
    """The coefficients without their trailing zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


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


def base_pow(field, a: int, e: int) -> int:
    """a^e in GF(q) by square and multiply."""
    return _power(field.base_mul, field.q - 1, a, e)


def ext_pow(field, a: int, e: int) -> int:
    """a^e in GF(q^m) by square and multiply."""
    return _power(functools.partial(ext_mul, field), field.n, a, e)


def ext_inv(field, a: int) -> int:
    """a^-1 = a^(n-1) in GF(q^m)."""
    return ext_pow(field, a, -1)


def _power(mul, order: int, a: int, e: int) -> int:
    if a == 0:
        if e < 0:
            raise FieldError("inversion of zero")
        return 1 if e == 0 else 0
    acc, e = 1, e % order
    while e:
        if e & 1:
            acc = mul(acc, a)
        a, e = mul(a, a), e >> 1
    return acc


def embed_base(field, a: int) -> int:
    """GF(q) in GF(q^m): the constants, so a base element is its own image."""
    if not 0 <= a < field.q:
        raise FieldError(f"base element {a} out of range")
    return a


def project_base(field, x: int) -> int:
    """The base-field element a packed extension element x is (GF(q) embeds
    as the constants); fails if x lies outside the embedded GF(q)."""
    if not 0 <= x < field.q:
        raise FieldError(f"element {x} is not in the base subfield")
    return x


def ext_text(field, x: int) -> str:
    """The base coefficients of x, lowest first, comma-separated."""
    return ",".join(str(c) for c in ext_coeffs(field, x))


def poly_pretty(field, p) -> str:
    """Descending-degree display with w-power coefficients, one base_text
    call per term."""
    if not p:
        return "0"
    terms = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c == 0:
            continue
        coef = "" if c == 1 else field.base_text(c) + " "
        if d == 0:
            terms.append(field.base_text(c))
        elif d == 1:
            terms.append(f"{coef}x")
        else:
            terms.append(f"{coef}x^{d}")
    return " + ".join(terms)


def field_spec_to_json(spec) -> dict:
    """The JSON form that gf.field_spec_from_json reads: base-modulus bits
    and one-element lists of extension-modulus coefficients."""
    return {
        "s": spec.s,
        "m": spec.m,
        "base_modulus": [(spec.base_modulus >> i) & 1 for i in range(spec.s + 1)],
        "ext_modulus": [[c] for c in spec.ext_modulus],
    }


def eval_ext(field, p, x: int) -> int:
    """Evaluate at an extension-field point, coefficients embedded."""
    acc = 0
    for c in reversed(p):
        acc = ext_mul(field, acc, x) ^ embed_base(field, c)
    return acc


# fields of up to this many nonzero elements multiply off ext_tables, larger
# ones by polynomial arithmetic: a list-built table of 2^22 entries would
# take seconds and hundreds of MB
_TABLE_MAX_N = 1 << 16


def ext_coeffs(field, x: int) -> tuple[int, ...]:
    """The m base coefficients of a packed extension element, lowest first."""
    mask = field.q - 1
    return tuple((x >> (j * field.s)) & mask for j in range(field.m))


def ext_mul(field, a: int, b: int) -> int:
    """a * b in GF(q^m), never through the library's extension tables."""
    if a == 0 or b == 0:
        return 0
    if field.n > _TABLE_MAX_N:
        return ext_mul_poly(field, a, b)
    exp, log = ext_tables(field)
    return exp[(log[a] + log[b]) % field.n]


def beta_power(field, i: int) -> int:
    """beta^i, never through the library's extension tables."""
    if field.n > _TABLE_MAX_N:
        return ext_pow(field, field.beta, i)
    return ext_tables(field)[0][i % field.n]


def ext_mul_poly(field, a: int, b: int) -> int:
    """a * b modulo the extension modulus by Horner's rule over the base
    coefficients of b: per coefficient, one multiplication by x and one
    scalar multiple of a, one base_mul per coefficient of a."""
    r = 0
    for c in reversed(ext_coeffs(field, b)):
        r = ext_times_x(field, r) ^ field.pack_coeffs(
            [field.base_mul(c, d) for d in ext_coeffs(field, a)])
    return r


@functools.lru_cache(maxsize=8)
def ext_tables(field) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """exp[k] = beta^k and log[beta^k] = k (log[0] = -1), one multiplication
    by beta at a time (shift up, then add the multiple of x^m that fell off
    the top, from a table of the q multiples); raises FieldError when beta
    is not primitive.  Cached per field, so the tables are tuples."""
    exp, log = [0] * field.n, [-1] * (field.n + 1)
    top = (field.m - 1) * field.s
    carry = [ext_times_x(field, c << top) for c in range(field.q)]
    e = 1
    for k in range(field.n):
        exp[k] = e
        if log[e] != -1:
            raise FieldError("extension modulus root is not primitive")
        log[e] = k
        e = ((e & ((1 << top) - 1)) << field.s) ^ carry[e >> top]
    if e != 1:
        raise FieldError("extension modulus root is not primitive")
    return tuple(exp), tuple(log)


def ext_times_x(field, v: int) -> int:
    """x * v modulo the extension modulus, one base coefficient at a time:
    the coefficients shift up, and x^m = f_0 + ... + f_(m-1) x^(m-1) takes
    the one that falls off the top."""
    c = ext_coeffs(field, v)
    top = c[-1]
    return field.pack_coeffs([a ^ field.base_mul(top, f)
                              for a, f in zip((0,) + c[:-1], field.ext_modulus)])


@functools.lru_cache(maxsize=16)
def base_mul_table(s: int, base_modulus: int) -> tuple[tuple[int, ...], ...]:
    """t[a][b] = a * b in GF(2^s): the carry-less product of the bit
    strings, reduced by the base modulus one high bit at a time."""
    q = 1 << s
    table = []
    for a in range(q):
        row = []
        for b in range(q):
            r = 0
            for i in range(s):
                if b >> i & 1:
                    r ^= a << i
            for i in range(2 * s - 2, s - 1, -1):
                if r >> i & 1:
                    r ^= base_modulus << (i - s)
            row.append(r)
        table.append(tuple(row))
    return tuple(table)


def ext_product(field, a: int, b: int) -> int:
    """a * b modulo the extension modulus: the schoolbook product of the
    coefficient lists on the oracle's own base table, then each coefficient
    of degree m and above folded down by x^m = f_0 + ... + f_(m-1) x^(m-1)."""
    mul, m = base_mul_table(field.s, field.base_modulus), field.m
    f = field.ext_modulus[:m]
    out = [0] * (2 * m - 1)
    for i, x in enumerate(ext_coeffs(field, a)):
        if x:
            row = mul[x]
            for j, y in enumerate(ext_coeffs(field, b)):
                out[i + j] ^= row[y]
    for d in range(2 * m - 2, m - 1, -1):
        if c := out[d]:
            row = mul[c]
            for j in range(m):
                out[d - m + j] ^= row[f[j]]
    return sum(c << (j * field.s) for j, c in enumerate(out[:m]))


def ext_pow_poly(field, a: int, e: int) -> int:
    """a^e modulo the extension modulus by square-and-multiply on
    ext_product, with no reduction of e, so sound for any modulus."""
    r = 1
    while e:
        if e & 1:
            r = ext_product(field, r, a)
        a = ext_product(field, a, a)
        e >>= 1
    return r


def ext_x_order_is_full(field) -> bool:
    """Whether x has order n = q^m - 1 modulo the extension modulus:
    x^n = 1 and x^(n/p) != 1 for each prime p | n, by polynomial powers."""
    if field.ext_modulus[0] == 0:
        return False
    x, n = field.beta, field.n
    return ext_pow_poly(field, x, n) == 1 and all(
        ext_pow_poly(field, x, n // p) != 1 for p in _prime_factors(n))


def primitive_moduli(s: int, m: int, base_modulus: int):
    """The monic degree-m polynomials over GF(q), in ascending packed order,
    that pass ext_x_order_is_full: every candidate with a nonzero constant
    term takes the power test."""
    q = 1 << s
    for tail in range(1, q ** m):
        if tail & (q - 1) == 0:
            continue
        coeffs = tuple((tail >> (j * s)) & (q - 1) for j in range(m)) + (1,)
        if ext_x_order_is_full(FieldSpec(s, m, base_modulus, coeffs)):
            yield coeffs


def default_ext_modulus(s: int, m: int, base_modulus: int) -> tuple[int, ...]:
    """The first of primitive_moduli."""
    for coeffs in primitive_moduli(s, m, base_modulus):
        return coeffs
    raise FieldError(f"no primitive degree-{m} extension modulus over GF({1 << s})")


def np_mul_table(field) -> np.ndarray:
    """t[a, b] = a * b in GF(q), one base_mul at a time."""
    q = field.q
    t = np.zeros((q, q), dtype=np.uint8)
    for a in range(1, q):
        for b in range(a, q):
            t[a, b] = t[b, a] = field.base_mul(a, b)
    return t


def np_inv_table(field) -> np.ndarray:
    """t[a] = 1 / a in GF(q) for a != 0 and t[0] = 0, one base_inv at a time."""
    t = np.zeros(field.q, dtype=np.uint8)
    for a in range(1, field.q):
        t[a] = field.base_inv(a)
    return t


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
