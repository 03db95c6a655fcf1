"""Ground-truth minimum-distance machinery: exact distance of a cyclic
code, or of its extension, by Brouwer-Zimmermann enumeration of one
information set with the cyclic stop rule, randomized upper-bound search
for codes too large to enumerate, complete weight tallies for small codes
from the same enumeration run through every layer, and the certificate
that mu_(-1): i -> -i maps one code of a duadic pair onto the other, from
one division of the image of one generator polynomial by the other, with
no distance search.

One engine enumerates: the window of positions 0..k - 1, whose systematic
form comes from g (row j is x^j + x^k (x^(n-k+j) mod g)) with no generator
matrix and no row reduction.  It meets each message whose last nonzero
symbol is 1, one per projective point of the message space, layer by
layer, each codeword one row XOR.

The cyclic stop rule (Zimmermann 1996; Grassl 2006): in a cyclic [n, k]
code, once every message of weight <= w on positions 0..k - 1 has been
visited, a codeword none of whose shifts was visited has more than w
nonzeros in each of the n cyclic windows of k positions.  Each position
lies in k windows, so k wt(c) >= n(w + 1).

Codewords are bit-sliced words (:mod:`tdcodes.packed`): s bit-planes of
ceil(n/64) uint64 values, so a row XOR touches s*ceil(n/64) machine words
and a weight is the popcount of the OR of the planes.  The upper-bound
search's only random candidates are information-set forms.  Form f's
column order is the argsort of n SplitMix64 outputs at counters fixed by
(seed, f, n), and every argmin tie goes to the first candidate in a fixed
order, so a result depends on the seed and on max(1, trials // 16) alone,
not on the numpy version.
A form is the systematic form S = [I | R] of the window, with the
overall-sum column for an extended code, its columns permuted by a random
Pi: S spans the rows of the generator matrix G, so S Pi has the rref of
G Pi, and the row reduction pivots each row's unit column, where Pi takes
it, with no row operation.
Its row-pair scan scores each pair of inverse scalars once, at the
smaller: wt(r_i + lam r_j) = wt(r_j + lam^(-1) r_i), so the weights of lam
are the transpose of those of lam^(-1) and the later can only tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tdcodes import bounds, coset, cyclic, packed, polys
from tdcodes.coset import CheckResult, Parity
from tdcodes.cyclic import CyclicCode, ExtendedCode
from tdcodes.gf import make_field

DEFAULT_CAP = 1 << 24
_PASS_WORDS = 1 << 14
_PAIR_SCAN_MAX_K = 64
_STACK_WORDS = 1 << 15


@dataclass(frozen=True)
class DistanceReport:
    lower: int
    upper: int
    exact: int | None
    witness_weight: int
    method: str  # exhaustive | sampled
    seed: int | None = None
    witness: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.exact is not None and not self.lower <= self.exact <= self.upper:
            raise ValueError(f"inconsistent report: lower={self.lower} "
                             f"exact={self.exact} upper={self.upper}")
        if self.witness is not None:
            w = sum(1 for c in self.witness if c)
            if w != self.witness_weight:
                raise ValueError("witness weight mismatch")


def _pairs(major: np.ndarray, minor: np.ndarray, lo: np.ndarray, hi: np.ndarray, per: int):
    """The words major_i + minor_j for lo_i <= j < hi_i, in i-major order,
    lo and hi nondecreasing, one XOR per word, in pieces of up to ``per``.
    Rows come in runs of one (lo, hi), at most one per key, and each run is
    a rectangle of rows by columns; when all of them together hold no more
    than ``per`` words, one XOR over the spanning rectangle and a mask
    take them at once instead."""
    rows = major.shape[-1]
    if not rows:
        return
    c0, c1 = int(lo.min()), int(hi.max())
    if rows * (c1 - c0) <= per:
        cols = np.arange(c0, c1)
        valid = (cols >= lo[:, None]) & (cols < hi[:, None])
        if valid.any():
            words = major[..., :, None] ^ minor[..., None, c0:c1]
            yield words.reshape(major.shape[:-1] + (-1,)).compress(valid.ravel(), axis=-1)
        return
    cuts = (np.flatnonzero((np.diff(lo) != 0) | (np.diff(hi) != 0)) + 1).tolist()
    for i0, i1 in zip([0] + cuts, cuts + [rows]):
        a, b = int(lo[i0]), int(hi[i0])
        if a >= b:
            continue
        cols = min(b - a, per)
        step = max(1, per // cols)
        for r in range(i0, i1, step):
            r1 = min(i1, r + step)
            for c in range(a, b, cols):
                c1 = min(b, c + cols)
                words = np.empty(major.shape[:-1] + (r1 - r, c1 - c), dtype=packed.WORD)
                np.bitwise_xor(major[..., r:r1, None], minor[..., None, c:c1], out=words)
                yield words.reshape(major.shape[:-1] + (-1,))


class _Window:
    """The weight-w messages of one systematic form whose last nonzero
    symbol is 1, layer by layer.  A message is a head of weight w // 2 with
    any nonzero symbols plus a tail of weight w - w // 2 whose last symbol
    is 1 and whose first position is at or past the head's end (one past
    its last position, 0 for the empty head): one XOR per codeword.  A head
    of weight a is a multiple of a row plus a head of weight a - 1 that
    ends at or before it, a tail of weight b a multiple of a row plus a
    tail of weight b - 1 past it, so each is built from the one before by
    one XOR per word, heads in order of end and tails of first position.
    Heads of weight a end by k - a and tails of weight b start at b - 1 or
    later: the rest pair with no tail or head of a later layer."""

    def __init__(self, masks: np.ndarray, form: np.ndarray, per: int):
        s, nwords, k = form.shape
        self.k, self.per = k, per
        # a * row p at (q - 1) p + a - 1
        table = packed.multiples(masks, form)[:, :, 1:]
        self.multiples = table.swapaxes(-1, -2).reshape(s, nwords, -1)
        self.row_of = np.repeat(np.arange(k), masks.shape[-1] - 1)
        self.head = (0, np.zeros((s, nwords, 1), dtype=packed.WORD), np.zeros(1, dtype=np.intp))
        self.tail = (1, form, np.arange(k))

    def _grow(self, rows: np.ndarray, lo, hi, old: np.ndarray, keys: np.ndarray):
        """The table of multiples[rows_i] + old_j, lo_i <= j < hi_i, keyed by row."""
        words = list(_pairs(self.multiples[..., rows], old, lo, hi, self.per))
        return (np.concatenate(words, axis=-1) if words else old[..., :0],
                np.repeat(keys, hi - lo))

    def layer(self, w: int):
        """The layer's words, in pieces of up to ``per`` words."""
        while self.head[0] < w // 2:
            a, heads, ends = self.head
            rows = np.flatnonzero(self.row_of < self.k - a - 1)
            ends_by = np.searchsorted(ends, self.row_of[rows], side="right")
            self.head = (a + 1, *self._grow(rows, np.zeros_like(ends_by), ends_by, heads,
                                            self.row_of[rows] + 1))
        while self.tail[0] < w - w // 2:
            b, tails, firsts = self.tail
            rows = np.flatnonzero(self.row_of >= b)
            past = np.searchsorted(firsts, self.row_of[rows], side="right")
            self.tail = (b + 1, *self._grow(rows, past, np.full_like(past, firsts.size), tails,
                                            self.row_of[rows]))
        _, heads, ends = self.head
        _, tails, firsts = self.tail
        lo = np.searchsorted(firsts, ends)
        yield from _pairs(heads, tails, lo, np.full_like(lo, firsts.size), self.per)


def _systematic(code: CyclicCode, extended: bool) -> np.ndarray:
    """The (k, n) systematic form of a cyclic [n, k] code, one byte per
    symbol, or (k, n + 1) of its extension by the overall-sum symbol, the
    identity on positions 0..k - 1, from g with no row reduction: row j is
    x^j + x^k r_j(x), r_j = x^(n-k+j) mod g, and with ``extended`` it gains
    the XOR of its symbols.  r_0 is g less its leading x^(n-k) (g is monic,
    and -1 = 1), and r_(j+1) = x r_j mod g is r_j shifted up one place, its
    top symbol times that low part added: each row is written from the one
    above it in place.

    Row j is the shift by k of x^(n-k+j) + r_j, a multiple of g, so it is a
    codeword; r_j has degree < n - k, so on positions 0..k - 1 the row is
    e_j.  A code has one basis that is the identity on a given information
    set, so this is the reduced row echelon form of its generator matrix,
    extended or not."""
    field, n, k = code.field, code.n, code.k
    low = np.asarray(code.generator[:-1], dtype=np.uint8)
    rows = np.zeros((k, n + extended), dtype=np.uint8)
    rows[np.arange(k), np.arange(k)] = 1
    if k and low.size:
        mul = field.np_mul_table[:, low]   # t times the low part at [t]
        rows[0, k:n] = low
        for j in range(k - 1):
            rows[j + 1, k + 1:n] = rows[j, k:n - 1]
            rows[j + 1, k:n] ^= mul[rows[j, n - 1]]
    if extended:
        rows[:, n] = np.bitwise_xor.reduce(rows[:, :n], axis=1)
    return rows


def _window(code: CyclicCode, extended: bool) -> _Window:
    """The window of positions 0..k - 1, over its systematic form."""
    form = packed.pack(_systematic(code, extended), code.field.s)
    return _Window(packed.scalar_masks(code.field), form,
                   max(1, _PASS_WORDS // (code.field.s * form.shape[1])))


def _min_weight(code: CyclicCode, extended: bool):
    """Minimum weight of the codewords of nonzero messages, the first
    codeword of that weight the enumeration meets, and the number of
    messages visited, for a cyclic [n, k] code or its extension by the
    overall-sum symbol: Brouwer-Zimmermann enumeration of one window,
    positions 0..k - 1, with the cyclic stop rule (Zimmermann 1996; Grassl
    2006), over the window's systematic form built from g.

    The window takes layers w = 1, 2, ..., its messages of weight w.  After
    layer w, a codeword none of whose shifts was visited holds more than w
    nonzeros in each of the n cyclic windows of k positions, each an
    information set; each position lies in k of them, so k wt(c) >=
    n(w + 1).  The enumeration stops once ceil(n(w + 1)/k) passes the least
    weight seen, when every codeword of that weight has a visited shift.
    The overall-sum symbol never lowers a weight and is the same for every
    shift, so the rule holds for the extension too.  The pieces of a layer
    keep its order whatever their size, so the witness does not depend on
    _PASS_WORDS.  Layers 1..k are the (q^k - 1)/(q - 1) messages whose
    last nonzero symbol is 1, so no call visits more."""
    n, k, cols = code.n, code.k, code.n + extended
    window = _window(code, extended)
    best, witness, visited, w = cols + 1, None, 0, 0
    while n * (w + 1) <= k * best:
        w += 1
        for words in window.layer(w):
            visited += words.shape[-1]
            weights = packed.weights(words)
            at = int(weights.argmin())
            if weights[at] < best:
                best, witness = int(weights[at]), words[..., at].copy()
    return best, packed.unpack(witness, cols), visited


def exact_distance(target: CyclicCode | ExtendedCode, cap: int = DEFAULT_CAP,
                   lower: int = 1) -> DistanceReport:
    """Exact minimum distance of a cyclic code, or of its extension by the
    overall-sum coordinate (an ``ExtendedCode``), by Brouwer-Zimmermann
    enumeration of one window with the cyclic stop rule: after the messages
    of weight <= w on positions 0..k - 1, a codeword with no visited shift
    has more than w nonzeros in each of the n cyclic k-windows, so k wt(c)
    >= n(w + 1), and the enumeration stops once ceil(n(w + 1)/k) passes
    the least weight seen.  The witness is the first codeword of the least
    weight that the enumeration meets, layer by layer; ``cap`` bounds q^k,
    the size of the whole message space.  A code of dimension 0 is
    refused."""
    code, extended = (target.code, True) if isinstance(target, ExtendedCode) else (target, False)
    total = code.q ** code.k
    if total > cap:
        raise ValueError(f"q^k = {total} exceeds the enumeration cap {cap}; "
                         "use sampled_upper")
    if not code.k:
        raise ValueError(f"the 0 x {code.n + extended} generator matrix spans no "
                         "nonzero codeword")
    d, cw, _ = _min_weight(code, extended)
    return DistanceReport(lower=lower, upper=d, exact=d, witness_weight=d,
                          method="exhaustive", witness=tuple(int(c) for c in cw))


def weight_distribution(code: CyclicCode) -> dict[int, int]:
    """Complete tally weight -> count over all q^k codewords of a cyclic
    code, q^k up to DEFAULT_CAP, the cap of exact_distance: the window of
    exact_distance run through all its layers 1..k, which meet each of the
    (q^k - 1)/(q - 1) messages whose last nonzero symbol is 1 once.  Their
    q - 1 nonzero multiples weigh the same, and the zero word is added."""
    total = code.q ** code.k
    if total > DEFAULT_CAP:
        raise ValueError(f"q^k = {total} exceeds the tally cap {DEFAULT_CAP}")
    hist = np.zeros(code.n + 1, dtype=np.int64)
    window = _window(code, False)
    for w in range(1, code.k + 1):
        for words in window.layer(w):
            hist += np.bincount(packed.weights(words), minlength=code.n + 1)
    hist *= code.q - 1
    hist[0] += 1
    return {w: int(c) for w, c in enumerate(hist) if c}


# ---------------------------------------------------------------------------
# Randomized upper bound
# ---------------------------------------------------------------------------

def _lightest(masks: np.ndarray, inverse: np.ndarray, stack: np.ndarray, n: int,
              pair_scan: bool):
    """The lightest row of each matrix of a packed (s, W, r, B) stack, or
    with ``pair_scan`` the lightest nonzero word among that row and, for
    each lam != 0, the first lightest nonzero r_i + lam * r_j (i != j) in
    (i, j) order.  Returns the B weights, n + 1 where no word qualifies,
    and the (s, W, B) words.  The pairs are scanned for a few matrices at a
    time, so their (s, W, r, r) words stay within _STACK_WORDS.

    r_i + lam r_j = lam (r_j + lam^(-1) r_i), so the weights of lam are the
    transpose of those of lam^(-1) (``inverse`` is the field's inverse
    table), with the same least weight.  A lam past its inverse comes after
    it and can only tie it, never replace its word, so each pair of inverse
    scalars is scored once, at the smaller; 1 is its own inverse."""
    s, nwords, r, nmat = stack.shape
    weights = packed.weights(stack)
    lanes = np.arange(nmat)
    at = weights.argmin(axis=0)
    best_w, best = weights[at, lanes], stack[:, :, at, lanes]
    if not pair_scan:
        return best_w, best
    best_w[best_w == 0] = n + 1
    diag = np.arange(r)
    step = max(1, _STACK_WORDS // (s * nwords * r * r))
    scalars = [lam for lam in range(1, masks.shape[-1]) if lam <= inverse[lam]]
    for lo in range(0, nmat, step):
        part = stack[..., lo:lo + step]
        part_lanes = np.arange(part.shape[-1])
        for lam in scalars:
            combos = part[:, :, :, None] ^ packed.times(masks, lam, part)[:, :, None]
            w = packed.weights(combos)
            w[w == 0] = n + 1
            w[diag, diag] = n + 1
            w = w.reshape(r * r, -1)
            at = w.argmin(axis=0)
            w = w[at, part_lanes]
            better = np.flatnonzero(w < best_w[lo:lo + step])
            best_w[lo + better] = w[better]
            best[:, :, lo + better] = combos.reshape(s, nwords, r * r, -1)[
                :, :, at[better], better]
    return best_w, best


def _permutations(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """The column orders of forms first..first + count - 1, one a row: row
    f is the argsort of the SplitMix64 outputs (Steele, Lea and Flood 2014)
    of the counters (first + f) n + i + 1, i < n, from a state mixed from
    each 64-bit word of the seed in turn.  The output function is a
    bijection of 64-bit words, so the keys are distinct and any sort gives
    the same order."""
    ones, gamma = (1 << 64) - 1, 0x9E3779B97F4A7C15

    def mix(z):  # on a Python int or a uint64 array
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & ones
        z = (z ^ z >> 27) * 0x94D049BB133111EB & ones
        return z ^ z >> 31

    state = 0
    for shift in range(0, max(1, seed.bit_length()), 64):
        state = mix((state + (seed >> shift) + gamma) & ones)
    counters = np.arange(first * n + 1, (first + count) * n + 1, dtype=np.uint64)
    keys = mix(counters * np.uint64(gamma) + np.uint64(state))
    return keys.reshape(count, n).argsort(axis=1)


def sampled_upper(target: CyclicCode | ExtendedCode, trials: int = 2048, seed: int = 0,
                  lower: int = 1) -> DistanceReport:
    """Reproducible upper bound on the minimum distance of a cyclic code or
    of its extension (an ``ExtendedCode``).

    Candidates, in a fixed order so the result is monotone in ``trials``:
    the generator rows x^j g (with the overall-sum symbol when extended)
    and scaled row pairs, then max(1, trials // 16) random systematic forms,
    each contributing its rows and scaled row pairs (the information-set
    heuristic of Leon 1988 and Stern 1989).  ``exact`` is the witness's
    weight when it meets the certified ``lower``, and None otherwise; a
    witness lighter than ``lower`` contradicts the bound and raises.

    A form is the rref of G Pi, the generator matrix with its columns
    permuted by a random Pi.  It is reduced from S Pi, S = [I | R] the
    systematic form built from g (extended like G), which has the same
    rref, and row_reduce is told where Pi took each row's unit column, so
    it pivots there with no row operation.  Form f's Pi is row 0 of
    _permutations(seed, f, 1, n), so a stack's forms, drawn in one call,
    are those of one call per form.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    code, extended = (target.code, True) if isinstance(target, ExtendedCode) else (target, False)
    field, k, n = code.field, code.k, code.n + extended
    if not k:
        raise ValueError(f"the 0 x {n} generator matrix spans no nonzero codeword")
    masks = packed.scalar_masks(field)
    g = np.asarray(code.generator, dtype=np.uint8)
    rows = np.zeros((k, n), dtype=np.uint8)
    for j in range(k):
        rows[j, j:j + g.size] = g
    if extended:
        rows[:, -1] = np.bitwise_xor.reduce(g)
    gen = packed.pack(rows, field.s)
    pair_scan = k <= _PAIR_SCAN_MAX_K
    weights, words = _lightest(masks, field.np_inv_table, gen[..., None], n, pair_scan)
    best_w, best_cw = int(weights[0]), packed.unpack(words[..., 0], n)
    # the forms permute the systematic form S = [I | R], which spans the
    # generator rows, so row_reduce pivots on each row's unit column for
    # free; S is built once the rows' bytes are packed and dropped
    del rows
    rows = _systematic(code, extended)

    forms = max(1, trials // 16)
    # all of a call's forms share one reduction sweep, and so its per-column
    # cost, when they fit in twice _STACK_WORDS words; more are spread over
    # the fewest stacks of that size, ceil(forms / stacks) to a stack
    fit = max(1, 2 * _STACK_WORDS // gen.size)
    per_stack = -(-forms // -(-forms // fit))
    # forms are packed a group at a time, whose byte gather fits in the same
    # budget: the [1023, 512]_4 forms, 0.5 MB each, go one by one
    group = max(1, 2 * _STACK_WORDS * packed.WORD.itemsize // rows.size)
    for start in range(0, forms, per_stack):
        # the stack's permutations, each a function of (seed, start + f, n)
        count = min(per_stack, forms - start)
        perms = _permutations(seed, start, count, n)
        stack = np.empty(gen.shape + (count,), dtype=packed.WORD)
        for lo in range(0, count, group):
            stack[..., lo:lo + group] = packed.pack(rows.take(perms[lo:lo + group], axis=1),
                                                    field.s)
        # row j's unit column in a form: where its permutation took column j
        reduced, _ = cyclic.row_reduce(field, stack, perms.argsort(axis=1)[:, :k].T)
        weights, words = _lightest(masks, field.np_inv_table, reduced, n, pair_scan)
        for j, perm in enumerate(perms):  # in draw order, so ties go to the first
            if weights[j] < best_w:
                best_w = int(weights[j])
                best_cw = np.zeros(n, dtype=np.uint8)
                best_cw[perm] = packed.unpack(words[..., j], n)

    return DistanceReport(lower=lower, upper=best_w,
                          exact=best_w if best_w <= lower else None,
                          witness_weight=best_w, method="sampled", seed=seed,
                          witness=tuple(int(c) for c in best_cw))


# ---------------------------------------------------------------------------
# Distance equality of a duadic pair
# ---------------------------------------------------------------------------

def verify_duadic_distance_equality(q: int, m: int) -> CheckResult:
    """Certify that the two odd-m digit-parity codes C_0 and C_1 have one
    weight distribution, so one minimum distance, from their generators
    alone, with no distance search.

    The multiplier mu_(-1): c_i -> c_(-i mod n) keeps every weight, and on
    GF(q)[x]/(x^n - 1) it is a ring automorphism, x^i -> x^(-i) (Huffman
    and Pless, 4.3).  So mu_(-1)(a(x) g_0(x)) = a(x^(-1)) mu_(-1)(g_0), and
    once g_1 divides mu_(-1)(g_0), whose n coefficients are those of g_0
    at -i mod n, the image of every codeword of C_0 is a codeword of C_1.
    The map is one to one and k_0 = k_1 (|T_1| = |T_0|), so it maps the
    whole of C_0 onto C_1.  T_1 = -T_0, checked first, is why the division
    leaves no remainder (the roots of mu_(-1)(g_0) are the beta^(-t), t in
    T_0); the division checks that on the generators the library builds."""
    s = q.bit_length() - 1
    if not 1 <= s <= 8 or q != 1 << s:
        raise bounds.DomainError(f"q must be a power of two in 2..256, got {q}")
    if m < 3 or m % 2 == 0:
        raise bounds.DomainError(f"the duadic pair needs odd m >= 3, got m={m}")
    T0, T1 = (coset.build_T(q, m, p) for p in (Parity.EVEN, Parity.ODD))
    if not coset.is_negation(T0, T1):
        return CheckResult(False, "T_1 != -T_0, so mu_(-1) does not map C_0 onto C_1")
    field = make_field(s, m)
    c0, c1 = (cyclic.code_from_T(field, T) for T in (T0, T1))
    n, g0 = field.n, np.asarray(c0.generator, dtype=np.uint8)
    image = np.zeros(n, dtype=np.uint8)
    image[-np.arange(g0.size) % n] = g0
    _, rem = polys._divmod_array(field, image, np.asarray(c1.generator, dtype=np.uint8))
    if rem.size:
        return CheckResult(False, "g_1 does not divide mu_(-1)(g_0), so mu_(-1) does "
                                  "not map C_0 into C_1")
    return CheckResult(True, f"T_1 = -T_0 and g_1 divides mu_(-1)(g_0), so mu_(-1) maps "
                             f"C_0 onto C_1, both [{n},{c0.k}]: one weight distribution, "
                             "one minimum distance")
