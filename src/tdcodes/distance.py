"""Ground-truth minimum-distance machinery: exact distance by
Brouwer-Zimmermann enumeration over disjoint information sets, randomized
upper-bound search for codes too large to enumerate, and complete weight
tallies for tiny codes from a Gray scan of one message per projective point
of the message space (the (q^k - 1)/(q - 1) messages whose last nonzero
symbol is 1, each codeword one row XOR).

Codewords are bit-sliced words (:mod:`tdcodes.packed`): s bit-planes of
ceil(n/64) uint64 values, so a row XOR touches s*ceil(n/64) machine words
and a weight is the popcount of the OR of the planes.  The random draws and
every argmin tie-break are those of the byte-per-symbol engine, and the
exact distance returns the witness of the full Gray scan, the first
minimum-weight codeword in its order, so each result and witness is
unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from tdcodes import bounds, coset, cyclic, packed
from tdcodes.coset import CheckResult, Parity
from tdcodes.cyclic import CyclicCode, GeneratorMatrix
from tdcodes.gf import make_field

DEFAULT_CAP = 1 << 24
_CHUNK_BITS = 10
_PASS_WORDS = 1 << 14
_PAIR_SCAN_MAX_K = 64
_STACK_WORDS = 1 << 15
_ALONE_MESSAGES = 1 << 19


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


def _as_matrix(obj) -> GeneratorMatrix:
    if isinstance(obj, GeneratorMatrix):
        return obj
    if isinstance(obj, CyclicCode):
        return cyclic.generator_matrix(obj)
    raise TypeError(f"expected a cyclic code or generator matrix, got {type(obj)!r}")


def _bit_rows(masks: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """One packed word per message bit of a packed (s, W, k) generator,
    2^t times row j in lane j*s + t: the message space of GF(2^s)^k is an
    XOR-span of k*s words, so Gray enumeration flips one at a time."""
    s = gen.shape[0]
    rows = [packed.times(masks, 1 << t, gen) for t in range(s)]
    return np.stack(rows, axis=-1).reshape(gen.shape[:2] + (-1,))


def _scan(masks: np.ndarray, gen: np.ndarray):
    """The codewords of the (q^k - 1)/(q - 1) messages whose last nonzero
    symbol is 1, one per projective point of the message space, from a
    packed (s, W, k) generator: a nonzero message and its q - 1 nonzero
    multiples give codewords of one weight.  Yields one pass of words at a
    time, each the same array, changed in place for the next pass.

    For each leading symbol j, the words 1*row_j plus the span of the bit
    rows below j*s are Gray enumerated with a vectorized low-bit chunk.  The
    chunk holds the 2^low words of the low message bits in binary order;
    one pass of numpy calls covers 2^steps Gray steps of the bits above, as
    many as fit in _PASS_WORDS uint64 words.  Lane u*2^low + i of a pass is
    chunk word i plus the bit rows low + b for the bits b of gray(u).  As
    gray(t + u) = gray(t) ^ gray(u) for t a multiple of 2^steps, pass p
    holds the words of Gray steps p*2^steps, ..., (p+1)*2^steps - 1 in
    order.  From pass p-1 to pass p, gray(p*2^steps) changes in bit
    steps + ctz(p) and, if steps > 0, in bit steps - 1."""
    rows = _bit_rows(masks, gen)
    s = gen.shape[0]
    kbits = rows.shape[-1]
    top = min(_CHUNK_BITS, kbits)
    chunk = np.zeros(rows.shape[:2] + (1,), dtype=packed.WORD)
    for b in range(top):
        chunk = np.concatenate([chunk, chunk ^ rows[..., b, None]], axis=-1)
    spare = max(0, (_PASS_WORDS // chunk.size).bit_length() - 1)
    offsets = [np.zeros(rows.shape[:2] + (1,), dtype=packed.WORD)]
    for u in range(1, 1 << min(kbits - top, spare)):
        offsets.append(offsets[-1] ^ rows[..., top + (u & -u).bit_length() - 1, None])
    offsets = np.concatenate(offsets, axis=-1)
    for lead in range(0, kbits, s):
        low = min(_CHUNK_BITS, lead)
        steps = min(lead - low, spare)
        words = (offsets[..., :1 << steps, None] ^ chunk[..., None, :1 << low]
                 ^ rows[..., lead, None, None]).reshape(rows.shape[:2] + (-1,))
        for t in range(1 << (lead - low - steps)):
            if t:  # the pass's words in place: XOR in the bit rows gray flips
                words ^= rows[..., low + steps + (t & -t).bit_length() - 1, None]
                if steps:
                    words ^= rows[..., low + steps - 1, None]
            yield words


def _scan_codewords(mat: GeneratorMatrix) -> np.ndarray:
    """The weight tally of all q^k codewords: q - 1 times that of the
    scanned messages, one per projective point, plus the zero codeword."""
    field = mat.field
    hist = np.zeros(mat.cols + 1, dtype=np.int64)
    for words in _scan(packed.scalar_masks(field), packed.pack(mat.array, field.s)):
        hist += np.bincount(packed.weights(words), minlength=mat.cols + 1)
    hist *= field.q - 1
    hist[0] += 1
    return hist


def _scan_position(msgs: np.ndarray, s: int) -> np.ndarray:
    """Position of each message, a (count, k) array of symbols, in the
    order of a full Gray scan: the message is the bit string with bit t of
    symbol j at j*s + t, its low min(_CHUNK_BITS, k*s) bits go in binary
    order and the bits above are Gray coded, so the position is
    invgray(x >> low) << low | x mod 2^low.  Of a message's q - 1 nonzero
    multiples, the one whose last nonzero symbol is 1 comes first (its
    highest set bit is the lowest, and the position keeps the highest set
    bit), so the full scan's first codeword of a weight is that of the
    least position among such messages.  Python integers hold the bit
    strings past 64 bits."""
    k = msgs.shape[-1]
    low = min(_CHUNK_BITS, k * s)
    dtype = packed.WORD if k * s <= 64 else object
    x = np.bitwise_or.reduce(msgs.astype(dtype) << (s * np.arange(k)).astype(dtype), axis=-1)
    high = x >> low
    b = 1
    while b < k * s - low:  # invgray: the XOR of all right shifts
        high ^= high >> b
        b <<= 1
    return high << low | x & ((1 << low) - 1)


def _refuse_zero(mat: GeneratorMatrix) -> None:
    if not mat.array.any():
        raise ValueError(f"the {mat.rows} x {mat.cols} generator matrix spans no "
                         "nonzero codeword")


def _windows(mat: GeneratorMatrix):
    """Disjoint information sets ("windows") of a generator matrix G, taken
    greedily: the pivot columns of [G | I_k], then the first k independent
    columns of those left, and so on while the columns left have rank k.

    Returns None when G has rank below k.  Otherwise returns the inverse E
    of the first window's columns, so E G is systematic there and a
    codeword's symbols on that window are its message in that basis, as
    the packed q multiples of each row of E (a * row i at q i + a), and
    per window its packed systematic form, whose columns are reordered, with
    the places of the first window's columns in that order.  The later
    windows are guessed to be runs of k consecutive columns of those left,
    as they are for a cyclic code, and as many guesses as fit in twice
    _STACK_WORDS words are reduced in one stack: the greedy window of each
    reduction is right while the ones before it were, so a run the
    reduction moves off ends the guess."""
    field, k, n = mat.field, mat.rows, mat.cols
    s = field.s
    nwords = -(-n // 64)
    both = np.concatenate([packed.pack(mat.array, s),
                           packed.pack(np.eye(k, dtype=np.uint8), s)], axis=1)
    reduced, (pivots,) = cyclic.row_reduce(field, both[..., None])
    if pivots[-1] >= 64 * nwords:
        return None
    inverse = packed.multiples(packed.scalar_masks(field), reduced[:, nwords:, :, 0])
    inverse = inverse.reshape(s, -1, k * field.q)
    first = np.array(pivots)
    forms, places = [np.ascontiguousarray(reduced[:, :nwords, :, 0])], [first]
    taken = np.zeros(n, dtype=bool)
    taken[first] = True
    later = np.zeros(0, dtype=np.intp)
    rest = np.flatnonzero(~taken)
    fit = max(1, 2 * _STACK_WORDS // forms[0].size)  # guessed windows a stack holds
    while rest.size >= k:
        starts = range(0, min(rest.size - k + 1, fit * k), k)
        orders = np.stack([np.concatenate([rest[lo:], first, rest[:lo], later])
                           for lo in starts])
        stack, ranked = cyclic.row_reduce(field, packed.pack(mat.array[:, orders], s))
        for b, (lo, piv) in enumerate(zip(starts, ranked)):
            span = rest.size - lo
            if len(piv) < k or piv[-1] >= span:  # the columns left have rank < k
                return inverse, forms, places
            forms.append(np.ascontiguousarray(stack[..., b]))
            places.append(span + np.arange(k))
            taken[orders[b, piv]] = True
            later = np.concatenate([later, orders[b, piv]])
            if piv[-1] != k - 1:  # not the guessed run: the next guesses are off
                break
        rest = np.flatnonzero(~taken)
    return inverse, forms, places


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
        self.multiples = packed.multiples(masks, form)[..., 1:].reshape(s, nwords, -1)
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


def _symbols(words: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The symbols at ``cols`` of each word of an (s, W, c) stack, (c, len(cols))."""
    bits = words[:, cols >> 6] >> (cols & 63).astype(packed.WORD)[:, None]
    bits &= 1
    bits <<= np.arange(words.shape[0], dtype=packed.WORD)[:, None, None]
    return np.bitwise_or.reduce(bits, axis=0).T.astype(np.uint8)


def _earliest(field, inverse: np.ndarray, found: np.ndarray):
    """Of the messages ``found`` in the first window's basis, (count, k),
    the index of the one whose message in G's basis, scaled so that its
    last nonzero symbol is 1, comes first in the full scan, and that scaled
    message.  ``inverse`` holds the q multiples of each packed row of E,
    the message in G's basis is the XOR of the ones the symbols pick; with
    no inverse, the messages are in G's basis already."""
    q, k = field.q, found.shape[1]
    msgs = found
    if inverse is not None:
        picked = inverse.take(found + q * np.arange(k), axis=-1)
        msgs = packed.unpack(np.bitwise_xor.reduce(picked, axis=-1), k)
    last = k - 1 - (msgs[:, ::-1] != 0).argmax(axis=1)
    scale = field.np_inv_table[msgs[np.arange(len(msgs)), last]]
    msgs = field.np_mul_table[scale[:, None], msgs]
    at = int(_scan_position(msgs, field.s).argmin())
    return at, msgs[at]


def _min_weight(mat: GeneratorMatrix):
    """Minimum weight of the codewords of nonzero messages, the scan's
    witness, and the number of messages visited, by Brouwer-Zimmermann
    enumeration over the disjoint information sets of _windows (Zimmermann
    1996; Grassl 2006).

    A nonzero codeword weighs at least w + 1 on a window where its message
    in that window's basis weighs over w.  The windows take layers w = 1,
    2, ... in turn; once every window has visited its messages of weight up
    to done_j, a codeword not seen weighs at least sum(done_j + 1), so the
    enumeration stops when that passes the least weight seen: every
    codeword of minimum weight has then been seen, and the witness is the
    one the full scan reaches first.  If the next layer would take the
    count past the scan's (q^k - 1)/(q - 1) messages, or, from the second
    round on, the layers that would take the bound past the least weight
    seen would, the first window finishes alone, by the scan of its form:
    the count so far is at most the scan's, so no call visits twice as
    many, and a long code of low rate, whose bound grows slowly, goes to
    the scan early.  A message space of
    up to _ALONE_MESSAGES points is scanned whole instead, on [G | I_k],
    whose codewords carry their messages past column n: on random codes of
    2^17 - 1 to 2^19 - 1 points the enumeration took up to 4.5 ms longer
    than this scan, and on those of 2^20 - 1 points and more and of rate at
    least 1/5 it was the faster."""
    field, k, n = mat.field, mat.rows, mat.cols
    q, s = field.q, field.s
    nwords = -(-n // 64)
    points = (q ** k - 1) // (q - 1)
    if points <= _ALONE_MESSAGES:
        inverse, places = None, [64 * nwords + np.arange(k)]
        forms = [np.concatenate([packed.pack(mat.array, s),
                                 packed.pack(np.eye(k, dtype=np.uint8), s)], axis=1)]
    else:
        found = _windows(mat)
        if found is None:  # a nonzero message encodes the zero word
            return 0, np.zeros(n, dtype=np.uint8), 0
        inverse, forms, places = found
    masks = packed.scalar_masks(field)
    per = max(1, _PASS_WORDS // (s * forms[0].shape[1]))
    best, hits, visited = n + 1, {}, 0

    def chunks():
        """The words to score and the window they come from, in turn; the
        schedule reads best and visited as the loop below updates them."""
        if inverse is None:
            yield from ((words, 0) for words in _scan(masks, forms[0]))
            return
        windows = [_Window(masks, form, per) for form in forms]
        count = len(windows)
        upto = list(itertools.accumulate(
            [0] + [math.comb(k, w) * (q - 1) ** (w - 1) for w in range(1, k + 1)]))

        def reach(total):
            """Messages visited once the windows' layers add up to total."""
            level, extra = divmod(total, count)
            return extra * upto[min(level + 1, k)] + (count - extra) * upto[min(level, k)]

        done = [0] * count
        while sum(done) + count <= best:
            j = done.index(min(done))
            w = done[j] + 1
            # in the first round, up to this layer; then up to the bound's passing best
            goal = sum(done) + 1 if w == 1 else best + 1 - count
            if reach(goal) > points:
                yield from ((words, 0) for words in _scan(masks, forms[0]))
                return
            yield from ((words, j) for words in windows[j].layer(w))
            done[j] = w

    def earliest(hits):
        """The index among the hits, window by window, of the witness."""
        found = [_symbols(np.concatenate(words, axis=-1), places[j]) for j, words in hits.items()]
        return _earliest(field, inverse, np.concatenate(found))

    for words, j in chunks():
        visited += words.shape[-1]
        weights = packed.weights(words[:, :nwords])
        least = int(weights.min())
        if least > best:
            continue
        if least < best:
            best, hits, held = least, {}, 0
        hits.setdefault(j, []).append(words[..., weights == best])
        held += hits[j][-1].shape[-1]
        if held > per:  # keep only the earliest so far
            at, _ = earliest(hits)
            for j, words in hits.items():
                words = np.concatenate(words, axis=-1)
                if at < words.shape[-1]:
                    hits, held = {j: [words[..., at:at + 1]]}, 1
                    break
                at -= words.shape[-1]
    _, msg = earliest(hits)
    witness = np.bitwise_xor.reduce(field.np_mul_table[msg[:, None], mat.array], axis=0)
    return best, witness, visited


def exact_distance(code_or_matrix, cap: int = DEFAULT_CAP,
                   lower: int = 1) -> DistanceReport:
    """Exact minimum distance by Brouwer-Zimmermann enumeration, with the
    witness the full scan of one message per projective point would return;
    ``cap`` bounds q^k, the size of the whole message space.  A
    rank-deficient matrix, the all-zero one with rows too, has minimum 0
    and is refused unless lower = 0; a matrix with no rows is refused."""
    mat = _as_matrix(code_or_matrix)
    if not mat.rows:  # no nonzero message to take a minimum over
        _refuse_zero(mat)
    total = mat.field.q ** mat.rows
    if total > cap:
        raise ValueError(f"q^k = {total} exceeds the enumeration cap {cap}; "
                         "use sampled_upper")
    d, cw, _ = _min_weight(mat)
    if d == 0 < lower:
        raise ValueError(f"the {mat.rows}-row generator matrix is rank-deficient: "
                         f"a nonzero message encodes the zero word, below lower={lower}")
    return DistanceReport(lower=lower, upper=d, exact=d, witness_weight=d,
                          method="exhaustive", witness=tuple(int(c) for c in cw))


def weight_distribution(code_or_matrix) -> dict[int, int]:
    """Complete tally weight -> count over all q^k codewords, q^k up to
    DEFAULT_CAP, the cap of exact_distance."""
    mat = _as_matrix(code_or_matrix)
    total = mat.field.q ** mat.rows
    if total > DEFAULT_CAP:
        raise ValueError(f"q^k = {total} exceeds the tally cap {DEFAULT_CAP}")
    hist = _scan_codewords(mat)
    return {w: int(c) for w, c in enumerate(hist) if c}


# ---------------------------------------------------------------------------
# Randomized upper bound
# ---------------------------------------------------------------------------

def _lightest(masks: np.ndarray, stack: np.ndarray, n: int, pair_scan: bool):
    """The lightest row of each matrix of a packed (s, W, r, B) stack, or
    with ``pair_scan`` the lightest nonzero word among that row and, for
    each lam != 0, the first lightest nonzero r_i + lam * r_j (i != j) in
    (i, j) order.  Returns the B weights, n + 1 where no word qualifies,
    and the (s, W, B) words.  The pairs are scanned for a few matrices at a
    time, so their (s, W, r, r) words stay within _STACK_WORDS."""
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
    for lo in range(0, nmat, step):
        part = stack[..., lo:lo + step]
        part_lanes = np.arange(part.shape[-1])
        for lam in range(1, masks.shape[-1]):
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


def _lightest_message(masks: np.ndarray, gen: np.ndarray, n: int, trials: int,
                      rng: np.random.Generator):
    """The lightest nonzero word among ``trials`` random messages times the
    packed (s, W, k) generator, drawn in batches of 512, and its weight:
    the first in draw order, or n + 1 and None if every word is zero.

    A span of generator rows at a time gives its q multiples, a * row j at
    j q + a, from which each chunk of messages gathers what its symbols
    pick and XORs it together.  Table and gathers stay within _STACK_WORDS
    words, so the working memory is batch x n, whatever k is."""
    s, nwords, k = gen.shape
    q = masks.shape[-1]
    span = min(k, max(1, _STACK_WORDS // (s * nwords * q)))
    chunk = max(1, _STACK_WORDS // (s * nwords * span))
    offsets = q * np.arange(span)
    best_w, best = n + 1, None
    done = 0
    while done < trials:
        batch = min(512, trials - done)
        msgs = rng.integers(0, q, size=(batch, k), dtype=np.uint8)
        words = np.zeros((s, nwords, batch), dtype=packed.WORD)
        for row in range(0, k, span):
            multiples = packed.multiples(masks, gen[..., row:row + span]).reshape(s, nwords, -1)
            for lo in range(0, batch, chunk):
                pick = msgs[lo:lo + chunk, row:row + span] + offsets[:min(span, k - row)]
                words[..., lo:lo + chunk] ^= np.bitwise_xor.reduce(
                    multiples.take(pick, axis=-1), axis=-1)
        weights = packed.weights(words)
        weights[weights == 0] = n + 1
        j = int(weights.argmin())
        if weights[j] < best_w:
            best_w, best = int(weights[j]), words[..., j].copy()
        done += batch
    return best_w, best


def sampled_upper(code_or_matrix, trials: int = 2048, seed: int = 0,
                  lower: int = 1) -> DistanceReport:
    """Reproducible upper bound on the minimum distance.

    Candidates, in a fixed order so the result is monotone in ``trials``:
    the generator rows (all cyclic shifts of g for a cyclic code), scaled
    row pairs, ``trials`` random messages, and trials/16 random systematic
    forms (each contributing its rows and scaled row pairs, the standard
    information-set heuristic).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    mat = _as_matrix(code_or_matrix)
    _refuse_zero(mat)
    field = mat.field
    masks = packed.scalar_masks(field)
    n = mat.cols
    k = mat.rows
    gen = packed.pack(mat.array, field.s)
    pair_scan = k <= _PAIR_SCAN_MAX_K
    weights, words = _lightest(masks, gen[..., None], n, pair_scan)
    best_w, best_cw = int(weights[0]), packed.unpack(words[..., 0], n)

    w, word = _lightest_message(masks, gen, n, trials, np.random.default_rng(seed))
    if w < best_w:
        best_w, best_cw = w, packed.unpack(word, n)

    rng_sys = np.random.default_rng((seed * 0x9E3779B97F4A7C15 + 1) & (2**63 - 1))
    forms = max(1, trials // 16)
    # all of a call's forms share one reduction sweep, and so its per-column
    # cost, when they fit in twice _STACK_WORDS words; more are spread over
    # the fewest stacks of that size, ceil(forms / stacks) to a stack
    fit = max(1, 2 * _STACK_WORDS // gen.size)
    per_stack = -(-forms // -(-forms // fit))
    # forms are packed a group at a time, whose byte gather fits in the same
    # budget: the [1023, 512]_4 forms, 0.5 MB each, go one by one
    group = max(1, 2 * _STACK_WORDS * packed.WORD.itemsize // mat.array.size)
    for start in range(0, forms, per_stack):
        perms = [rng_sys.permutation(n) for _ in range(min(per_stack, forms - start))]
        stack = np.empty(gen.shape + (len(perms),), dtype=packed.WORD)
        for lo in range(0, len(perms), group):
            stack[..., lo:lo + group] = packed.pack(
                mat.array.take(np.stack(perms[lo:lo + group]), axis=1), field.s)
        reduced, pivots = cyclic.row_reduce(field, stack)
        weights, words = _lightest(masks, reduced[:, :, :len(pivots[0])], n, pair_scan)
        for j, perm in enumerate(perms):  # in draw order, so ties go to the first
            if weights[j] < best_w:
                best_w = int(weights[j])
                best_cw = np.zeros(n, dtype=np.uint8)
                best_cw[perm] = packed.unpack(words[..., j], n)

    return DistanceReport(lower=lower, upper=best_w, exact=None,
                          witness_weight=best_w, method="sampled", seed=seed,
                          witness=tuple(int(c) for c in best_cw))


# ---------------------------------------------------------------------------
# Distance equality of a duadic pair
# ---------------------------------------------------------------------------

def verify_duadic_distance_equality(q: int, m: int) -> CheckResult:
    """Compare the minimum distances of the two odd-m digit-parity codes:
    exactly when both message spaces fit under DEFAULT_CAP, otherwise by
    sampled upper bounds of the default trials and seed (agreement is
    evidence, not proof)."""
    if m < 3 or m % 2 == 0:
        raise bounds.DomainError(f"the duadic pair needs odd m >= 3, got m={m}")
    s = q.bit_length() - 1
    if q != 1 << s:
        raise bounds.DomainError(f"q must be a power of two, got {q}")
    field = make_field(s, m)
    codes = [cyclic.code_from_T(field, coset.build_T(q, m, p))
             for p in (Parity.EVEN, Parity.ODD)]
    if all(q ** c.k <= DEFAULT_CAP for c in codes):
        d0, d1 = (exact_distance(c).exact for c in codes)
        return CheckResult(d0 == d1, f"exact distances {d0} and {d1}")
    u0, u1 = (sampled_upper(c).upper for c in codes)
    if u0 == u1:
        return CheckResult(True, f"sampled upper bounds agree at {u0} "
                                 "(not a proof of equality)")
    return CheckResult(False, f"inconclusive: sampled upper bounds differ "
                              f"({u0} vs {u1})")
