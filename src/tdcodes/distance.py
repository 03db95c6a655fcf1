"""Ground-truth minimum-distance machinery: exact distance by enumerating
one message per projective point of the message space (the
(q^k - 1)/(q - 1) messages whose last nonzero symbol is 1, Gray-coded so
each codeword is one row XOR), randomized upper-bound search for codes too
large to enumerate, and complete weight tallies for tiny codes.

Codewords are bit-sliced words (:mod:`tdcodes.packed`): s bit-planes of
ceil(n/64) uint64 values, so a row XOR touches s*ceil(n/64) machine words
and a weight is the popcount of the OR of the planes.  The random draws and
every argmin tie-break are those of the byte-per-symbol engine, and the
exact scan returns the witness of its full Gray scan, so each result and
witness is unchanged.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DistanceReport:
    lower: int
    upper: int
    exact: int | None
    witness_weight: int
    method: str  # exhaustive | sampled | none
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


def _bit_rows(mat: GeneratorMatrix) -> np.ndarray:
    """One packed word per message bit, 2^t times row j in lane j*s + t:
    the message space of GF(2^s)^k is an XOR-span of k*s words, so Gray
    enumeration flips one at a time."""
    s = mat.field.s
    gen = packed.pack(mat.array, s)
    masks = packed.scalar_masks(mat.field)
    rows = [packed.times(masks, 1 << t, gen) for t in range(s)]
    return np.stack(rows, axis=-1).reshape(gen.shape[:2] + (-1,))


def _scan_codewords(mat: GeneratorMatrix, want_hist: bool):
    """Minimum nonzero weight, a witness, and (optionally) the full weight
    tally, from one message per projective point: a nonzero message and its
    q - 1 nonzero multiples give codewords of one weight, so only the
    (q^k - 1)/(q - 1) messages whose last nonzero symbol is 1 are visited.

    For each leading symbol j, the words 1*row_j plus the span of the bit
    rows below j*s are Gray enumerated with a vectorized low-bit chunk.  The
    chunk holds the 2^low words of the low message bits in binary order;
    one pass of numpy calls covers 2^steps Gray steps of the bits above, as
    many as fit in _PASS_WORDS uint64 words.  Lane u*2^low + i of a pass is
    chunk word i plus the bit rows low + b for the bits b of gray(u).  As
    gray(t + u) = gray(t) ^ gray(u) for t a multiple of 2^steps, pass p
    holds the words of Gray steps p*2^steps, ..., (p+1)*2^steps - 1 in
    order.  From pass p-1 to pass p, gray(p*2^steps) changes in bit
    steps + ctz(p) and, if steps > 0, in bit steps - 1.

    The tally is q - 1 times that of the visited messages, plus the zero
    codeword.  The witness is the first minimum-weight codeword of the
    order that enumerates all q^k messages with the low min(_CHUNK_BITS,
    k*s) bits in binary order and Gray codes the bits above
    (_scan_position).  Of a message's multiples, the one with leading
    symbol 1 comes first in that order (its highest set bit is the lowest,
    and the position keeps the highest set bit), so the witness is the
    visited message of least position at the minimum."""
    rows = _bit_rows(mat)
    s = mat.field.s
    kbits = rows.shape[-1]
    ncols = mat.cols
    top = min(_CHUNK_BITS, kbits)
    chunk = np.zeros(rows.shape[:2] + (1,), dtype=packed.WORD)
    for b in range(top):
        chunk = np.concatenate([chunk, chunk ^ rows[..., b, None]], axis=-1)
    spare = max(0, (_PASS_WORDS // chunk.size).bit_length() - 1)
    offsets = [np.zeros(rows.shape[:2] + (1,), dtype=packed.WORD)]
    for u in range(1, 1 << min(kbits - top, spare)):
        offsets.append(offsets[-1] ^ rows[..., top + (u & -u).bit_length() - 1, None])
    offsets = np.concatenate(offsets, axis=-1)
    hist = np.zeros(ncols + 1, dtype=np.int64) if want_hist else None

    best_w = ncols + 1
    best_pos, best_cw = None, None
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
            weights = packed.weights(words)
            if want_hist:
                hist += np.bincount(weights, minlength=ncols + 1)
            w = int(weights.min())
            if w > best_w:
                continue
            if w < best_w:
                best_w, best_pos = w, None
            lanes = np.flatnonzero(weights == w)
            ids = lanes.astype(np.uint64)
            g = np.uint64(t << steps) + (ids >> np.uint64(low))  # Gray step
            msgs = ((g ^ g >> np.uint64(1)) << np.uint64(low)
                    | ids & np.uint64((1 << low) - 1) | np.uint64(1 << lead))
            pos = _scan_position(msgs, top)
            at = int(pos.argmin())
            if best_pos is None or pos[at] < best_pos:
                best_pos, best_cw = int(pos[at]), words[..., lanes[at]].copy()
    if want_hist:
        hist *= mat.field.q - 1
        hist[0] += 1
    witness = None if best_cw is None else packed.unpack(best_cw, ncols)
    return best_w, witness, hist


def _scan_position(msgs: np.ndarray, low: int) -> np.ndarray:
    """Position of each message in the order that puts the low bits in
    binary order and Gray codes the bits above:
    invgray(x >> low) << low | x mod 2^low.  Messages are uint64 bit
    strings, so k*s <= 64, past any message space a scan can finish."""
    high = msgs >> np.uint64(low)
    for b in (1, 2, 4, 8, 16, 32):  # invgray: the XOR of all right shifts
        high ^= high >> np.uint64(b)
    return high << np.uint64(low) | msgs & np.uint64((1 << low) - 1)


def exact_distance(code_or_matrix, cap: int = DEFAULT_CAP,
                   lower: int = 1) -> DistanceReport:
    """Exact minimum distance by enumerating one message per projective
    point; ``cap`` bounds q^k, the size of the whole message space.  A
    rank-deficient matrix has minimum 0 and is refused unless lower = 0."""
    mat = _as_matrix(code_or_matrix)
    total = mat.field.q ** mat.rows
    if total > cap:
        raise ValueError(f"q^k = {total} exceeds the enumeration cap {cap}; "
                         "use sampled_upper")
    d, cw, _ = _scan_codewords(mat, want_hist=False)
    if d == 0 < lower:
        raise ValueError(f"the {mat.rows}-row generator matrix is rank-deficient: "
                         f"a nonzero message encodes the zero word, below lower={lower}")
    return DistanceReport(lower=lower, upper=d, exact=d, witness_weight=d,
                          method="exhaustive", witness=tuple(int(c) for c in cw))


def weight_distribution(code_or_matrix, cap: int = 1 << 20) -> dict[int, int]:
    """Complete tally weight -> count over all q^k codewords."""
    mat = _as_matrix(code_or_matrix)
    total = mat.field.q ** mat.rows
    if total > cap:
        raise ValueError(f"q^k = {total} exceeds the tally cap {cap}")
    _, _, hist = _scan_codewords(mat, want_hist=True)
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
    for start in range(0, forms, per_stack):
        perms = [rng_sys.permutation(n) for _ in range(min(per_stack, forms - start))]
        stack = np.empty(gen.shape + (len(perms),), dtype=packed.WORD)
        for j, perm in enumerate(perms):
            stack[..., j] = packed.pack(mat.array.take(perm, axis=1), field.s)
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

def verify_duadic_distance_equality(q: int, m: int, cap: int = DEFAULT_CAP,
                                    trials: int = 2048,
                                    seed: int = 0) -> CheckResult:
    """Compare the minimum distances of the two odd-m digit-parity codes:
    exactly when both message spaces fit under ``cap``, otherwise by sampled
    upper bounds with one shared budget (agreement is evidence, not proof)."""
    if m < 3 or m % 2 == 0:
        raise bounds.DomainError(f"the duadic pair needs odd m >= 3, got m={m}")
    s = q.bit_length() - 1
    if q != 1 << s:
        raise bounds.DomainError(f"q must be a power of two, got {q}")
    field = make_field(s, m)
    codes = [cyclic.code_from_T(field, coset.build_T(q, m, p))
             for p in (Parity.EVEN, Parity.ODD)]
    if all(q ** c.k <= cap for c in codes):
        d0, d1 = (exact_distance(c, cap=cap).exact for c in codes)
        return CheckResult(d0 == d1, f"exact distances {d0} and {d1}")
    u0, u1 = (sampled_upper(c, trials=trials, seed=seed).upper for c in codes)
    if u0 == u1:
        return CheckResult(True, f"sampled upper bounds agree at {u0} "
                                 "(not a proof of equality)")
    return CheckResult(False, f"inconclusive: sampled upper bounds differ "
                              f"({u0} vs {u1})")
