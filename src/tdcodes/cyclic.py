"""Cyclic codes over GF(q) from defining sets: minimal and generator
polynomials, dimensions, derived codes (dual, complement, even-like,
extended), the row reduction of permuted systematic forms on bit-sliced
words for the distance engine, and the structure checks (LCD,
self-orthogonal, self-dual extension, hull dimension).  These read g(x)
alone, never a matrix: the Gram matrix of the rows x^j g(x) off the
autocorrelation of g, and the hull off gcd(g, g*) with the reciprocal g*.

Code equality is equality of (field, defining set), and derived codes
(dual, complement, even-like) transform the defining set's mask.  The
generator polynomial, one minimal polynomial per coset leader in T, is
computed lazily since set-level derivations never need it.  All minimal
polynomials step together on the field's log/exp tables, and a balanced
product tree folds them on the batched multiply of :mod:`tdcodes.polys`,
an exact bit-plane FFT for long operands.

``row_reduce`` brings a whole stack of permuted systematic forms to reduced
echelon form in one sweep, one 64-column strip at a time.  Its unit map
says where each row's unit column lies in each form: there a row not yet
used has a free pivot, with no row operation, and the forms step through
their other columns, their slots, in lockstep.  Where it pays, the words
right of a strip take all of its steps at once from Four-Russians tables,
as in M4RI (Albrecht, Bard and Hart, the Method of Four Russians over
GF(2)) and its GF(2^e) extension M4RIE (Albrecht), whose bit-sliced layout
:mod:`tdcodes.packed` uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from tdcodes import coset, packed, polys
from tdcodes.coset import DefiningSet, complement_set, dual_defining_set
from tdcodes.gf import FieldError, FieldSpec


def _minimal_polynomials(field: FieldSpec, leaders: np.ndarray):
    """The minimal polynomials of beta^e for the coset leaders e, as uint8
    rows of m + 1 base coefficients (zero above each degree) and their
    degrees.  All rows step at once: step t multiplies each row by
    x + beta^(e q^t) by log/exp gathers, until e q^(t+1) = e closes the
    row's coset."""
    exp, log = field._ext_tables
    n, q = field.n, field.q
    acc = np.zeros((leaders.size, field.m + 1), dtype=np.int32)  # extension coefficients
    acc[:, 0] = 1
    degrees = np.zeros(leaders.size, dtype=np.intp)
    r = leaders.astype(np.int64)
    live = np.ones(leaders.size, dtype=bool)
    while live.any():
        step = np.where(acc != 0, exp.take((log.take(acc) + r[:, None]) % n), 0)
        step[:, 1:] ^= acc[:, :-1]
        acc = np.where(live[:, None], step, acc)
        degrees += live
        r = r * q % n
        live &= r != leaders
    if (acc >= q).any():
        raise FieldError("a minimal polynomial coefficient is not in the base subfield")
    return acc.astype(np.uint8), degrees


def generator_polynomial(field: FieldSpec, T: DefiningSet) -> tuple[int, ...]:
    """Product of the minimal polynomials of the cosets in T, one per coset
    leader, folded by a balanced product tree."""
    if T.first_unclosed is not None:
        raise ValueError("defining set is not closed under multiplication by q")
    leaders = coset.leader_mask(field.q, field.n)
    leaders &= T.mask
    leaders = np.flatnonzero(leaders)
    g = polys._fold(field, *_minimal_polynomials(field, leaders))
    assert g.size - 1 == len(T)
    return tuple(g.tolist())


@dataclass(frozen=True)
class CyclicCode:
    """A q-ary cyclic code of length n = q^m - 1 given by its defining set."""

    field: FieldSpec
    T: DefiningSet

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def k(self) -> int:
        return self.n - len(self.T)

    @cached_property
    def generator(self) -> tuple[int, ...]:
        return generator_polynomial(self.field, self.T)


def code_from_T(field: FieldSpec, T: DefiningSet) -> CyclicCode:
    if T.n != field.n or T.q != field.q:
        raise ValueError(f"defining set (n={T.n}, q={T.q}) does not match the "
                         f"field (n={field.n}, q={field.q})")
    if T.first_unclosed is not None:
        raise ValueError("defining set is not closed under multiplication by q")
    return CyclicCode(field, T)


def even_like(code: CyclicCode) -> CyclicCode:
    """Adjoin 0 to the defining set, dropping the dimension by one.  When
    the code's generator is already known, the even-like generator is
    (x + 1) g(x), so it is set from g instead of folded again."""
    if 0 in code.T:
        raise ValueError("0 is already in the defining set")
    mask = code.T.mask.copy()
    mask[0] = True
    out = CyclicCode(code.field, DefiningSet(code.q, mask))
    if "generator" in vars(code):
        vars(out)["generator"] = polys.mul(code.field, (1, 1), code.generator)
    return out


def dual_code(code: CyclicCode) -> CyclicCode:
    return CyclicCode(code.field, dual_defining_set(code.T))


def complement_code(code: CyclicCode) -> CyclicCode:
    return CyclicCode(code.field, complement_set(code.T))


def is_lcd(code: CyclicCode) -> bool:
    """LCD iff the defining set is fixed by negation."""
    return coset.is_negation(code.T, code.T)


# ---------------------------------------------------------------------------
# The extension, and the row reduction of permuted systematic forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedCode:
    """The [n + 1, k] extension of a cyclic code by the overall-sum
    coordinate (characteristic 2: the XOR of a codeword's symbols)."""

    code: CyclicCode


def extend_code(code: CyclicCode) -> ExtendedCode:
    return ExtendedCode(code)


_BLOCK_WORDS = 1 << 15  # words a row update or a table holds per numpy call, to stay in cache


def row_reduce(field: FieldSpec, stack: np.ndarray,
               units: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Reduced row echelon forms over GF(q) of a stack of B permuted
    systematic forms with k rows each, all in one column sweep; returns
    (rrefs, pivot columns of each matrix).

    The stack is bit-sliced (:mod:`tdcodes.packed`), (s, W, k, B), and so
    are the rrefs; a lone matrix is a stack with B = 1.  ``units``, (k, B),
    is the stack's unit map: column units[j, b] of matrix b is the unit
    vector of its row j, 1 in row j and 0 in every other row (the caller's
    promise; it is not checked), so every matrix has rank k.

    The sweep takes one 64-column word, a strip, at a time.  The columns
    that are no row's unit column are the slots, and the matrices step
    through their own slots in lockstep, each to its next one in the strip:
    at each slot every matrix reads its column, one bit per plane and row,
    and takes as pivot, of the rows not yet used that are nonzero there,
    the one whose unit column comes last.  To make that the first
    candidate, each matrix's rows are put in order of their unit columns,
    last first, at the start.  Each matrix then XORs into every row the
    multiple of its pivot row that the row's entry / lead selects, by one
    `take` from the pivot rows' q multiples; the pivot row's entry, set to
    lead + 1, selects 1 + 1/lead, which normalises it.  The rows not yet
    used are zero left of the column, so the earlier words stay as they
    are.  A matrix with no pivot in its slot, or no slot left in the strip,
    picks a spare zero row k instead, which changes nothing.

    A unit column takes no step.  While its row is not yet used it is
    still that row's unit vector, as each pivot row until then is zero
    there: it is a free pivot, which the row takes with no row operation.
    Once a slot has taken its row it is no pivot at all: a row not yet used
    is nonzero there only through the steps since, and each step's pivot
    row has the last unit column of its candidates, so every such row has
    its unit column before it and is used by the time the sweep gets
    there.  So each row takes one pivot, at a slot or its unit column.  A
    matrix is done once every row is used, past the last unit column of a
    row no slot has taken; its slots after that take no pivot and cost
    nothing while another matrix takes one, and the first slot where none
    does drops them.

    A step touches the strip's word and every word to its right, unless the
    strip is tracked, as in M4RI.  Then each row carries a tracker word
    instead, whose symbol j is the coefficient of the strip's j-th pivot
    row, as it was when the strip began, in what the row has gained: the
    pivot row enters step j with symbol j set, so the row updates keep the
    trackers too.  After the strip, the words to its right take all of its
    steps at once from Four-Russians tables of the q^g combinations of g
    strip-start pivot rows each (:func:`_add_combinations`).  Through the
    tables a step costs a row (q^g + k + 1) / (g (k + 1)) word updates per
    word, against one directly, where g = 8 // s, so q^g <= 256 and a
    group's symbols fill at most a byte of each tracker plane.  A strip is
    tracked when that, with the tracker's own word, is the cheaper and its
    words to the right hold a block of _BLOCK_WORDS (below that a
    step's numpy calls cost more than its words): the large forms, such as
    the [1023, 512]_4 and [4095, 2047]_4 ones of ``sampled_upper``.  A
    strip takes at most 64 slots, so its steps fit the tracker's 64
    symbols.  The rref of a matrix is unique, whichever rows take its
    pivots, so the rows need no swaps: they are put in pivot order once,
    at the end."""
    s, nwords, k, nmat = stack.shape
    width = 64 * nwords
    lanes = np.arange(nmat)
    # each row's unit column, from the strip's first column; each matrix's
    # rows go by their unit columns, last first, so the first candidate row
    # is the one whose unit column comes last
    unit_col = np.empty((k + 1, nmat), dtype=np.intp)
    rows = np.zeros((s, nwords, k + 1, nmat), dtype=packed.WORD)
    rank = (-units).argsort(axis=0)
    unit_col[:k] = np.take_along_axis(units, rank, axis=0)
    rows[:, :, :k] = np.take_along_axis(stack, rank[None, None], axis=2)
    unit_col[k] = -1 - width           # the spare's: never past a slot
    key = unit_col[:k].copy()          # becomes each row's pivot column
    work = np.empty((s, 2, k + 1, nmat), dtype=packed.WORD)  # the strip's word, the tracker
    places = (1 << np.arange(s, dtype=np.uint8))[:, None, None]   # of the planes' bits
    masks = packed.scalar_masks(field)
    # a / c at [c, a], as the place of that multiple in the flat table
    divided = field.np_mul_table[field.np_inv_table].astype(np.intp) * nmat
    by_lane = np.tile(field.q * lanes, (k + 1, 1))
    span = max(1, _BLOCK_WORDS // (s * (k + 1) * nmat))
    gathered = np.empty(max(_BLOCK_WORDS, 2 * s * (k + 1) * nmat), dtype=packed.WORD)
    g = 8 // s
    # word updates a step costs a row per word right of a tracked strip
    share = ((1 << s * g) + k + 1) / (g * (k + 1))
    bits = np.left_shift(1, np.arange(64, dtype=packed.WORD), dtype=packed.WORD)
    below = np.append(bits - 1, ~packed.WORD.type(0))   # the columns left of c at [c]
    bit_of = np.zeros(66, dtype=packed.WORD)              # column c's bit at [c + 1]
    bit_of[1:65] = bits
    free = np.ones((k + 1, nmat), dtype=bool)  # not yet a slot's pivot; row k: the spare
    cand = np.ones((k + 1, nmat), dtype=bool)  # the spare stays a candidate
    cols: list[np.ndarray] = []        # per step: each matrix's column
    used: list[np.ndarray] = []        # and pivot row (k for none)
    for w in range(nwords):
        base = 64 * w
        if w:
            unit_col -= 64             # from the strip's first column
        # a lane has slots left of its last unit column of a row not yet used
        last = unit_col[free.argmax(axis=0), lanes]
        if last.max() < 0:
            break
        right = nwords - w - 1
        tracked = 1 + right * share < right and s * (k + 1) * nmat * right >= _BLOCK_WORDS
        if tracked:
            strip = work
            strip[:, 0] = rows[:, w]
            strip[:, 1] = 0
        else:
            strip = rows[:, w:]
        words = strip[:, 0]
        blocks = [(lo, strip[:, lo:lo + span]) for lo in range(0, strip.shape[1], span)]
        blocks = [(lo, block, _front(gathered, block.shape)) for lo, block in blocks]
        first = len(cols)
        lit = bit_of.take(unit_col + 1, mode="clip")
        todo = ~np.bitwise_or.reduce(lit, axis=0) & below.take(last, mode="clip")
        while todo.any():              # each lane's slots, as bits
            low = todo & np.negative(todo)
            todo ^= low
            slot = np.bitwise_count(low - 1)   # 64, and a zero column, for a lane with none left
            col = np.bitwise_count(words & low)
            col *= places
            col = col.sum(axis=0, dtype=np.uint8)
            np.logical_and(col[:k], free[:k], out=cand[:k])
            p = cand.argmax(axis=0)
            # the first candidate, unless its unit column is passed: then
            # it is a free pivot already, and so is every candidate
            hit = unit_col[p, lanes] > slot
            if not hit.any():
                # a lane past its last unit column of a row not yet used is
                # done: until no lane takes a pivot, its slots cost nothing
                todo &= below.take(unit_col[free.argmax(axis=0), lanes], mode="clip")
                continue
            p = np.where(hit, p, k)
            lead = col[p, lanes]       # zero for a matrix that takes the spare
            free[p, lanes] = False
            free[k] = True             # so a lane with every row used finds the spare's column
            pivot = strip[:, :, p, lanes]
            if tracked:
                pivot[0, 1] |= bits[len(cols) - first]
            # a row picks the multiple entry / lead of the pivot row, and the
            # pivot row's entry, set to lead + 1, gives 1 + 1/lead; a times
            # lane b's pivot row is at a B + b
            table = packed.multiples(masks, pivot).reshape(s, strip.shape[1], -1)
            col[p, lanes] = lead ^ 1
            pick = (divided[lead] + lanes[:, None]).ravel().take(col + by_lane)
            for lo, block, into in blocks:
                np.take(table[:, lo:lo + span], pick, axis=-1, out=into, mode="clip")
                block ^= into
            cols.append(base + slot.astype(np.intp))
            used.append(p)
        if tracked:
            rows[:, w] = work[:, 0]
            if len(cols) > first:
                _add_combinations(masks, g, rows[:, w + 1:], work[:, 1], used[first:], gathered)
    # a row's key is its pivot column: a slot's column, or its unit column
    # if no slot took the row
    used_at = np.array(used, dtype=np.intp).reshape(-1, nmat)
    step, mat = np.nonzero(used_at < k)
    key[used_at[step, mat], mat] = np.array(cols, dtype=np.intp).reshape(-1, nmat)[step, mat]
    order = key.argsort(axis=0)
    pivots = np.take_along_axis(key, order, axis=0).T.tolist()
    order = order * nmat + lanes       # one flat take, so the rrefs are C-ordered
    return rows.reshape(s, nwords, -1).take(order, axis=-1), pivots


def _front(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The front of a flat buffer as an array of the given shape: the
    kernel gathers into it, so its loops allocate no large temporaries."""
    return buffer[:int(np.prod(shape))].reshape(shape)


def _add_combinations(masks: np.ndarray, g: int, right: np.ndarray, tracker: np.ndarray,
                      steps: list[np.ndarray], buffer: np.ndarray) -> None:
    """Give the words right of a strip, (s, W', k + 1, B), all of the strip's
    steps at once: each row gains the combination of the strip-start pivot
    rows (row steps[j][b] of matrix b for step j) that its tracker word
    holds.  The steps go in groups of g = 8 // s, so q^g <= 256; a group's
    table holds all q^g combinations of its g pivot rows, entry
    sum_(i,u) 2^(g u + i) being the sum of 2^u times pivot row i over the
    bits u of symbol i set in it.  So a row's entry is bits G g, ..., G g +
    g - 1 of each tracker plane u, at bit g u, all within one byte.  A
    table is the XOR of the spans of its low and high s g / 2 words, each
    built by doubling, for a batch of groups at once, and the rows read it
    by one take.  Words and lanes go in tiles whose tables and gathers hold
    at most _BLOCK_WORDS words (or one word of one lane, if that is more)."""
    s, nwords, nrows, nmat = right.shape
    size = 1 << (s * g)
    ngroups = -(-len(steps) // g)
    pivots = np.full((ngroups * g, nmat), nrows - 1, dtype=np.intp)  # padded with the spare
    pivots[:len(steps)] = steps
    per_byte = 8 // g
    octets = tracker.view(np.uint8).reshape(s, nrows, nmat, 8).transpose(0, 3, 1, 2)
    shifts = (g * np.arange(per_byte, dtype=np.uint8))[:, None, None, None]
    entry = np.zeros((per_byte, 8, nrows, nmat), dtype=np.uint8)  # group per_byte m + r at [r, m]
    for u in range(s):
        plane = (octets[u] >> shifts) & ((1 << g) - 1)
        plane <<= g * u
        entry |= plane
    low = s * g // 2                   # the bits of the low span
    cells = max(1, _BLOCK_WORDS // (s * max(nrows, size)))    # words x lanes per tile
    lane_span = min(nmat, cells)
    word_span = max(1, cells // lane_span)
    for b0 in range(0, nmat, lane_span):
        lanes = np.arange(b0, min(nmat, b0 + lane_span))
        offsets = size * (lanes - b0)
        for lo in range(0, nwords, word_span):
            part = right[:, lo:lo + word_span, :, b0:b0 + lanes.size]
            into = _front(buffer, part.shape)
            rows = np.ascontiguousarray(part[:, :, pivots[:, lanes], lanes - b0])
            # word g u + i of group G: 2^u times its pivot row i, (G, s, W'', lanes)
            basis = [rows] + [packed.times(masks, 1 << u, rows) for u in range(1, s)]
            basis = [b.reshape(s, -1, ngroups, g, lanes.size).transpose(2, 3, 0, 1, 4)
                     for b in basis]
            words = [b[:, i] for b in basis for i in range(g)]
            batch = max(1, _BLOCK_WORDS // (s * part.shape[1] * lanes.size * size))
            tables = np.empty((min(batch, ngroups), s, part.shape[1], lanes.size, size),
                              dtype=packed.WORD)
            for g0 in range(0, ngroups, batch):
                low_span, high_span = (_span([w[g0:g0 + batch] for w in half])
                                       for half in (words[:low], words[low:]))
                table = tables[:low_span.shape[0]]
                np.bitwise_xor(high_span[..., :, None], low_span[..., None, :],
                               out=table.reshape(high_span.shape + low_span.shape[-1:]))
                for t, group in enumerate(table, start=g0):
                    pick = entry[t % per_byte, t // per_byte, :, b0:b0 + lanes.size] + offsets
                    np.take(group.reshape(s, part.shape[1], -1), pick, axis=-1, out=into,
                            mode="clip")
                    part ^= into


def _span(words: list[np.ndarray]) -> np.ndarray:
    """All XOR combinations of the words, entry e the XOR of words[i] over
    the bits i set in e, on a new last axis, built by doubling."""
    table = np.zeros(words[0].shape + (1 << len(words),), dtype=packed.WORD)
    for i, word in enumerate(words):
        np.bitwise_xor(table[..., :1 << i], word[..., None], out=table[..., 1 << i:2 << i])
    return table

def _gram_band(code: CyclicCode) -> np.ndarray:
    """(r(0), ..., r(k-1)), r(d) = sum_u g_u g_(u+d).

    The rows x^j g(x), j < k, never wrap around, so their Gram matrix is
    Toeplitz with entries r(|i - j|).  r(d) is the coefficient of
    x^(deg g + d) in g(x) * x^(deg g) g(1/x); lags past deg g are zero."""
    g = code.generator
    lags = polys.mul(code.field, g, g[::-1])[len(g) - 1:][:code.k]
    band = np.zeros(code.k, dtype=np.uint8)
    band[:len(lags)] = lags
    return band


def is_self_orthogonal(code: CyclicCode) -> bool:
    return not _gram_band(code).any()


def extension_is_self_dual(code: CyclicCode) -> bool:
    """Whether the code extended by the overall-sum coordinate is self-dual:
    each extended row gains the coordinate g(1), which adds g(1)^2 to every
    Gram entry."""
    if 2 * code.k != code.n + 1:
        return False
    g1 = int(np.bitwise_xor.reduce(code.generator))
    return bool((_gram_band(code) == code.field.base_mul(g1, g1)).all())


def hull_dimension(code: CyclicCode) -> int:
    """dim(C intersect C-dual) = |T minus -T| = deg g - deg gcd(g, g*): the
    reciprocal g*(x) = x^(deg g) g(1/x) has the roots beta^(-i), i in T.
    Zero exactly when g is self-reciprocal, the LCD criterion of Yang and
    Massey."""
    g = code.generator
    return len(g) - len(polys.gcd(code.field, g, g[::-1]))


# ---------------------------------------------------------------------------
# Rendering and JSON output
# ---------------------------------------------------------------------------

def poly_pretty(field: FieldSpec, p) -> str:
    """Descending-degree display with w-power coefficients."""
    if not p:
        return "0"
    text = [field.base_text(c) for c in range(field.q)]
    coef = ["", ""] + [t + " " for t in text[2:]]  # 1 x^d prints as x^d
    terms = [f"{coef[p[d]]}x^{d}" for d in range(len(p) - 1, 1, -1) if p[d]]
    if len(p) > 1 and p[1]:
        terms.append(f"{coef[p[1]]}x")
    if p[0]:
        terms.append(text[p[0]])
    return " + ".join(terms)


def code_to_json(code: CyclicCode, parity: int | None = None,
                 variant: str | None = None) -> dict:
    data = {
        "q": code.q,
        "m": code.field.m,
        "n": code.n,
        "k": code.k,
        "defining_set": list(code.T.elems),
        "generator_poly": list(code.generator),
    }
    if parity is not None:
        data["parity"] = int(parity)
    if variant is not None:
        data["variant"] = variant
    return data

