"""Bit-sliced GF(2^s) words and the row reduction built on them, checked
against the byte-per-symbol references in oracle.py."""

import numpy as np
import pytest

import oracle
from tdcodes import cyclic, distance, packed
from tdcodes.coset import build_T
from tdcodes.cyclic import code_from_T, extend_code
from tdcodes.gf import make_field

# (s, m) of the parity codes with n <= 255; for s >= 5 the smallest one has
# n >= 1023, so those fields use the rows x^j g(x) of a random g instead
PARITY_FIELDS = {1: (1, 6), 2: (2, 3), 3: (3, 2), 4: (4, 2)}


def banded_matrix(field, k, n, rng):
    """Rows x^j g(x), j < k, of a random g of degree n - k with g(0) != 0."""
    g = rng.integers(0, field.q, size=n - k + 1, dtype=np.uint8)
    g[0] = g[-1] = 1
    arr = np.zeros((k, n), dtype=np.uint8)
    for j in range(k):
        arr[j, j:j + g.size] = g
    return oracle.GeneratorMatrix(field, arr)


def small_generator(s, parity, rng):
    if s in PARITY_FIELDS:
        f = make_field(*PARITY_FIELDS[s])
        return oracle.generator_matrix(code_from_T(f, build_T(f.q, f.m, parity)))
    return banded_matrix(make_field(s, 2), 10, 70, rng)


@pytest.mark.parametrize("s", range(1, 9))
def test_packed_words_round_trip_against_the_byte_encoder(s):
    rng = np.random.default_rng(s)
    mat = small_generator(s, 0, rng)
    f, n = mat.field, mat.cols
    masks = packed.scalar_masks(f)
    gen = packed.pack(mat.array, s)
    assert gen.shape == (s, (n + 63) // 64, mat.rows) and gen.dtype == packed.WORD
    assert np.array_equal(packed.unpack(gen, n), mat.array)
    msgs = rng.integers(0, f.q, size=(12, mat.rows), dtype=np.uint8)
    msgs[0] = 0
    for msg in msgs:
        word = np.zeros(gen.shape[:2], dtype=packed.WORD)
        for j, a in enumerate(msg):
            word ^= packed.times(masks, int(a), gen[..., j])
        expected = oracle.encode(mat, msg)
        assert np.array_equal(packed.unpack(word, n), expected)
        assert packed.weights(word) == np.count_nonzero(expected)
    by_lane = packed.multiples(masks, gen)
    assert by_lane.shape == gen.shape[:2] + (f.q, mat.rows)
    assert np.array_equal(packed.unpack(by_lane, n), f.np_mul_table[:, mat.array])


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 200])
@pytest.mark.parametrize("s", [1, 3, 8])
def test_pack_unpack_and_weights_across_word_boundaries(s, n):
    rng = np.random.default_rng(1000 * s + n)
    words = rng.integers(0, 1 << s, size=(3, 5, n), dtype=np.uint8)
    words[0, 0] = 0
    words[1, 2, ::2] = 0
    planes = packed.pack(words, s)
    W = (n + 63) // 64
    assert planes.shape == (s, W, 3, 5)
    assert np.array_equal(packed.unpack(planes, n), words)
    assert not packed.unpack(planes, 64 * W)[..., n:].any()  # zero padding
    assert np.array_equal(packed.weights(planes), np.count_nonzero(words, axis=-1))


@pytest.mark.parametrize("n", [63, 64, 65, 1023])
@pytest.mark.parametrize("s", [1, 2, 3, 8])
@pytest.mark.parametrize("ndim", [2, 3])
def test_pack_across_its_blocks_is_each_leading_row_packed_alone(ndim, s, n):
    rows = packed._PACK_BYTES // n + 7  # one block and part of another
    lead = (rows,) if ndim == 2 else (5, -(-rows // 5))  # the block ends inside a row
    rng = np.random.default_rng(1000 * s + n)
    words = rng.integers(0, 1 << s, size=lead + (n,), dtype=np.uint8)
    planes = packed.pack(words, s)
    assert planes.shape == (s, (n + 63) // 64) + lead
    alone = np.stack([packed.pack(row, s) for row in words.reshape(-1, n)], axis=-1)
    assert np.array_equal(planes.reshape(alone.shape), alone)
    assert np.array_equal(packed.unpack(planes, n), words)


def systematic(p):
    """[I | P] for a k x (n - k) matrix P."""
    return np.concatenate([np.eye(p.shape[0], dtype=np.uint8), p], axis=1)


def unit_forms(field, a, perms):
    """The forms a Pi of a systematic a = [I | P] under the column
    permutations perms, (B, n): one byte per symbol, (k, B, n), and packed,
    (s, W, k, B), with the stack's unit map, (k, B): row j's unit column in
    form b is where perms[b] takes column j."""
    k = a.shape[0]
    assert np.array_equal(a[:, :k], np.eye(k, dtype=np.uint8))
    forms = a.take(perms, axis=1)
    return forms, packed.pack(forms, field.s), perms.argsort(axis=1)[:, :k].T


def reduce_forms(field, a, perms):
    """Row-reduce the forms a Pi as one packed stack with their unit map;
    returns each form, one byte per symbol, with its rref unpacked and its
    pivots, after checking that the stack is kept."""
    forms, stack, units = unit_forms(field, a, perms)
    before = stack.copy()
    rrefs, pivots = cyclic.row_reduce(field, stack, units)
    assert np.array_equal(stack, before)
    assert rrefs.shape == stack.shape and rrefs.dtype == packed.WORD
    assert len(pivots) == len(perms)
    return [(forms[:, b], packed.unpack(rrefs[..., b], a.shape[1]), pivots[b])
            for b in range(len(perms))]


def assert_forms_match_the_byte_oracle(field, a, perms):
    got = reduce_forms(field, a, perms)
    for form, rref, pivots in got:
        ref, ref_pivots = oracle.row_reduce(field, form)
        assert pivots == ref_pivots
        assert np.array_equal(rref, ref)
    return got


def row_reduce_cases():
    """(name, field, a = [I | P], the column permutation of its own form)."""
    rng = np.random.default_rng(2024)
    cases = []
    for s in (1, 2, 3, 4):
        for parity in (0, 1):
            mat = small_generator(s, parity, rng)
            a = oracle.row_reduce(mat.field, mat.array)[0]
            cases.append((f"parity-s{s}-p{parity}", mat.field, a, rng.permutation(mat.cols)))
    f8 = make_field(8, 2)
    a = oracle.row_reduce(f8, banded_matrix(f8, 40, 90, rng).array)[0]
    cases.append(("banded-s8", f8, a, rng.permutation(90)))
    f2 = make_field(2, 2)
    p = rng.integers(0, 4, size=(10, 30), dtype=np.uint8)
    p[:, [0, 5, 6, 29]] = 0
    cases.append(("zero-columns", f2, systematic(p), rng.permutation(40)))
    f3 = make_field(3, 2)
    p = rng.integers(0, 8, size=(1, 76), dtype=np.uint8)
    p[0, :9] = 0
    cases.append(("one-row", f3, systematic(p), rng.permutation(77)))
    # q = 8 takes 40 rows where n is below 70
    for n, field, k in [(63, f2, 20), (64, f2, 20), (65, f2, 20), (128, f2, 20),
                        (63, f3, 40), (64, f3, 40), (65, f3, 40), (128, f3, 70)]:
        p = rng.integers(0, field.q, size=(k, n - k), dtype=np.uint8)
        p[:, -1] = 0
        cases.append((f"n{n}-q{field.q}-k{k}", field, systematic(p), rng.permutation(n)))
    return cases + strip_cases(rng)


# (s, n, k) of matrices that cross 64-column strips: with a small block
# budget the words right of a strip take its steps through the tables, in
# groups of g = 8 // s steps, for s <= 4 where the rows outnumber a table
STRIP_SHAPES = [(1, 129, 65), (1, 257, 200), (1, 448, 250), (2, 200, 65), (2, 257, 130),
                (2, 320, 200), (2, 320, 250), (3, 200, 130), (3, 320, 130), (3, 257, 200),
                (4, 129, 65), (4, 448, 400), (8, 200, 65), (8, 257, 130)]


def strip_cases(rng):
    cases = []
    for s, n, k in STRIP_SHAPES:
        f = make_field(s, 2)
        a = systematic(rng.integers(0, f.q, size=(k, n - k), dtype=np.uint8))
        cases.append((f"strips-s{s}-n{n}-k{k}", f, a, rng.permutation(n)))
    # P's first 64 columns are zero, and the form's permutation puts them
    # at columns 64..127: an all-zero 64-column word
    f2 = make_field(2, 2)
    p = rng.integers(0, 4, size=(130, 127), dtype=np.uint8)
    p[:, :64] = 0
    rest = rng.permutation(np.r_[:130, 194:257])
    cases.append(("strips-zero-word", f2, systematic(p), np.r_[rest[:64], 130:194, rest[64:]]))
    return cases


@pytest.mark.parametrize("field,a,perm", [pytest.param(f, a, perm, id=name)
                                          for name, f, a, perm in row_reduce_cases()])
def test_row_reduce_matches_the_byte_oracle(field, a, perm):
    assert_forms_match_the_byte_oracle(field, a, perm[None])


@pytest.mark.parametrize("field,a,perm", [pytest.param(f, a, perm, id=name)
                                          for name, f, a, perm in row_reduce_cases()])
def test_stacked_row_reduce_matches_the_byte_oracle_form_by_form(field, a, perm):
    # seeded column permutations: the members reach rank k at different
    # columns, and the identity's form is its own rref
    n = a.shape[1]
    rng = np.random.default_rng(a.size)
    perms = np.stack([perm, np.arange(n)] + [rng.permutation(n) for _ in range(4)])
    assert_forms_match_the_byte_oracle(field, a, perms)


STRIP_CASES = [pytest.param(f, a, perm, id=name) for name, f, a, perm in row_reduce_cases()
               if name.startswith("strips")]


@pytest.mark.parametrize("budget", [1 << 8, 1 << 12])
@pytest.mark.parametrize("field,a,perm", STRIP_CASES)
def test_strip_tables_match_the_byte_oracle_form_by_form(monkeypatch, budget, field, a, perm):
    # a small block budget sends the words right of a strip through the
    # tables, in tiles of one lane and word (2^8) or of several (2^12)
    monkeypatch.setattr(cyclic, "_BLOCK_WORDS", budget)
    rng = np.random.default_rng(a.size)
    perms = np.stack([perm] + [rng.permutation(a.shape[1]) for _ in range(2)])
    assert_forms_match_the_byte_oracle(field, a, perms)


def test_strip_cases_reach_the_tables_for_s_up_to_4(monkeypatch):
    seen = set()
    real = cyclic._add_combinations

    def spy(masks, g, *rest):
        seen.add((masks.shape[0], g))
        return real(masks, g, *rest)

    monkeypatch.setattr(cyclic, "_add_combinations", spy)
    monkeypatch.setattr(cyclic, "_BLOCK_WORDS", 1 << 8)
    for param in STRIP_CASES:
        field, a, perm = param.values
        reduce_forms(field, a, perm[None])
    # from s = 5 on g = 1, and a table costs a row more than a direct step
    assert seen == {(1, 8), (2, 4), (3, 2), (4, 2)}


def test_strip_tables_with_a_partial_last_lane_tile(monkeypatch):
    # s = 1 tables hold 2^8 words, and a block budget of three of them puts
    # 5 lanes in tiles of 3 and 2: the last tile starts at lane 3 and is
    # narrower than the others
    monkeypatch.setattr(cyclic, "_BLOCK_WORDS", 3 << 8)
    lanes = []
    real = cyclic._add_combinations

    def spy(masks, g, right, *rest):
        lanes.append(right.shape[-1])
        return real(masks, g, right, *rest)

    monkeypatch.setattr(cyclic, "_add_combinations", spy)
    f = make_field(1, 2)
    rng = np.random.default_rng(13)
    a = systematic(rng.integers(0, 2, size=(65, 255), dtype=np.uint8))
    assert_forms_match_the_byte_oracle(f, a, np.stack([rng.permutation(320) for _ in range(5)]))
    assert lanes and set(lanes) == {5}


@pytest.mark.parametrize("budget", [None, 1 << 8, 1 << 12])
def test_stack_members_finish_in_different_strips(monkeypatch, budget):
    # P's first 128 columns, 100..227, are zero.  The identity's pivots are
    # its unit columns, 0..99; with the zero columns first they start two
    # strips later; with P's other 92 columns first those are the slots of
    # the first 92 pivots, and the rest are free
    if budget:
        monkeypatch.setattr(cyclic, "_BLOCK_WORDS", budget)
    f = make_field(2, 2)
    rng = np.random.default_rng(11)
    p = rng.integers(0, 4, size=(100, 220), dtype=np.uint8)
    p[:, :128] = 0
    perms = np.stack([np.arange(320), np.r_[100:228, :100, 228:320],
                      np.r_[228:320, :228], rng.permutation(320)])
    got = assert_forms_match_the_byte_oracle(f, systematic(p), perms)
    assert [pivots[-1] for _, _, pivots in got] == [99, 227, 99, 165]


# (s, m) of every T_(q,m;p) with n <= 1023
UNIT_FAMILIES = [(1, m) for m in range(2, 11)] + [(2, m) for m in range(2, 6)] + \
    [(3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("s,m", UNIT_FAMILIES)
def test_unit_map_sweep_matches_the_byte_oracle_on_every_family(s, m, parity):
    # S.P, S the systematic form built from g, plain and extended, spans the
    # rows of G.P, so both have one rref: the unit map's sweep of S.P against
    # the byte oracle's of G.P, form by form.  Stacks of 1, 4 and 128 forms;
    # the oracle takes every form up to n = 64, a form or two of each stack
    # up to n = 512, and the lone form past that
    f = make_field(s, m)
    code = code_from_T(f, build_T(f.q, m, parity))
    rng = np.random.default_rng(100 * s + 10 * m + parity)
    for extended in (False, True):
        n = code.n + extended
        G = (oracle.extended_matrix(code) if extended else oracle.generator_matrix(code)).array
        for nmat in (1, 4, 128) if n <= 256 else (1, 4):
            perms = rng.permuted(np.tile(np.arange(n), (nmat, 1)), axis=1)
            _, stack, units = unit_forms(f, distance._systematic(code, extended), perms)
            rrefs, pivots = cyclic.row_reduce(f, stack, units)
            assert all(len(p) == code.k for p in pivots)
            checked = range(nmat) if n <= 64 else \
                {0, nmat - 1} if n <= 512 or nmat == 1 else ()
            for b in checked:
                ref, ref_pivots = oracle.row_reduce(f, G.take(perms[b], axis=1))
                assert pivots[b] == ref_pivots
                assert np.array_equal(packed.unpack(rrefs[..., b], n), ref)


@pytest.mark.parametrize("budget", [1 << 8, 1 << 12])
@pytest.mark.parametrize("s,n,k", [(1, 448, 250), (2, 320, 200), (3, 320, 130), (4, 448, 400)])
def test_unit_map_sweep_through_the_strip_tables(monkeypatch, budget, s, n, k):
    # a small block budget tracks the strips, so the words right of a strip
    # take its slots' steps through the Four-Russians tables; the forms are
    # [I | P] for a random P, column-permuted
    monkeypatch.setattr(cyclic, "_BLOCK_WORDS", budget)
    tables = []
    real = cyclic._add_combinations

    def spy(masks, g, right, tracker, steps, buffer):
        tables.append(len(steps))
        return real(masks, g, right, tracker, steps, buffer)

    monkeypatch.setattr(cyclic, "_add_combinations", spy)
    f = make_field(s, 2)
    rng = np.random.default_rng(n * k + s)
    a = systematic(rng.integers(0, f.q, size=(k, n - k), dtype=np.uint8))
    assert_forms_match_the_byte_oracle(f, a, rng.permuted(np.tile(np.arange(n), (3, 1)), axis=1))
    assert tables and max(tables) <= 64


@pytest.mark.parametrize("budget", [None, 1 << 8])
@pytest.mark.parametrize("s,m", [(2, 3), (2, 4)])
def test_unit_map_lanes_finish_at_different_slots(monkeypatch, budget, s, m):
    # S itself is its own rref: every pivot free, no slot.  With the unit
    # columns last, the first k other columns take real pivots first; the
    # reversal and a random order fall in between
    if budget:
        monkeypatch.setattr(cyclic, "_BLOCK_WORDS", budget)
    f = make_field(s, m)
    code = code_from_T(f, build_T(f.q, m, 0))
    n, k = code.n, code.k
    rng = np.random.default_rng(n)
    perms = np.stack([np.arange(n), np.r_[k:n, :k], np.arange(n)[::-1], rng.permutation(n),
                      np.r_[rng.permutation(np.arange(k, n)), np.arange(k)]])
    _, stack, units = unit_forms(f, distance._systematic(code, False), perms)
    rrefs, pivots = cyclic.row_reduce(f, stack, units)
    assert pivots[0] == list(range(k))
    assert np.array_equal(rrefs[..., 0], stack[..., 0])
    G = oracle.generator_matrix(code).array
    for b in range(len(perms)):
        ref, ref_pivots = oracle.row_reduce(f, G.take(perms[b], axis=1))
        assert pivots[b] == ref_pivots
        assert np.array_equal(packed.unpack(rrefs[..., b], n), ref)


def test_unit_map_halves_the_steps_of_the_n1023_forms(monkeypatch):
    # sampled_upper's one stack of the [1023, 512]_4 code at 64 trials and
    # seed 0: four forms of 512 pivots, which take 514 steps without the
    # unit map, as every pivot costs one.  The one stack of 128 forms of
    # each extended [64, 32]_4 code at 2048 trials: 36 and 35 steps when
    # the extension's generator matrix was reduced without a map
    calls = []
    real = packed.multiples

    def spy(masks, words):
        calls.append(words.shape[-1])
        return real(masks, words)

    monkeypatch.setattr(packed, "multiples", spy)
    code = code_from_T(make_field(2, 5), build_T(4, 5, 0))
    distance.sampled_upper(code, trials=64, seed=0)
    assert calls and set(calls) == {4}
    assert len(calls) <= 300
    f = make_field(2, 3)
    for parity in (0, 1):
        calls.clear()
        distance.sampled_upper(extend_code(code_from_T(f, build_T(4, 3, parity))),
                               trials=2048, seed=0)
        assert calls and set(calls) == {128}
        assert len(calls) <= 21
