"""Bit-sliced GF(2^s) words and the row reduction built on them, checked
against the byte-per-symbol references in oracle.py."""

import numpy as np
import pytest

import oracle
from tdcodes import cyclic, distance, packed
from tdcodes.coset import build_T
from tdcodes.cyclic import GeneratorMatrix, code_from_T, generator_matrix
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
    return GeneratorMatrix(field, arr)


def small_generator(s, parity, rng):
    if s in PARITY_FIELDS:
        f = make_field(*PARITY_FIELDS[s])
        return generator_matrix(code_from_T(f, build_T(f.q, f.m, parity)))
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


def row_reduce_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for s in (1, 2, 3, 4):
        for parity in (0, 1):
            mat = small_generator(s, parity, rng)
            cases.append((f"parity-s{s}-p{parity}", mat.field,
                          mat.array[:, rng.permutation(mat.cols)]))
    f8 = make_field(8, 2)
    mat = banded_matrix(f8, 40, 90, rng)
    cases.append(("banded-s8", f8, mat.array[:, rng.permutation(90)]))

    # the rank-deficient stacks of test_negation_permutation_maps_pair_members
    f = make_field(2, 3, base_modulus=0b111, ext_modulus=(2, 1, 1, 1))
    G0, G1 = (generator_matrix(code_from_T(f, build_T(4, 3, p))).array for p in (0, 1))
    perm = [(-j) % 63 for j in range(63)]
    cases.append(("pair-stack", f, np.concatenate([G1, G0[:, perm]], axis=0)))
    f2 = make_field(2, 2)
    G = generator_matrix(code_from_T(f2, build_T(4, 2, 0))).array
    perm15 = [(-j) % 15 for j in range(15)]
    cases.append(("self-stack", f2, np.concatenate([G, G[:, perm15]], axis=0)))

    a = rng.integers(0, 4, size=(10, 40), dtype=np.uint8)
    a[:, [0, 5, 6, 39]] = 0
    cases.append(("zero-columns", f2, a))
    cases.append(("zero-matrix", f2, np.zeros((5, 20), dtype=np.uint8)))
    f3 = make_field(3, 2)
    row = rng.integers(0, 8, size=(1, 77), dtype=np.uint8)
    row[0, :9] = 0
    cases.append(("one-row", f3, row))
    for n in (63, 64, 65, 128):
        for field, k in ((f2, 20), (f3, 70)):
            a = rng.integers(0, field.q, size=(k, n), dtype=np.uint8)
            a[3] = field.np_mul_table[2, a[1]] ^ a[2]   # a dependent row
            a[:, n - 1] = 0
            cases.append((f"n{n}-q{field.q}-k{k}", field, a))
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
        a = rng.integers(0, f.q, size=(k, n), dtype=np.uint8)
        a[k // 2] = f.np_mul_table[f.q - 1, a[0]] ^ a[1]   # a dependent row
        cases.append((f"strips-s{s}-n{n}-k{k}", f, a))
    f2 = make_field(2, 2)
    a = rng.integers(0, 4, size=(130, 257), dtype=np.uint8)
    a[:, 64:128] = 0                   # an all-zero 64-column word
    cases.append(("strips-zero-word", f2, a))
    a = rng.integers(0, 4, size=(130, 320), dtype=np.uint8)
    for r in range(100, 130):          # rank 100: the last pivot falls mid-strip
        i, j = rng.integers(0, 100, size=2)
        a[r] = f2.np_mul_table[rng.integers(1, 4), a[i]] ^ a[j]
    cases.append(("strips-rank-mid-strip", f2, a))
    return cases


def reduce_forms(field, forms):
    """Row-reduce the matrices as one packed stack; returns each member's
    rref unpacked and its pivots, after checking that the stack is kept."""
    stack = np.stack([packed.pack(a, field.s) for a in forms], axis=-1)
    before = stack.copy()
    rrefs, pivots = cyclic.row_reduce(field, stack)
    assert np.array_equal(stack, before)
    assert rrefs.shape == stack.shape and rrefs.dtype == packed.WORD
    assert len(pivots) == len(forms)
    n = forms[0].shape[1]
    return [(packed.unpack(rrefs[..., j], n), pivots[j]) for j in range(len(forms))]


@pytest.mark.parametrize("field,array", [pytest.param(f, a, id=name)
                                          for name, f, a in row_reduce_cases()])
def test_row_reduce_matches_the_byte_oracle(field, array):
    before = array.copy()
    [(rref, pivots)] = reduce_forms(field, [array])
    ref, ref_pivots = oracle.row_reduce(field, array)
    assert pivots == ref_pivots
    assert np.array_equal(rref, ref)
    assert np.array_equal(array, before)


@pytest.mark.parametrize("field,array", [pytest.param(f, a, id=name)
                                          for name, f, a in row_reduce_cases()])
def test_stacked_row_reduce_matches_the_byte_oracle_form_by_form(field, array):
    # seeded column permutations: one rank, but the members reach it at
    # different columns (or, rank-deficient, at none)
    rng = np.random.default_rng(array.size)
    forms = [array] + [array[:, rng.permutation(array.shape[1])] for _ in range(5)]
    for form, (rref, pivots) in zip(forms, reduce_forms(field, forms)):
        ref, ref_pivots = oracle.row_reduce(field, form)
        assert pivots == ref_pivots
        assert np.array_equal(rref, ref)


def test_stacked_row_reduce_members_of_different_rank():
    f = make_field(2, 2)
    rng = np.random.default_rng(7)
    full = rng.integers(0, 4, size=(12, 70), dtype=np.uint8)
    low = full.copy()
    low[4:] = f.np_mul_table[3, low[1]] ^ low[2]   # rank 4 at most
    forms = [full, low, np.zeros_like(full), low[:, ::-1].copy(), full]
    got = reduce_forms(f, forms)
    for form, (rref, pivots) in zip(forms, got):
        ref, ref_pivots = oracle.row_reduce(f, form)
        assert pivots == ref_pivots
        assert np.array_equal(rref, ref)
    assert [len(p) for _, p in got] == [12, 4, 0, 4, 12]


STRIP_CASES = [pytest.param(f, a, id=name) for name, f, a in row_reduce_cases()
               if name.startswith("strips")]


@pytest.mark.parametrize("budget", [1 << 8, 1 << 12])
@pytest.mark.parametrize("field,array", STRIP_CASES)
def test_strip_tables_match_the_byte_oracle_form_by_form(monkeypatch, budget, field, array):
    # a small block budget sends the words right of a strip through the
    # tables, in tiles of one lane and word (2^8) or of several (2^12)
    monkeypatch.setattr(cyclic, "_BLOCK_WORDS", budget)
    rng = np.random.default_rng(array.size)
    forms = [array] + [array[:, rng.permutation(array.shape[1])] for _ in range(2)]
    for form, (rref, pivots) in zip(forms, reduce_forms(field, forms)):
        ref, ref_pivots = oracle.row_reduce(field, form)
        assert pivots == ref_pivots
        assert np.array_equal(rref, ref)


def test_strip_cases_reach_the_tables_for_s_up_to_4(monkeypatch):
    seen = set()
    real = cyclic._add_combinations

    def spy(masks, g, *rest):
        seen.add((masks.shape[0], g))
        return real(masks, g, *rest)

    monkeypatch.setattr(cyclic, "_add_combinations", spy)
    monkeypatch.setattr(cyclic, "_BLOCK_WORDS", 1 << 8)
    for param in STRIP_CASES:
        reduce_forms(param.values[0], [param.values[1]])
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
    a = rng.integers(0, 2, size=(65, 320), dtype=np.uint8)
    forms = [a] + [a[:, rng.permutation(320)] for _ in range(4)]
    for form, (rref, pivots) in zip(forms, reduce_forms(f, forms)):
        ref, ref_pivots = oracle.row_reduce(f, form)
        assert pivots == ref_pivots
        assert np.array_equal(rref, ref)
    assert lanes and set(lanes) == {5}


@pytest.mark.parametrize("budget", [None, 1 << 8, 1 << 12])
def test_stack_members_finish_in_different_strips(monkeypatch, budget):
    if budget:
        monkeypatch.setattr(cyclic, "_BLOCK_WORDS", budget)
    f = make_field(2, 2)
    rng = np.random.default_rng(11)
    full = rng.integers(0, 4, size=(100, 320), dtype=np.uint8)
    late = full.copy()
    late[:, :128] = 0                  # its pivots start two strips later
    low = full.copy()
    low[70:] = f.np_mul_table[3, low[:30]] ^ low[30:60]   # rank 70
    forms = [full, late, low, np.zeros_like(full), full[:, rng.permutation(320)]]
    got = reduce_forms(f, forms)
    for form, (rref, pivots) in zip(forms, got):
        ref, ref_pivots = oracle.row_reduce(f, form)
        assert pivots == ref_pivots
        assert np.array_equal(rref, ref)
    assert [len(p) for _, p in got] == [100, 100, 70, 0, 100]
    assert [p[-1] for _, p in got if p] == [99, 227, 69, 99]


# (s, m) of every T_(q,m;p) with n <= 1023
UNIT_FAMILIES = [(1, m) for m in range(2, 11)] + [(2, m) for m in range(2, 6)] + \
    [(3, 2), (3, 3), (4, 2)]


def systematic_stack(code, perms):
    """The forms S.P of a cyclic code, S its systematic form and P the
    column permutations, as a packed stack, with their unit map (row j's
    unit column in form b, where perms[b] takes column j), and the forms
    G.P of its generator matrix, one byte per symbol."""
    forms = distance._systematic(code, False).take(perms, axis=1)
    units = perms.argsort(axis=1)[:, :code.k].T
    plain = generator_matrix(code).array.take(perms, axis=1)
    return packed.pack(forms, code.field.s), units, plain


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("s,m", UNIT_FAMILIES)
def test_unit_map_sweep_matches_the_byte_oracle_on_every_family(s, m, parity):
    # S.P spans the rows of G.P, so both have one rref: the unit map's sweep
    # of S.P against the byte oracle's of G.P and the sweep of G.P without
    # a map, form by form.  Stacks of 1, 4 and 128 forms; the oracle takes
    # a form or two of each stack up to n = 511 (one n = 1023 form takes
    # it a second)
    f = make_field(s, m)
    code = code_from_T(f, build_T(f.q, m, parity))
    n = code.n
    rng = np.random.default_rng(100 * s + 10 * m + parity)
    for nmat in (1, 4, 128) if n <= 255 else (1, 4):
        perms = rng.permuted(np.tile(np.arange(n), (nmat, 1)), axis=1)
        stack, units, plain = systematic_stack(code, perms)
        rrefs, pivots = cyclic.row_reduce(f, stack, units)
        ref_rrefs, ref_pivots = cyclic.row_reduce(f, packed.pack(plain, s))
        assert pivots == ref_pivots
        assert np.array_equal(rrefs, ref_rrefs)
        assert all(len(p) == code.k for p in pivots)
        for b in sorted({0, nmat - 1}) if n <= 511 else ():
            ref, ref_pivots = oracle.row_reduce(f, plain[:, b])
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
    a = np.concatenate([np.eye(k, dtype=np.uint8),
                        rng.integers(0, f.q, size=(k, n - k), dtype=np.uint8)], axis=1)
    perms = rng.permuted(np.tile(np.arange(n), (3, 1)), axis=1)
    forms = a.take(perms, axis=1)
    rrefs, pivots = cyclic.row_reduce(f, packed.pack(forms, s), perms.argsort(axis=1)[:, :k].T)
    assert tables and max(tables) <= 64
    for b in range(3):
        ref, ref_pivots = oracle.row_reduce(f, forms[:, b])
        assert pivots[b] == ref_pivots
        assert np.array_equal(packed.unpack(rrefs[..., b], n), ref)


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
    stack, units, plain = systematic_stack(code, perms)
    rrefs, pivots = cyclic.row_reduce(f, stack, units)
    assert pivots[0] == list(range(k))
    assert np.array_equal(rrefs[..., 0], stack[..., 0])
    for b in range(len(perms)):
        ref, ref_pivots = oracle.row_reduce(f, plain[:, b])
        assert pivots[b] == ref_pivots
        assert np.array_equal(packed.unpack(rrefs[..., b], n), ref)


def test_unit_map_halves_the_steps_of_the_n1023_forms(monkeypatch):
    # sampled_upper's one stack of the [1023, 512]_4 code at 64 trials and
    # seed 0: four forms of 512 pivots, which take 514 steps without the
    # unit map, as every pivot costs one
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
