"""Bit-sliced GF(2^s) words and the row reduction built on them, checked
against the byte-per-symbol references in oracle.py."""

import numpy as np
import pytest

import oracle
from tdcodes import cyclic, packed
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
    row = mat.array[1]
    assert np.array_equal(packed.unpack(packed.multiples(masks, gen[..., 1]), n),
                          f.np_mul_table[:, row])


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
