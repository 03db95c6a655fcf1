import hashlib
import itertools
import math
import random
import time

import numpy as np
import pytest

import oracle
from conftest import peak_traced_bytes
from tdcodes import coset, cyclic, distance, packed
from tdcodes.bounds import DomainError, bch_search, theorem_bound
from tdcodes.coset import build_T, defining_set
from tdcodes.cyclic import code_from_T, dual_code, extend_code
from tdcodes.distance import (DistanceReport, exact_distance, sampled_upper,
                              verify_duadic_distance_equality,
                              weight_distribution)
from tdcodes.gf import default_base_modulus, make_field


def gf16_codes():
    f = make_field(2, 2)
    return f, code_from_T(f, build_T(4, 2, 0)), code_from_T(f, build_T(4, 2, 1))


def gf64_codes():
    f = make_field(2, 3, base_modulus=0b111, ext_modulus=(2, 1, 1, 1))
    return f, code_from_T(f, build_T(4, 3, 0)), code_from_T(f, build_T(4, 3, 1))


def brute_force_distance(field, mat):
    """Independent oracle: direct weight scan over all messages."""
    best = mat.cols + 1
    mul = field.np_mul_table
    for msg in itertools.product(range(field.q), repeat=mat.rows):
        if not any(msg):
            continue
        word = np.bitwise_xor.reduce(
            mul[np.array(msg, dtype=np.uint8)[:, None], mat.array], axis=0)
        best = min(best, int(np.count_nonzero(word)))
    return best


def test_exact_distance_matches_brute_force_on_tiny_codes():
    f = make_field(2, 2)
    for elems in [tuple(range(1, 15)), (1, 4, 2, 8, 3, 12, 5, 10, 7, 13, 11, 14),
                  (1, 4, 2, 8, 6, 9)]:
        c = code_from_T(f, oracle.raw_set(15, 4, elems))
        mat = oracle.generator_matrix(c)
        assert exact_distance(c).exact == brute_force_distance(f, mat)


def test_exact_distance_repetition_like_code():
    f = make_field(2, 2)
    c = code_from_T(f, oracle.raw_set(15, 4, tuple(range(1, 15))))
    assert c.k == 1
    assert exact_distance(c).exact == 15


def test_exact_distance_gf16_pair():
    _, c0, c1 = gf16_codes()
    r0 = exact_distance(c0)
    r1 = exact_distance(c1)
    assert r0.exact == 3
    assert r1.exact == 5
    assert r0.exact >= theorem_bound(4, 2, 0)
    assert r1.exact >= theorem_bound(4, 2, 1)
    # chain: exact >= exhaustive search delta >= closed form
    for r, c, parity in ((r0, c0, 0), (r1, c1, 1)):
        delta = bch_search(c.T).delta
        assert r.exact >= delta >= theorem_bound(4, 2, parity)


def test_exact_distance_report_shape():
    _, c0, _ = gf16_codes()
    r = exact_distance(c0, lower=3)
    assert r.method == "exhaustive"
    assert r.lower == 3 and r.upper == r.exact == r.witness_weight == 3
    assert sum(1 for x in r.witness if x) == 3


def test_exact_distance_cap():
    _, _, c1 = gf16_codes()
    with pytest.raises(ValueError, match="cap"):
        exact_distance(c1, cap=100)


def test_exact_distance_past_64_message_bits():
    # the [127, 120]_2 Hamming code, T the coset of 1, k s = 120 bits: its
    # weight-3 codewords are the triples with beta^a + beta^b + beta^c = 0,
    # listed on the oracle's tables, and the witness is one of them
    f = make_field(1, 7)
    code = code_from_T(f, defining_set(127, 2, oracle.cyclotomic_coset(1, 2, 127)))
    assert code.k == 120
    exp, log = oracle.ext_tables(f)
    triples = [(a, b, log[exp[a] ^ exp[b]]) for a in range(127) for b in range(a + 1, 127)
               if log[exp[a] ^ exp[b]] > b]
    assert len(triples) == 127 * 126 // 6
    for support in triples:
        word = [0] * 127
        for j in support:
            word[j] = 1
        assert oracle.poly_divmod(f, oracle.trim(word), code.generator)[1] == ()
    r = exact_distance(code, cap=2 ** 120)
    assert r.exact == 3
    assert tuple(np.flatnonzero(r.witness).tolist()) in set(triples)


def test_witness_is_a_codeword_and_shift_invariant():
    f, c0, _ = gf16_codes()
    r = exact_distance(c0)
    word = list(r.witness)
    for shift in range(15):
        shifted = word[-shift:] + word[:-shift]
        _, rem = oracle.poly_divmod(f, oracle.trim(shifted), c0.generator)
        assert rem == ()
        assert sum(1 for x in shifted if x) == r.exact


def test_weight_distribution_whole_space():
    # T = {}: g = 1, the whole space GF(2)^n, with C(n, w) words of weight w
    for m in (2, 3, 4):
        code = code_from_T(make_field(1, m), defining_set(2 ** m - 1, 2, []))
        assert code.generator == (1,) and code.k == code.n
        assert weight_distribution(code) == {w: math.comb(code.n, w)
                                             for w in range(code.n + 1)}


def test_weight_distribution_zero_code():
    # T = Z_15: g = x^15 - 1, the code of dimension 0
    code = code_from_T(make_field(2, 2), defining_set(15, 4, range(15)))
    assert code.k == 0
    assert weight_distribution(code) == {0: 1}


def test_the_tally_and_the_exact_distance_share_one_cap():
    # 4^12 = 2^24 codewords is the most either enumerates; 4^13 is refused
    # before any scan
    f = make_field(2, 2)
    assert distance.DEFAULT_CAP == 4 ** 12
    code = code_from_T(f, defining_set(15, 4, [1, 4]))  # [15, 13]_4
    with pytest.raises(ValueError, match="q\\^k = 67108864 exceeds the tally cap 16777216"):
        weight_distribution(code)
    for extended in (False, True):
        with pytest.raises(ValueError, match="q\\^k = 67108864 exceeds the enumeration cap"):
            exact_distance(target(code, extended))


def test_exact_distance_refuses_a_matrix_with_no_nonzero_codeword():
    # T = Z_15: g = x^15 - 1, a code of dimension 0 and a 0 x 15 matrix
    code = code_from_T(make_field(2, 2), defining_set(15, 4, range(15)))
    assert code.k == 0
    for extended in (False, True):
        with pytest.raises(ValueError, match="spans no nonzero codeword"):
            exact_distance(target(code, extended), lower=0)


def test_sampled_upper_refuses_a_code_with_no_nonzero_codeword():
    # the same code, plain and extended: its 0 x 15 and 0 x 16 matrices
    code = code_from_T(make_field(2, 2), defining_set(15, 4, range(15)))
    for extended, cols in ((False, 15), (True, 16)):
        with pytest.raises(ValueError, match=f"the 0 x {cols} generator matrix spans no "
                                             "nonzero codeword"):
            sampled_upper(target(code, extended), trials=16)


def random_matrix(s, k, n):
    f = make_field(s, 2)
    rng = np.random.default_rng(7 * k + n)
    return oracle.GeneratorMatrix(f, rng.integers(0, f.q, size=(k, n), dtype=np.uint8))


def rank_deficient_matrix():
    # row 3 repeats row 0 and row 5 is w * row 1: a 2-dimensional kernel,
    # so d = 0 and the zero word comes from q^2 messages
    mat = random_matrix(2, 6, 30)
    a = mat.array.copy()
    a[3] = a[0]
    a[5] = mat.field.np_mul_table[2, a[1]]
    return oracle.GeneratorMatrix(mat.field, a)


def gf16_tied_matrix():
    # d = 5 at six classes of scalar multiples (90 codewords), all with
    # leading symbol 3, whose bits lie in the Gray-coded part of the order;
    # the witness is not the first of them the projective scan visits
    f = make_field(4, 2)
    rng = np.random.default_rng(10)
    a = rng.integers(0, f.q, size=(4, 9), dtype=np.uint8)
    a[:3][rng.random((3, 9)) < 0.3] = 0
    return oracle.GeneratorMatrix(f, a)


def binary_t25_code():
    # [31, 16]_2 of T_(2,5;0): n < 2k
    return code_from_T(make_field(1, 5), build_T(2, 5, 0))


def binary_63_18_code():
    # the [63, 18]_2 code with non-zeros the cosets of 1, 5 and 11; with the
    # overall-sum column, a [64, 18]_2 code that no shift maps to itself
    nonzeros = {x for e in (1, 5, 11) for x in oracle.cyclotomic_coset(e, 2, 63)}
    T = defining_set(63, 2, sorted(set(range(63)) - nonzeros))
    return code_from_T(make_field(1, 6), T)


def deficient_second_window_matrix():
    # [30, 9]_4 whose first 9 columns are an information set; past them,
    # row 8 is row 0 + row 1, so those 21 columns have rank 8
    f = make_field(2, 2)
    a = np.random.default_rng(4).integers(0, f.q, size=(9, 30), dtype=np.uint8)
    a[8, 9:] = a[0, 9:] ^ a[1, 9:]
    return oracle.GeneratorMatrix(f, a)


def coset_union_code(rng, s, m, bits):
    """The cyclic code over GF(2^s) of length 2^(s m) - 1 whose non-zeros are
    shuffled q-cyclotomic cosets, taken while k s stays within ``bits``."""
    q = 1 << s
    n = q ** m - 1
    cosets = [oracle.cyclotomic_coset(e, q, n) for e in oracle.coset_partition(q, n).leaders]
    rng.shuffle(cosets)
    nonzeros = []
    for c in cosets:
        if (len(nonzeros) + len(c)) * s <= bits:
            nonzeros += c
    T = defining_set(n, q, sorted(set(range(n)) - set(nonzeros)))
    return code_from_T(make_field(s, m), T)


def random_cyclic_codes(count, seed, families=((1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (3, 2))):
    """``count`` seeded coset-union codes over q = 2, 4 and 8 at n = 15 to
    63, each with 2 to 16 message bits."""
    rng = random.Random(seed)
    codes = []
    while len(codes) < count:
        code = coset_union_code(rng, *rng.choice(families), rng.randint(2, 16))
        if code.k:
            codes.append(code)
    return codes


def bench_exact_code(seed):
    # the [63, 12]_4 code that perfbench's exact_distance job builds at this
    # seed: the random q-cyclotomic cosets it shuffles, taken while they fit
    return coset_union_code(random.Random(seed), 2, 3, 24)


def target(code, extended):
    return extend_code(code) if extended else code


def cyclic_matrix(code, extended):
    return oracle.extended_matrix(code) if extended else oracle.generator_matrix(code)


def assert_codeword_of_weight(code, extended, witness, d):
    # on the oracle's arithmetic: g divides the first n symbols, the
    # extension symbol is their XOR, and d symbols are nonzero
    body = list(witness[:code.n])
    assert len(witness) == code.n + extended
    if extended:
        assert witness[-1] == np.bitwise_xor.reduce(body)
    assert oracle.poly_divmod(code.field, oracle.trim(body), code.generator)[1] == ()
    assert sum(1 for c in witness if c) == d


# name -> (cyclic code, extended)
CYCLIC_CASES = {
    "t25-one-window": lambda: (binary_t25_code(), False),
    "extended-64-18": lambda: (binary_63_18_code(), True),
    "bench-63-12-seed0": lambda: (bench_exact_code(0), False),
    "bench-63-12-seed7": lambda: (bench_exact_code(7), False),
}

SCAN_CASES = {
    **{f"{s}-{k}-{n}": (lambda s=s, k=k, n=n: random_matrix(s, k, n))
       for s, k, n in [(2, 9, 15), (2, 7, 100), (1, 16, 64), (3, 4, 130),
                       (1, 11, 70), (4, 3, 20)]},
    "rank-deficient": rank_deficient_matrix,
    "short": lambda: random_matrix(3, 3, 25),  # 9 message bits, one oracle chunk
    "k1": lambda: random_matrix(4, 1, 12),
    "gf16-ties": gf16_tied_matrix,
    "deficient-second-window": deficient_second_window_matrix,
    **{case: (lambda build=build: cyclic_matrix(*build())) for case, build in CYCLIC_CASES.items()},
}


@pytest.mark.parametrize("case", sorted(CYCLIC_CASES))
def test_scan_matches_the_byte_gray_scan(case):
    # the code's tally is that of one Gray scan over all q^k messages, one
    # byte per symbol, and the exact d of the case, plain or extended, is
    # the scan's, with a codeword of that weight as witness
    code, extended = CYCLIC_CASES[case]()
    ref_d, _, ref_hist = oracle.gray_scan(oracle.generator_matrix(code))
    assert weight_distribution(code) == {w: int(c) for w, c in enumerate(ref_hist) if c}
    if extended:
        ref_d = oracle.gray_scan(oracle.extended_matrix(code))[0]
    r = exact_distance(target(code, extended))
    assert r.exact == ref_d
    assert_codeword_of_weight(code, extended, r.witness, ref_d)


@pytest.mark.parametrize("pass_words", [distance._PASS_WORDS, 64])
@pytest.mark.parametrize("case", sorted(c for c in SCAN_CASES if not c.startswith("bench")))
def test_every_window_finds_the_witness_of_the_byte_gray_scan(case, pass_words):
    # on G itself, cyclic or not and the rank-deficient ones with d = 0, a
    # window's layers 1..k, all of them and no stop rule, meet each of the
    # (q^k - 1)/(q - 1) messages whose last nonzero symbol is 1 once: their
    # weights are the Gray scan's tally less the zero message, over q - 1,
    # and the scan's first lightest codeword, whose message is of that
    # kind, is among them.  At 64 words a pass every layer comes in many
    # pieces
    mat = SCAN_CASES[case]()
    q, k, n = mat.field.q, mat.rows, mat.cols
    ref_d, ref_witness, ref_hist = oracle.gray_scan(mat)
    window = distance._Window(packed.scalar_masks(mat.field),
                              packed.pack(mat.array, mat.field.s), pass_words)
    hist = np.zeros(n + 1, dtype=np.int64)
    lightest = []
    for w in range(1, k + 1):
        for words in window.layer(w):
            weights = packed.weights(words)
            hist += np.bincount(weights, minlength=n + 1)
            lightest += packed.unpack(words[..., weights == ref_d], n).tolist()
    hist *= q - 1
    hist[0] += 1
    assert np.array_equal(hist, ref_hist)
    assert ref_witness.tolist() in lightest


@pytest.mark.parametrize("setting", ["default", "pass-64"])
def test_one_window_finds_the_witness_of_the_byte_gray_scan(monkeypatch, setting):
    # 200 seeded coset-union codes and two small cyclic codes, plain and
    # extended, each run to the stop rule: the Gray scan's d, and a
    # codeword of that weight as witness.  At 64 words a pass every layer
    # comes in many pieces, which keep its order, so the witness is the
    # first lightest codeword of the default pieces too
    codes = random_cyclic_codes(200, seed=21) + [binary_t25_code(), binary_63_18_code()]
    for code in codes:
        for extended in (False, True):
            ref_d = oracle.gray_scan(cyclic_matrix(code, extended))[0]
            r = exact_distance(target(code, extended))
            assert r.exact == ref_d, (code.T.elems, extended)
            assert_codeword_of_weight(code, extended, r.witness, ref_d)
            if setting == "pass-64":
                with monkeypatch.context() as patch:
                    patch.setattr(distance, "_PASS_WORDS", 64)
                    assert exact_distance(target(code, extended)).witness == r.witness


def test_enumeration_visits_at_most_twice_the_scan():
    # one window's layers 1..k are the scan's (q^k - 1)/(q - 1) messages,
    # so no call visits more.  The bench codes stop after layer w*, the
    # least w with ceil(63 (w + 1)/12) > d: 2 for d = 14 and 5 for d = 28
    for code in random_cyclic_codes(50, seed=3) + [binary_t25_code(), binary_63_18_code()]:
        q = code.q
        for extended in (False, True):
            _, _, visited = distance._min_weight(code, extended)
            assert visited <= (q ** code.k - 1) // (q - 1)
    layer = [math.comb(12, w) * 3 ** (w - 1) for w in range(13)]
    for seed, d, top, visits in ((0, 14, 2, 210), (7, 28, 5, 79707)):
        assert min(w for w in range(1, 13) if -(-63 * (w + 1) // 12) > d) == top
        assert sum(layer[1:top + 1]) == visits
        got, _, visited = distance._min_weight(bench_exact_code(seed), False)
        assert (got, visited) == (d, visits)
        assert visited <= 2 * sum(layer[1:])


def one_engine_codes():
    """Every T_(q,m;p) code with q^k <= DEFAULT_CAP (T_(2,2;0) is empty, so
    g = 1 and k = n), the binary codes of T = {} at n = 7 and 15, and the
    202 codes of test_one_window_finds_the_witness_of_the_byte_gray_scan."""
    families = [code_from_T(make_field(s, m), build_T(1 << s, m, p))
                for s, m in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2)] for p in (0, 1)]
    assert all(c.q ** c.k <= distance.DEFAULT_CAP for c in families)
    assert all(q ** (q ** m - 1 - len(build_T(q, m, p))) > distance.DEFAULT_CAP
               for q, m in [(2, 6), (4, 3), (8, 2)] for p in (0, 1))
    whole = [code_from_T(make_field(1, m), defining_set(2 ** m - 1, 2, [])) for m in (3, 4)]
    return (families + whole + random_cyclic_codes(200, seed=21)
            + [binary_t25_code(), binary_63_18_code()])


def test_systematic_form_is_the_rref_of_the_generator():
    # row j = x^j + x^k (x^(n-k+j) mod g) is row j of the byte oracle's
    # reduced row echelon form of (x^j g(x)), plain and with the overall-sum
    # column: the identity on positions 0..k - 1, its pivots
    for code in one_engine_codes():
        for extended in (False, True):
            ref, pivots = oracle.row_reduce(code.field, cyclic_matrix(code, extended).array)
            assert pivots == list(range(code.k))
            got = distance._systematic(code, extended)
            assert np.array_equal(got, ref), (code.T.elems, extended)


def test_weight_distribution_matches_the_byte_gray_scan():
    for code in one_engine_codes():
        ref = oracle.gray_scan(oracle.generator_matrix(code))[2]
        assert weight_distribution(code) == {w: int(c) for w, c in enumerate(ref) if c}, \
            code.T.elems


def test_exact_distance_and_the_tally_build_no_matrix(monkeypatch):
    # the window's systematic form comes from g, plain or extended, with
    # no row reduction
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was row-reduced")

    monkeypatch.setattr(cyclic, "row_reduce", refuse)
    _, c0, c1 = gf16_codes()
    assert [exact_distance(target(c, extended)).exact
            for extended in (False, True) for c in (c0, c1)] == [3, 5, 4, 6]
    assert exact_distance(bench_exact_code(0)).exact == 14
    tally = weight_distribution(c1)
    assert sum(tally.values()) == 4 ** 7 and min(w for w in tally if w) == 5


def test_the_cyclic_stop_rule_holds_on_every_codeword():
    # k wt(c) >= n mu(c), where mu(c) is the fewest nonzeros of c in any k
    # cyclically consecutive positions, over every nonzero codeword of small
    # cyclic codes (q = 2 and 4, n <= 63, q^k <= 2^16), each encoded here
    # from g on the oracle's base table; so after layer w, a codeword with
    # no shift visited (mu(c) > w) weighs at least ceil(n (w + 1)/k)
    codes = random_cyclic_codes(12, seed=5, families=((1, 4), (1, 5), (1, 6), (2, 2), (2, 3)))
    codes += [code_from_T(make_field(s, m), build_T(1 << s, m, p))
              for s, m, p in [(1, 4, 0), (1, 4, 1), (1, 5, 0), (1, 5, 1), (2, 2, 1)]]
    for code in codes:
        q, n, k = code.q, code.n, code.k
        assert q ** k <= 2 ** 16
        mul = np.array(oracle.base_mul_table(code.field.s, code.field.base_modulus),
                       dtype=np.uint8)
        g = np.array(code.generator, dtype=np.uint8)
        words = np.zeros((1, n), dtype=np.uint8)
        for j in range(k):  # the span of x^0 g, ..., x^j g
            row = np.zeros(n, dtype=np.uint8)
            row[j:j + g.size] = g
            words = np.concatenate([words ^ mul[a, row] for a in range(q)])
        support = (words[1:] != 0).astype(np.int64)
        assert support.sum(axis=1).all()
        sums = np.concatenate([np.zeros((len(support), 1), dtype=np.int64),
                               np.cumsum(np.concatenate([support, support[:, :k]], axis=1),
                                         axis=1)], axis=1)
        mu = (sums[:, k:k + n] - sums[:, :n]).min(axis=1)
        wt = support.sum(axis=1)
        assert (k * wt >= n * mu).all(), code.T.elems
        for w in range(k):
            if (mu > w).any():
                assert wt[mu > w].min() >= -(-n * (w + 1) // k)


def test_scan_edge_cases_are_what_they_claim():
    assert oracle.gray_scan(rank_deficient_matrix())[2][0] == 4 ** 2
    hist = oracle.gray_scan(gf16_tied_matrix())[2]
    assert hist[1:5].sum() == 0 and hist[5] == 6 * 15
    assert SCAN_CASES["k1"]().rows == 1
    code = binary_t25_code()
    assert code.n < 2 * code.k
    assert [exact_distance(bench_exact_code(seed)).exact for seed in (0, 7)] == [14, 28]


def krawtchouk(n, q, j, i):
    """K_j(i) = sum_l (-1)^l (q-1)^(j-l) C(i, l) C(n-i, j-l)."""
    return sum((-1) ** l * (q - 1) ** (j - l) * math.comb(i, l)
               * math.comb(n - i, j - l) for l in range(j + 1))


@pytest.mark.parametrize("q,m", [(4, 2), (2, 3), (2, 4), (2, 5)])
@pytest.mark.parametrize("parity", [0, 1])
def test_weight_distribution_satisfies_macwilliams(q, m, parity):
    # |C| * B_j = sum_i A_i K_j(i), in integers: the tally of the dual code
    # from the tally of the code, two independent scans
    f = make_field(q.bit_length() - 1, m)
    code = code_from_T(f, build_T(q, m, parity))
    a = weight_distribution(code)
    b = weight_distribution(dual_code(code))
    n = code.n
    for j in range(n + 1):
        assert q ** code.k * b.get(j, 0) == \
            sum(c * krawtchouk(n, q, j, i) for i, c in a.items())


@pytest.mark.parametrize("m", [3, 5])
def test_duadic_pair_weight_distributions_agree(m):
    # odd m: j -> -j maps one member of the pair onto the other
    f = make_field(1, m)
    d0, d1 = (weight_distribution(code_from_T(f, build_T(2, m, p))) for p in (0, 1))
    assert d0 == d1
    assert sum(d0.values()) == 2 ** (2 ** (m - 1))


@pytest.mark.parametrize("parity", [0, 1])
def test_weight_distribution_does_not_depend_on_the_modulus(parity):
    # every family whose codes fit the cap, under each of its primitive
    # extension moduli as the power test finds them (2, 2, 6 and 4): the
    # tally of the code, the oracle's tally of its extension and the exact
    # d of both are those under the default moduli
    for q, m in [(2, 3), (2, 4), (2, 5), (4, 2)]:
        s = q.bit_length() - 1
        moduli = list(oracle.primitive_moduli(s, m, default_base_modulus(s)))
        n = q ** m - 1
        assert len(moduli) == sum(math.gcd(k, n) == 1 for k in range(1, n)) // m

        def profile(field):
            code = code_from_T(field, build_T(q, m, parity))
            extended_hist = oracle.gray_scan(oracle.extended_matrix(code))[2]
            return [weight_distribution(code), extended_hist.tolist(),
                    exact_distance(code).exact, exact_distance(extend_code(code)).exact]

        want = profile(make_field(s, m))
        assert make_field(s, m).ext_modulus in moduli
        for ext in moduli:
            assert profile(make_field(s, m, ext_modulus=ext)) == want, (q, m, ext)


def test_weight_distribution_gf16_parity1():
    _, _, c1 = gf16_codes()
    dist = weight_distribution(c1)
    assert sum(dist.values()) == 4 ** 7
    assert dist[0] == 1
    assert min(w for w in dist if w) == 5


def test_sampled_upper_reaches_the_known_weights_at_n63():
    _, c0, c1 = gf64_codes()
    assert sampled_upper(c0, trials=2048, seed=0).upper <= 15
    assert sampled_upper(c1, trials=2048, seed=0).upper <= 15
    assert sampled_upper(extend_code(c0), trials=2048, seed=0).upper <= 16
    assert sampled_upper(extend_code(c1), trials=2048, seed=0).upper <= 16


def digest(word):
    return hashlib.sha256(bytes(word)).hexdigest()[:16]


# (parity, extended, seed) -> (upper, sha256 prefix of the witness bytes)
PINNED_N63 = {
    (0, False, 0): (15, "a2d7b749d7d2e94a"), (0, False, 1): (15, "52867e283d921782"),
    (0, True, 0): (16, "ac2008ab40a3f510"), (0, True, 1): (16, "bf6eaa2db9df5d5b"),
    (1, False, 0): (15, "2add417e4fc59a2a"), (1, False, 1): (15, "80e8fdcc6fb4c971"),
    (1, True, 0): (16, "6f8e12784a0cc318"), (1, True, 1): (16, "ce447139aaa535b9"),
}


@pytest.mark.parametrize("parity,extended,seed", sorted(PINNED_N63))
def test_sampled_upper_results_are_pinned_at_n63(parity, extended, seed):
    # the forms of the SplitMix64 column orders; how the candidates are
    # computed (packed words, stacks, unit maps) never changes which wins
    _, *codes = gf64_codes()
    code = codes[parity]
    r = sampled_upper(target(code, extended), trials=2048, seed=seed)
    assert (r.upper, digest(r.witness)) == PINNED_N63[parity, extended, seed]


def test_exact_distance_results_are_pinned_gf16():
    # the first lightest codeword of the window's layers, x^4 + x^9 + x^14
    # and x + x^4 + ... + x^13, since the whole Gray scan no longer picks
    # the witness: 1 + x^5 + x^10 and 1 + x^3 + ... + x^12 before
    _, c0, c1 = gf16_codes()
    r0, r1 = exact_distance(c0), exact_distance(c1)
    assert (r0.exact, digest(r0.witness)) == (3, "b756caba4112143d")
    assert (r1.exact, digest(r1.witness)) == (5, "1f519e12ac9f723c")


def test_sampled_upper_results_are_pinned_at_n1023():
    # 4 forms in one stack, of the SplitMix64 column orders
    f = make_field(2, 5)
    got = [sampled_upper(code_from_T(f, build_T(4, 5, p)), trials=64, seed=0)
           for p in (0, 1)]
    assert [(r.upper, digest(r.witness)) for r in got] == \
        [(346, "a1d41ff613c79e67"), (349, "857273c112c4fe81")]


def test_sampled_upper_results_are_pinned_at_n4095():
    # one 2047 x 4095 form over GF(4): 64 words, most strips' steps reach
    # the words to their right through the tables
    f = make_field(2, 6)
    r = sampled_upper(code_from_T(f, build_T(4, 6, 1)), trials=16, seed=0)
    assert (r.upper, digest(r.witness)) == (1472, "aaae9262936a0094")


def test_sampled_upper_results_are_pinned_across_form_stacks():
    # 10 systematic forms of the [1023, 512]_4 codes, 2 x 16 x 512 words
    # each, fill several stacks of row reductions; a stack's forms are the
    # ones drawn one at a time, so the first 4 are those of the n = 1023 pins
    assert 10 * 2 * 16 * 512 > 2 * (2 * distance._STACK_WORDS)
    f = make_field(2, 5)
    got = [sampled_upper(code_from_T(f, build_T(4, 5, p)), trials=160, seed=0)
           for p in (0, 1)]
    assert [(r.upper, digest(r.witness)) for r in got] == \
        [(346, "a1d41ff613c79e67"), (348, "eaeed4a9112f1899")]


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("pair_scan", [False, True])
def test_stacked_scoring_matches_the_byte_oracle(monkeypatch, s, pair_scan):
    # few columns and repeated rows, so weights tie and some pairs cancel;
    # a small pair budget scans the stack one or two matrices at a time
    monkeypatch.setattr(distance, "_STACK_WORDS", 2 * 6 * 6 * s)
    f = make_field(s, 2)
    rng = np.random.default_rng(s)
    forms = []
    for _ in range(5):
        a = rng.integers(0, f.q, size=(6, 9), dtype=np.uint8)
        a[rng.random(a.shape) < 0.5] = 0
        a[4] = f.np_mul_table[f.q - 1, a[1]]
        forms.append(a)
    forms[2][:] = 0
    # r_0 + lam r_1 = e_3, with lam the largest scalar past its inverse (1 in
    # GF(2)), among rows of weight 9: the lightest pair of the form is a word
    # of lam, which the scan meets as r_1 + lam^(-1) r_0 = lam^(-1) e_3
    lam = max((x for x in range(1, f.q) if f.np_inv_table[x] < x), default=1)
    a = rng.integers(1, f.q, size=(6, 9), dtype=np.uint8)
    a[0] = f.np_mul_table[lam, a[1]]
    a[0, 3] ^= 1
    forms.append(a)
    stack = np.stack([packed.pack(a, s) for a in forms], axis=-1)
    weights, words = distance._lightest(packed.scalar_masks(f), f.np_inv_table, stack, 9,
                                        pair_scan)
    for j, a in enumerate(forms):
        w, word = oracle.lightest(f, a, pair_scan)
        assert weights[j] == w
        if word is not None:
            assert np.array_equal(packed.unpack(words[..., j], 9), word)
    if pair_scan:
        assert weights[-1] == 1


def test_pair_scan_skips_pairs_that_cancel():
    # r4 = 3 r1 over GF(4), so r1 + 2 r4 and r4 + 3 r1 vanish and are each
    # the first lightest pair of their lam; the lightest nonzero word is
    # r2 + 2 r0 (and r0 + 3 r2), of weight 1, where the rows weigh 3 or more
    f = make_field(2, 2)
    a = np.array([[1, 1, 1, 1, 1, 1, 0, 0, 0],
                  [0, 0, 0, 0, 0, 0, 1, 1, 1],
                  [2, 2, 2, 2, 2, 2, 1, 0, 0],
                  [1, 2, 3, 1, 2, 3, 1, 2, 3],
                  [0, 0, 0, 0, 0, 0, 3, 3, 3],
                  [3, 1, 2, 2, 3, 1, 1, 0, 1]], dtype=np.uint8)
    expect = np.array([0, 0, 0, 0, 0, 0, 1, 0, 0], dtype=np.uint8)
    assert oracle.lightest(f, a, True)[0] == 1
    assert np.array_equal(oracle.lightest(f, a, True)[1], expect)
    stack = packed.pack(a, 2)[..., None]
    weights, words = distance._lightest(packed.scalar_masks(f), f.np_inv_table, stack, 9, True)
    assert weights[0] == 1
    assert np.array_equal(packed.unpack(words[..., 0], 9), expect)


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 1023])
def test_every_drawn_column_order_is_a_permutation(n):
    for seed, first in ((0, 0), (1, 5), (7, 1000), (2 ** 64 + 3, 2)):
        perms = distance._permutations(seed, first, 9, n)
        assert perms.shape == (9, n)
        assert (np.sort(perms, axis=1) == np.arange(n)).all()


@pytest.mark.parametrize("n", [7, 64, 255])
def test_a_stack_of_column_orders_is_its_forms_drawn_one_at_a_time(n):
    # form f's order depends on (seed, f, n) alone, however the forms are
    # split into stacks
    for seed, a, b, c in ((0, 0, 1, 1), (1, 0, 4, 6), (7, 3, 10, 128), (2 ** 70, 2, 5, 5)):
        whole = distance._permutations(seed, a, b + c, n)
        parts = np.vstack([distance._permutations(seed, a, b, n),
                           distance._permutations(seed, a + b, c, n)])
        assert np.array_equal(whole, parts)
        assert np.array_equal(whole[0], distance._permutations(seed, a, 1, n)[0])


def test_drawn_column_orders_are_uniform_over_positions():
    # 4096 orders of 8 columns: each (position, value) count is
    # Binomial(4096, 1/8), mean 512 and sigma sqrt(448) ~ 21.2
    perms = distance._permutations(0, 0, 4096, 8)
    counts = np.stack([np.bincount(col, minlength=8) for col in perms.T])
    assert np.abs(counts - 512).max() < 5 * math.sqrt(4096 * 7 / 64)


def test_seeds_are_folded_over_all_their_bits():
    orders = [distance._permutations(seed, 0, 4, 63).tobytes()
              for seed in (0, 1, 2 ** 64, 2 ** 64 + 1, 2 ** 70)]
    assert len(set(orders)) == len(orders)
    _, c0, _ = gf64_codes()
    r = sampled_upper(c0, trials=64, seed=2 ** 70)
    assert r.seed == 2 ** 70 and r.upper <= 16


@pytest.mark.parametrize("extended", [False, True])
def test_sampled_upper_is_the_same_one_form_per_stack(monkeypatch, extended):
    _, c0, _ = gf64_codes()
    code = code_from_T(make_field(2, 4), build_T(4, 4, 0))  # 64 forms, two stacks
    want = [sampled_upper(target(c, extended), trials=t, seed=3)
            for c, t in ((c0, 512), (code, 1024))]
    monkeypatch.setattr(distance, "_STACK_WORDS", 1)
    assert [sampled_upper(target(c, extended), trials=t, seed=3)
            for c, t in ((c0, 512), (code, 1024))] == want


def test_sampled_upper_rejects_a_negative_seed():
    _, c0, _ = gf64_codes()
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        sampled_upper(c0, trials=16, seed=-1)


def test_sampled_upper_working_memory_does_not_grow_with_k():
    f = make_field(2, 4)
    c = code_from_T(f, build_T(4, 4, 0))  # [255, 129]
    # 64 systematic forms of 2 x 4 x 129 words fill two stacks
    assert 64 * 2 * 4 * 129 > 2 * distance._STACK_WORDS
    assert sampled_upper(c, trials=1024, seed=0).upper == 74
    # a (trials, k, n) gather of the messages would take 16.8 MB
    assert peak_traced_bytes(sampled_upper, c, trials=1024, seed=0) < 4 * 2 ** 20


def test_sampled_upper_witness_is_a_codeword():
    f, c0, _ = gf64_codes()
    r = sampled_upper(c0, trials=256, seed=0)
    _, rem = oracle.poly_divmod(f, oracle.trim(list(r.witness)), c0.generator)
    assert rem == ()
    assert sum(1 for x in r.witness if x) == r.upper


def test_sampled_upper_reproducible_and_monotone():
    _, c0, _ = gf64_codes()
    r1 = sampled_upper(c0, trials=512, seed=42)
    r2 = sampled_upper(c0, trials=512, seed=42)
    assert r1 == r2
    uppers = [sampled_upper(c0, trials=t, seed=7).upper
              for t in (64, 256, 1024)]
    assert uppers == sorted(uppers, reverse=True) or \
        all(a >= b for a, b in zip(uppers, uppers[1:]))
    # trials counts only through its max(1, trials // 16) random forms
    c = code_from_T(make_field(1, 5), build_T(2, 5, 0))
    assert sampled_upper(c, trials=16, seed=0) == sampled_upper(c, trials=31, seed=0)


def test_sampled_upper_never_below_exact():
    _, c0, c1 = gf16_codes()
    for c in (c0, c1):
        exact = exact_distance(c).exact
        r = sampled_upper(c, trials=512, seed=0)
        assert r.upper >= exact and r.exact is None
        # a witness that meets the lower bound makes the distance exact,
        # and one lighter than it contradicts the bound
        assert sampled_upper(c, trials=512, seed=0, lower=r.upper).exact == r.upper
        with pytest.raises(ValueError, match="inconsistent report"):
            sampled_upper(c, trials=512, seed=0, lower=r.upper + 1)


def test_report_invariants():
    with pytest.raises(ValueError, match="inconsistent"):
        DistanceReport(lower=5, upper=4, exact=4, witness_weight=4,
                       method="exhaustive")
    with pytest.raises(ValueError, match="witness weight"):
        DistanceReport(lower=1, upper=2, exact=None, witness_weight=2,
                       method="sampled", witness=(1, 0, 0))


# every odd-m family with n <= 4095, and the (n, k) of its pair
DUADIC_FAMILIES = [(2, 3, 7, 4), (2, 5, 31, 16), (2, 7, 127, 64), (2, 9, 511, 256),
                   (2, 11, 2047, 1024), (4, 3, 63, 32), (4, 5, 1023, 512),
                   (8, 3, 511, 256), (16, 3, 4095, 2048)]


def duadic_reason(n, k):
    return (f"T_1 = -T_0 and g_1 divides mu_(-1)(g_0), so mu_(-1) maps C_0 onto "
            f"C_1, both [{n},{k}]: one weight distribution, one minimum distance")


def test_duadic_distance_equality_exact_mode():
    # the binary families, whose pairs test_duadic_pair_weight_distributions_agree
    # also tallies at m = 3 and 5: the certificate is the generator division
    for q, m, n, k in DUADIC_FAMILIES:
        if q == 2:
            res = verify_duadic_distance_equality(q, m)
            assert res.ok, res.reason
            assert res.reason == duadic_reason(n, k)


def test_duadic_distance_equality_sampled_mode():
    # the families past the tally cap, [63, 32]_4 to [4095, 2048]_16, which a
    # distance search could only bound: each certified in well under 1 s
    for q, m, n, k in DUADIC_FAMILIES:
        if q > 2:
            start = time.perf_counter()
            res = verify_duadic_distance_equality(q, m)
            assert time.perf_counter() - start < 1.0, (q, m)
            assert res.ok, res.reason
            assert res.reason == duadic_reason(n, k)


def test_duadic_certificate_runs_no_distance_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate ran a distance search")

    for name in ("exact_distance", "sampled_upper"):
        monkeypatch.setattr(distance, name, refuse)
    monkeypatch.setattr(cyclic, "row_reduce", refuse)
    for q, m, n, k in DUADIC_FAMILIES:
        assert verify_duadic_distance_equality(q, m).reason == duadic_reason(n, k)


def test_duadic_certificate_fails_when_t1_is_not_minus_t0(monkeypatch):
    # parity 1 replaced by sets that are not -T_0: T_0 itself (odd m, so not
    # LCD) and -T_0 less one residue, which is not even closed under q
    real = coset.build_T
    for fake in (lambda T0: T0.elems, lambda T0: [-e for e in T0.elems][1:]):
        monkeypatch.setattr(coset, "build_T", lambda q, m, parity, fake=fake:
                            real(q, m, 0) if parity == 0 else
                            oracle.raw_set(q ** m - 1, q, fake(real(q, m, 0))))
        res = verify_duadic_distance_equality(2, 3)
        assert not res.ok
        assert "T_1 != -T_0" in res.reason


def test_duadic_certificate_rechecks_the_mapped_witness(monkeypatch):
    # g_0 in place of g_1: mu_(-1)(g_0) has the roots beta^(-t), t in T_0,
    # and T_0 != -T_0, so the division by g_0 leaves a remainder
    real = cyclic.generator_polynomial
    for q, m in ((2, 3), (4, 3)):
        T0 = build_T(q, m, 0)
        monkeypatch.setattr(cyclic, "generator_polynomial",
                            lambda field, T, T0=T0: real(field, T0))
        res = verify_duadic_distance_equality(q, m)
        assert not res.ok
        assert res.reason == ("g_1 does not divide mu_(-1)(g_0), so mu_(-1) does not "
                              "map C_0 into C_1")


def test_duadic_distance_equality_domain():
    # q = 0 has s = -1: refused before 1 << s is formed
    for q, m in ((4, 2), (0, 3), (1, 3), (3, 3), (512, 3)):
        with pytest.raises(DomainError):
            verify_duadic_distance_equality(q, m)


def test_negation_permutation_maps_pair_members():
    # odd m: the coordinate permutation j -> -j carries parity-0 codewords
    # onto parity-1 codewords (row-space equality of permuted generators)
    f, c0, c1 = gf64_codes()
    G0 = oracle.generator_matrix(c0).array
    G1 = oracle.generator_matrix(c1).array
    perm = [(-j) % 63 for j in range(63)]
    stacked = np.concatenate([G1, G0[:, perm]], axis=0)
    assert oracle.matrix_rank(oracle.GeneratorMatrix(f, stacked)) == 32
    # even m: the same permutation fixes each code
    f2, d0, _ = gf16_codes()
    G = oracle.generator_matrix(d0).array
    perm15 = [(-j) % 15 for j in range(15)]
    stacked = np.concatenate([G, G[:, perm15]], axis=0)
    assert oracle.matrix_rank(oracle.GeneratorMatrix(f2, stacked)) == 9


def test_sampled_upper_handles_large_dimension():
    # k = 256 disables the pairwise tensor scan but the row and
    # systematic-form candidates still apply
    f = make_field(3, 3)
    c = code_from_T(f, build_T(8, 3, 0))
    r = sampled_upper(c, trials=16, seed=0)
    assert r.upper <= 511
    assert sum(1 for x in r.witness if x) == r.upper


def test_self_dual_extension_weight_parity_is_reported_not_asserted():
    # odd codeword weights do occur in the Euclidean self-dual extension;
    # record the observation so nobody tightens this into an assertion
    _, c0, _ = gf64_codes()
    r17 = sampled_upper(extend_code(c0), trials=256, seed=0)
    assert r17.upper in (16, 17)
