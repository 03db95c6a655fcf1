import random

import numpy as np
import pytest

import oracle
from tdcodes import polys
from tdcodes.coset import build_T, defining_set, leader_mask, negate_set
from tdcodes.cyclic import (_gram_band, code_from_T, complement_code,
                            dual_code, even_like, extend_code,
                            extension_is_self_dual, generator_polynomial,
                            hull_dimension, is_lcd, is_self_orthogonal,
                            poly_pretty, code_to_json)
from tdcodes.gf import MAX_TABLE_ORDER, FieldSpec, make_field

# generator polynomials of the two quaternary length-63 codes, little-endian
# base reprs (0, 1, w -> 2, w^2 -> 3); known printed values for this tower
REFERENCE_G0 = (1, 0, 2, 3, 2, 2, 3, 2, 1, 1, 1, 0, 1, 1, 0, 1,
                2, 2, 1, 0, 0, 1, 0, 1, 3, 3, 3, 1, 0, 3, 1, 1)
REFERENCE_G1 = tuple(reversed(REFERENCE_G0))


def gf64():
    return make_field(2, 3, base_modulus=0b111, ext_modulus=(2, 1, 1, 1))


def pair(field, q, m):
    return (code_from_T(field, build_T(q, m, 0)),
            code_from_T(field, build_T(q, m, 1)))


def test_minimal_polynomial_of_one():
    f = make_field(2, 2)
    assert oracle.minimal_polynomial(f, 0) == (1, 1)  # x + 1


def test_minimal_polynomial_degree_one_coset():
    f = make_field(2, 2)
    mp = oracle.minimal_polynomial(f, 5)
    assert len(mp) == 2 and mp[1] == 1
    assert oracle.embed_base(f, mp[0]) == oracle.beta_power(f, 5)


@pytest.mark.parametrize("s", [1, 2, 4, 8])
def test_poly_mul_matches_schoolbook(s):
    f = make_field(s, 2)
    rng = random.Random(s)

    def poly():
        p = [rng.randrange(f.q) for _ in range(rng.randrange(40))]
        if p:
            p[-1] = rng.randrange(1, f.q)
        return tuple(p)

    for _ in range(60):
        a, b = poly(), poly()
        assert polys.mul(f, a, b) == oracle.poly_mul(f, a, b)
    assert polys.mul(f, (), (1, 1)) == polys.mul(f, (1,), ()) == ()


def _add(a, b):
    out = [0] * max(len(a), len(b))
    for p in (a, b):
        for i, c in enumerate(p):
            out[i] ^= c
    return oracle.trim(out)


def _random_poly(rng, q, length, lead=None):
    p = [rng.randrange(q) for _ in range(length)]
    if p:
        p[-1] = rng.randrange(1, q) if lead is None else lead
    return tuple(p)


@pytest.mark.parametrize("s", [1, 2, 4, 8])
def test_poly_divmod_matches_long_division(s):
    f = make_field(s, 2)
    rng = random.Random(100 + s)
    top = f.q - 1  # not 1 unless s = 1, so b is non-monic
    pairs = [(_random_poly(rng, f.q, rng.randrange(60)),
              _random_poly(rng, f.q, rng.randrange(1, 30))) for _ in range(60)]
    pairs += [
        (_random_poly(rng, f.q, 5), _random_poly(rng, f.q, 9)),  # deg a < deg b
        ((), _random_poly(rng, f.q, 4)),
        (_random_poly(rng, f.q, 20), (rng.randrange(1, f.q),)),  # constant b
        (_random_poly(rng, f.q, 40), _random_poly(rng, f.q, 7, lead=top)),
    ]
    for a, b in pairs:
        quot, rem = (tuple(c.tolist()) for c in polys._divmod_array(
            f, np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)))
        assert (quot, rem) == oracle.poly_divmod(f, a, b), (a, b)
        assert len(rem) < len(b)
        assert _add(polys.mul(f, quot, b), rem) == a
    with pytest.raises(ZeroDivisionError):
        oracle.poly_divmod(f, (1, 1), ())


@pytest.mark.parametrize("s", [1, 2, 4, 8])
def test_poly_gcd(s):
    f = make_field(s, 2)
    rng = random.Random(200 + s)
    for _ in range(30):
        a, b, c = (_random_poly(rng, f.q, rng.randrange(1, 25)) for _ in range(3))
        g = polys.gcd(f, polys.mul(f, a, c), polys.mul(f, b, c))
        assert g[-1] == 1
        assert oracle.poly_divmod(f, g, c)[1] == ()
        assert oracle.poly_divmod(f, polys.mul(f, a, c), g)[1] == ()
    assert polys.gcd(f, (), ()) == ()
    top = f.q - 1
    assert polys.gcd(f, (), (1, top)) == polys.gcd(f, (1, top), ()) \
        == (f.base_inv(top), 1)
    part = oracle.coset_partition(f.q, f.n)
    leaders = rng.sample(part.leaders, min(6, len(part.leaders)))
    for i, j in zip(leaders, leaders[1:]):
        mi, mj = oracle.minimal_polynomial(f, i), oracle.minimal_polynomial(f, j)
        assert polys.gcd(f, mi, mj) == (1,)
        assert polys.gcd(f, polys.mul(f, mi, mj), mi) == mi


def test_poly_gcd_of_generators_is_the_generator_of_the_intersection():
    f = make_field(2, 3)
    part = oracle.coset_partition(f.q, f.n)
    cosets = [part.coset(leader) for leader in part.leaders]
    rng = random.Random(7)
    for _ in range(20):
        T1, T2 = ([e for c in cosets if rng.random() < 0.5 for e in c]
                  for _ in range(2))
        g1, g2, g12 = (generator_polynomial(f, defining_set(f.n, f.q, T))
                       for T in (T1, T2, set(T1) & set(T2)))
        assert polys.gcd(f, g1, g2) == g12


@pytest.mark.parametrize("s,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_product_of_minimal_polynomials_is_x_n_minus_1(s, m):
    f = make_field(s, m)
    part = oracle.coset_partition(f.q, f.n)
    prod = (1,)
    for leader in part.leaders:
        mp = oracle.minimal_polynomial(f, leader)
        assert len(mp) - 1 == len(part.coset(leader))
        prod = polys.mul(f, prod, mp)
    assert prod == oracle.x_pow_n_plus_1(f.n)


def test_generator_polynomial_trivial_sets():
    f = make_field(2, 2)
    assert generator_polynomial(f, oracle.raw_set(15, 4, ())) == (1,)
    g = generator_polynomial(f, oracle.raw_set(15, 4, range(15)))
    assert g == oracle.x_pow_n_plus_1(15)


def test_generator_polynomial_rejects_unclosed_set():
    f = make_field(2, 2)
    with pytest.raises(ValueError, match="not closed"):
        generator_polynomial(f, oracle.raw_set(15, 4, (1,)))


def test_reference_generator_polynomials():
    f = gf64()
    c0, c1 = pair(f, 4, 3)
    assert c0.generator == REFERENCE_G0
    assert c1.generator == REFERENCE_G1
    assert c0.k == c1.k == 32
    # the two sets are negations of each other, so g1 is g0 reversed
    assert c1.generator == tuple(reversed(c0.generator))


def test_generator_roots_match_defining_set_exactly():
    for f in (make_field(2, 2), gf64()):
        c = code_from_T(f, build_T(f.q, f.m, 0))
        g = c.generator
        for i in range(f.n):
            val = oracle.eval_ext(f, g, oracle.beta_power(f, i))
            assert (val == 0) == (i in c.T), i


@pytest.mark.parametrize("q,m", oracle.SMALL_QM + [(4, 7)])
def test_generator_polynomial_matches_the_sequential_fold(q, m):
    # the vectorized minimal polynomials and the product tree give the g of
    # one scalar minimal polynomial and one schoolbook product per leader
    f = make_field(q.bit_length() - 1, m)
    for parity in (0, 1):
        T = build_T(q, m, parity)
        assert generator_polynomial(f, T) == oracle.generator_polynomial(f, T), parity


@pytest.mark.parametrize("s,m", [(1, 6), (2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 2), (3, 3), (4, 2)])
def test_generator_roots_under_a_second_primitive_modulus(s, m):
    # another modulus gives another field and another g, still with roots
    # beta^i exactly for i in T; g has GF(q) coefficients, so a root at a
    # coset leader is a root on its whole coset
    f = oracle.second_primitive_field(s, m)
    assert f.ext_modulus != make_field(s, m).ext_modulus
    leaders = np.flatnonzero(leader_mask(f.q, f.n)).tolist()
    for parity in (0, 1):
        T = build_T(f.q, m, parity)
        g = generator_polynomial(f, T)
        assert g == oracle.generator_polynomial(f, T)
        for i in leaders:
            assert (oracle.eval_ext(f, g, oracle.beta_power(f, i)) == 0) == (i in T), i


def test_the_oracle_never_reads_the_library_extension_tables(monkeypatch):
    # the reference g and root checks build their own tables (and multiply
    # by polynomial arithmetic past 2^16), so a fault in FieldSpec._ext_tables
    # cannot show up on both sides of a comparison
    def reference():
        f, big = make_field(2, 3), make_field(2, 11)
        gs = [oracle.generator_polynomial(f, build_T(4, 3, p)) for p in (0, 1)]
        roots = [oracle.eval_ext(f, gs[0], oracle.beta_power(f, i)) for i in range(f.n)]
        return gs, roots, oracle.minimal_polynomial(big, 1)

    want = reference()
    assert want[1].count(0) == 31 and len(want[2]) == 12

    def refuse(self):
        raise AssertionError("the oracle read FieldSpec._ext_tables")

    monkeypatch.setattr(FieldSpec, "_ext_tables", property(refuse))
    oracle.ext_tables.cache_clear()
    assert reference() == want


@pytest.mark.parametrize("s,m", [(7, 3), (2, 11)])
def test_generator_polynomial_on_a_field_past_2_20(s, m):
    # fields up to q^m = 2^22 build their tables, and g matches the product
    # of the oracle's scalar minimal polynomials
    f = make_field(s, m)
    assert 1 << 20 < f.q ** m <= MAX_TABLE_ORDER
    exp, log = f._ext_tables
    assert exp.size == f.n and log.size == f.n + 1
    leaders = (0, 1, 3)
    T = defining_set(f.n, f.q, [e for i in leaders
                                for e in oracle.cyclotomic_coset(i, f.q, f.n)])
    want = (1,)
    for i in leaders:
        want = oracle.poly_mul(f, want, oracle.minimal_polynomial(f, i))
    assert generator_polynomial(f, T) == want and len(want) == 2 * m + 2


@pytest.mark.parametrize("s", range(1, 9))
def test_batched_multiply_matches_schoolbook_rows(s):
    # lengths on both sides of the FFT crossover, row by row against the
    # one-row schoolbook product; the FFT path also where it is not chosen
    f = make_field(s, 2)
    rng = np.random.default_rng(s)
    x = polys._FFT_MIN_LEN
    for rows, la, lb in [(1, 1, 5), (7, 4, 4), (3, x - 1, x - 1), (4, x - 1, 3 * x),
                         (2, x, x), (5, x + 7, 2 * x + 1), (1, 1000, 3001)]:
        a = rng.integers(0, f.q, (rows, la), dtype=np.uint8)
        b = rng.integers(0, f.q, (rows, lb), dtype=np.uint8)
        want = np.stack([polys._mul_array(f.np_mul_table, a[i], b[i])
                         for i in range(rows)])
        assert np.array_equal(polys._mul_rows(f, a, b), want), (rows, la, lb)
        assert np.array_equal(polys._mul_fft(f, a, b), want), (rows, la, lb)
        if rows == 1:
            assert polys.mul(f, tuple(a[0]), tuple(b[0])) == tuple(want[0].tolist())


def test_fft_multiply_of_a_2_15_coefficient_product():
    # s = 8 has the largest counts, 8 * 2^14 per coefficient
    f = make_field(8, 2)
    rng = np.random.default_rng(15)
    a = rng.integers(0, f.q, 1 << 14, dtype=np.uint8)
    b = rng.integers(0, f.q, (1 << 14) + 1, dtype=np.uint8)
    got = polys._mul_rows(f, a, b)
    assert got.size == 1 << 15
    assert np.array_equal(got, polys._mul_array(f.np_mul_table, a, b))


def test_fft_rounding_guard_refuses_a_perturbed_convolution(monkeypatch):
    assert polys._rounded(np.array([0.0, 3.0, 5.24, 6.8])).tolist() == [0, 3, 5, 7]
    with pytest.raises(ArithmeticError):
        polys._rounded(np.array([1.0, 2.26]))
    f = make_field(2, 2)
    a = np.arange(100, dtype=np.uint8) % 4
    polys._mul_fft(f, a, a)
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    with pytest.raises(ArithmeticError):
        polys._mul_fft(f, a, a)


def test_product_tree_matches_the_sequential_product():
    # odd row counts carry a row up a level; rows are zero above their degree
    f = make_field(2, 2)
    rng = random.Random(9)
    for count in (0, 1, 2, 3, 5, 7, 12):
        ps = [_random_poly(rng, f.q, rng.randrange(1, 6)) for _ in range(count)]
        rows = np.zeros((count, 6), dtype=np.uint8)
        for row, p in zip(rows, ps):
            row[:len(p)] = p
        want = (1,)
        for p in ps:
            want = oracle.poly_mul(f, want, p)
        degrees = np.array([len(p) - 1 for p in ps], dtype=np.intp)
        assert tuple(polys._fold(f, rows, degrees).tolist()) == want, count


def test_dimensions():
    f = gf64()
    c0, _ = pair(f, 4, 3)
    assert c0.k == 32 == (c0.n + 1) // 2
    f2 = make_field(2, 2)
    c0, c1 = pair(f2, 4, 2)
    assert c0.k == 9 == (15 + 3) // 2
    assert c1.k == 7 == (15 - 1) // 2


def test_even_like():
    f = gf64()
    c0, _ = pair(f, 4, 3)
    el = even_like(c0)
    assert el.k == 31
    assert 0 in el.T
    assert el.generator == polys.mul(f, (1, 1), c0.generator)
    with pytest.raises(ValueError):
        even_like(el)


def test_even_like_takes_its_generator_from_a_known_parent():
    for q, m in ((4, 3), (2, 5), (16, 2)):
        f = make_field(q.bit_length() - 1, m)
        for code in pair(f, q, m):
            fresh = even_like(code)
            assert "generator" not in vars(code)
            fresh_g = fresh.generator  # parent g unknown: folded
            code.generator
            seeded = even_like(code)
            assert "generator" in vars(seeded)
            assert seeded == fresh and seeded.generator == fresh_g


def test_dual_code_identities():
    f = make_field(2, 2)
    c0, c1 = pair(f, 4, 2)
    assert dual_code(c0).T == even_like(c1).T
    assert dual_code(c1).T == even_like(c0).T
    assert dual_code(dual_code(c0)).T == c0.T
    whole = code_from_T(f, oracle.raw_set(15, 4, ()))
    assert dual_code(whole).k == 0


def test_dual_code_agrees_with_matrix_orthogonality():
    for f in (make_field(2, 2), gf64()):
        c = code_from_T(f, build_T(f.q, f.m, 0))
        d = dual_code(c)
        G, D = oracle.generator_matrix(c), oracle.generator_matrix(d)
        assert oracle.products_are_zero(G, D)
        assert oracle.matrix_rank(D) == c.n - c.k


def test_complement_code():
    f = gf64()
    c0, c1 = pair(f, 4, 3)
    assert complement_code(c0).T == even_like(c1).T
    assert complement_code(c1).T == even_like(c0).T
    assert complement_code(c0).k == c0.n - c0.k
    assert complement_code(complement_code(c0)).T == c0.T


def test_generator_matrix_and_encode():
    f = gf64()
    c0, _ = pair(f, 4, 3)
    mat = oracle.generator_matrix(c0)
    assert (mat.rows, mat.cols) == (32, 63)
    assert oracle.matrix_rank(mat) == 32
    assert not oracle.encode(c0, [0] * 32).any()
    e0 = [1] + [0] * 31
    cw = oracle.encode(c0, e0)
    assert tuple(int(x) for x in cw[:32]) == c0.generator
    # every encoding is divisible by g
    rng = random.Random(5)
    for _ in range(10):
        msg = [rng.randrange(4) for _ in range(32)]
        word = oracle.encode(c0, msg)
        _, rem = oracle.poly_divmod(f, oracle.trim(word.tolist()), c0.generator)
        assert rem == ()
    with pytest.raises(ValueError):
        oracle.encode(c0, [0] * 31)


def test_extend_code():
    f = gf64()
    c0, _ = pair(f, 4, 3)
    # the extension names its code and builds no matrix; the oracle's
    # extended matrix has full rank, and every row, hence every codeword,
    # sums to zero
    assert vars(extend_code(c0)) == {"code": c0}
    ext = oracle.extended_matrix(c0)
    assert (ext.rows, ext.cols) == (32, 64)
    assert oracle.matrix_rank(ext) == 32
    assert not np.bitwise_xor.reduce(ext.array, axis=1).any()


def test_is_lcd():
    f2 = make_field(2, 2)
    c0_even_m, _ = pair(f2, 4, 2)
    assert is_lcd(c0_even_m)
    f = gf64()
    c0_odd_m, _ = pair(f, 4, 3)
    assert not is_lcd(c0_odd_m)
    whole = code_from_T(f2, oracle.raw_set(15, 4, ()))
    assert is_lcd(whole)


def test_hull_dimension():
    f = make_field(2, 2)
    c0, c1 = pair(f, 4, 2)
    assert hull_dimension(c0) == 0
    assert hull_dimension(c1) == 0
    # odd m: the even-like code sits inside the dual, so the hull is large
    fo = gf64()
    codd, _ = pair(fo, 4, 3)
    assert hull_dimension(codd) == 31


@pytest.mark.parametrize("q,m", [(4, 4), (16, 2), (4, 8), (4, 3)])
def test_hull_zero_agrees_with_the_yang_massey_criterion(q, m):
    """A check of the hull beside the gcd: a cyclic code is LCD exactly
    when its g is self-reciprocal, g reversed = g(0) g (Yang and Massey).
    Both codes of an even-m pair are; at odd m neither is."""
    f = make_field(q.bit_length() - 1, m)
    for c in pair(f, q, m):
        g = c.generator
        self_reciprocal = g[::-1] == tuple(f.np_mul_table[g[0]][list(g)].tolist())
        assert (hull_dimension(c) == 0) == self_reciprocal == (m % 2 == 0)


@pytest.mark.parametrize("s,m", [(2, 5), (4, 3), (2, 6), (3, 4)])
def test_hull_dimension_beyond_the_dense_oracle(s, m):
    """n = 1023 and 4095: the hull of C is the hull of its dual, and its
    dimension is the set-level count |T minus -T|."""
    f = make_field(s, m)
    for c in pair(f, f.q, m):
        for code in (c, even_like(c)):
            expected = len(set(code.T.elems) - set(negate_set(code.T).elems))
            assert hull_dimension(code) == hull_dimension(dual_code(code)) \
                == expected
            assert expected == (0 if m % 2 == 0 else (f.n - 1) // 2)


def test_self_dual_and_self_orthogonal():
    f = gf64()
    c0, c1 = pair(f, 4, 3)
    assert extension_is_self_dual(c0)
    assert extension_is_self_dual(c1)
    assert not is_self_orthogonal(c0)  # k = 32 > n/2
    el = even_like(c0)
    assert is_self_orthogonal(el)
    assert not extension_is_self_dual(el)  # 2k = 62 != 64


def test_gram_matrix_detects_non_orthogonality():
    f = make_field(2, 2)
    c0, _ = pair(f, 4, 2)
    assert oracle.gram_matrix(oracle.generator_matrix(c0)).any()  # LCD code: hull is 0
    assert not is_self_orthogonal(c0)


def _toeplitz(band):
    idx = np.arange(band.size)
    return band[np.abs(idx[:, None] - idx[None, :])]


def _assert_matches_oracle(code):
    """The band checks against the dense k x n computations."""
    gram = oracle.gram_matrix(oracle.generator_matrix(code))
    assert np.array_equal(_toeplitz(_gram_band(code)), gram)
    assert is_self_orthogonal(code) == (not gram.any())
    if 2 * code.k == code.n + 1:
        assert extension_is_self_dual(code) == (
            not oracle.gram_matrix(oracle.extended_matrix(code)).any())
    else:
        assert not extension_is_self_dual(code)
    assert hull_dimension(code) == oracle.hull_dimension(code)


SMALL_FIELDS = [(s, m) for s in (1, 2, 3, 4) for m in range(2, 9)
                if (1 << s) ** m - 1 <= 255]


@pytest.mark.parametrize("s,m", SMALL_FIELDS)
def test_structure_checks_match_the_dense_oracle_on_the_parity_codes(s, m):
    f = make_field(s, m)
    for c in pair(f, f.q, m):
        _assert_matches_oracle(c)
        _assert_matches_oracle(even_like(c))


@pytest.mark.parametrize("s,m", SMALL_FIELDS)
def test_structure_checks_match_the_dense_oracle_on_random_coset_unions(s, m):
    f = make_field(s, m)
    part = oracle.coset_partition(f.q, f.n)
    cosets = [part.coset(leader) for leader in part.leaders]
    rng = random.Random(1000 * s + m)
    # the dense oracle costs about 0.1 s per code at n = 255
    for trial in range(25 if f.n < 255 else 2):
        rng.shuffle(cosets)
        if trial % 2:
            # aim at |T| = (n - 1)/2, where the extension can be self-dual
            T: list[int] = []
            for c in cosets:
                if len(T) + len(c) <= (f.n - 1) // 2:
                    T += c
        else:
            # any size, so k > (n + 1)/2 and lags past deg g occur too
            keep = rng.random()
            T = [e for c in cosets if rng.random() < keep for e in c]
        _assert_matches_oracle(code_from_T(f, defining_set(f.n, f.q, T)))


def test_poly_pretty():
    f = gf64()
    c0, _ = pair(f, 4, 3)
    text = poly_pretty(f, c0.generator)
    assert text.startswith("x^31 + x^30 + w^2 x^29 + x^27")
    assert text.endswith("w^2 x^3 + w x^2 + 1")
    assert poly_pretty(f, ()) == "0"
    assert poly_pretty(f, (2, 1)) == "x + w"


@pytest.mark.parametrize("s,m", [(1, 5), (2, 3), (4, 2), (8, 2)])
def test_poly_pretty_matches_the_term_loop(s, m):
    # generator polynomials of both parities, and random polynomials with
    # zero and one coefficients at degrees 0 and 1
    f = make_field(s, m)
    rng = random.Random(s)
    polys_ = [code_from_T(f, build_T(f.q, m, p)).generator for p in (0, 1)]
    polys_ += [tuple(rng.choice([0, 1, rng.randrange(f.q)]) for _ in range(k))
               for k in (1, 2, 3, 9) for _ in range(8)]
    for p in polys_:
        assert poly_pretty(f, p) == oracle.poly_pretty(f, p), p


def test_code_json_round_trip():
    f = make_field(2, 2)
    c0, _ = pair(f, 4, 2)
    data = code_to_json(c0, parity=0)
    assert data["q"] == 4 and data["m"] == 2 and data["n"] == 15
    assert data["k"] == 9 and data["parity"] == 0
    assert data["generator_poly"] == list(c0.generator)
    again = code_from_T(f, defining_set(data["n"], data["q"],
                                        data["defining_set"]))
    assert again.T == c0.T


def test_code_from_T_validates_consistency():
    f = make_field(2, 2)
    with pytest.raises(ValueError, match="does not match"):
        code_from_T(f, build_T(4, 3, 0))
    with pytest.raises(ValueError, match="not closed"):
        code_from_T(f, oracle.raw_set(15, 4, (1,)))


def test_a_code_checks_its_defining_set_for_closure_once(monkeypatch):
    # code_from_T and the generator polynomial both need a closed set; the
    # set remembers the answer, so building a code and its g checks once
    from tdcodes import coset
    calls = []
    check = coset._first_unclosed
    monkeypatch.setattr(coset, "_first_unclosed", lambda S: calls.append(S) or check(S))
    f = make_field(2, 3)
    assert len(code_from_T(f, build_T(4, 3, 0)).generator) == 64 - 32
    assert len(calls) == 1
    # an unclosed set still fails both ways, with the same error
    T = oracle.raw_set(63, 4, (1,))
    for build in (lambda: code_from_T(f, T), lambda: generator_polynomial(f, T)):
        with pytest.raises(ValueError, match="not closed under multiplication by q"):
            build()


def test_defining_set_of_code_equals_root_set_of_generator():
    # spot-check the defining-set/root correspondence on a non-parity set
    f = make_field(2, 2)
    T = defining_set(15, 4, [1, 4, 2, 8, 3, 12])
    c = code_from_T(f, T)
    assert c.k == 15 - 6
    for i in range(15):
        val = oracle.eval_ext(f, c.generator, oracle.beta_power(f, i))
        assert (val == 0) == (i in T)
