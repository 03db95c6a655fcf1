import itertools
import json
import math
import random

import numpy as np
import pytest

import oracle
from tdcodes import gf
from tdcodes.gf import (MAX_TABLE_ORDER, FieldError, FieldSpec, _prime_factors,
                        default_base_modulus, field_spec_from_json, make_field)

EXAMPLE_FIELD = dict(s=2, m=3, base_modulus=0b111, ext_modulus=(2, 1, 1, 1))


def example_field():
    return make_field(**EXAMPLE_FIELD)


def table_power(f, i):
    """beta^i read off the library's exp table."""
    return int(f._ext_tables[0][i % f.n])


def table_mul(f, a, b):
    """a * b read off the library's exp and log tables."""
    if a == 0 or b == 0:
        return 0
    exp, log = f._ext_tables
    return int(exp[(int(log[a]) + int(log[b])) % f.n])


def test_make_field_accepts_the_gf64_tower():
    f = example_field()
    assert f.q == 4 and f.n == 63
    # the defining relation: beta^3 = beta^2 + beta + w
    assert oracle.ext_coeffs(f, table_power(f, 3)) == (2, 1, 1)


def test_make_field_smallest_tower():
    f = make_field(1, 2)
    assert f.q == 2 and f.n == 3
    assert table_power(f, 3) == 1


def test_default_ext_modulus_gf16():
    # brute-force oracle: first monic quadratic over GF(4) (ascending packed
    # coefficients) whose root has order 15, with hand-coded GF(4) tables
    gf4_mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]

    def root_order_is_15(c0, c1):
        # powers of x modulo x^2 + c1 x + c0, elements as (lo, hi)
        seen = []
        el = (0, 1)
        for _ in range(15):
            seen.append(el)
            lo, hi = el
            # multiply by x: (lo, hi) * x = (0, lo) + hi * (c0, c1)
            el = (gf4_mul[hi][c0], lo ^ gf4_mul[hi][c1])
        return el == (0, 1) and len(set(seen)) == 15 and (1, 0) in seen

    expected = None
    for packed in range(16):
        c0, c1 = packed & 3, packed >> 2
        if c0 and root_order_is_15(c0, c1):
            expected = (c0, c1, 1)
            break
    assert expected == (2, 1, 1)
    f = make_field(2, 2)
    assert f.ext_modulus == expected
    assert table_power(f, 15) == 1
    assert all(table_power(f, i) != 1 for i in range(1, 15))


def test_default_base_moduli_are_the_classics():
    assert default_base_modulus(2) == 0b111        # x^2+x+1
    assert default_base_modulus(3) == 0b1011       # x^3+x+1
    assert default_base_modulus(4) == 0b10011      # x^4+x+1


def totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def gf2_has_factor(f):
    """Brute force: some GF(2) polynomial of degree 1..deg(f)/2 divides f."""
    def rem(a, b):
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        return a
    d = f.bit_length() - 1
    return any(rem(f, g) == 0 for g in range(2, 1 << (d // 2 + 1)))


def ext_has_factor(base, f):
    """Brute force: some monic polynomial over GF(q) of degree 1..deg(f)/2
    divides f, with GF(q) arithmetic from the field ``base``."""
    d = len(f) - 1
    return any(not oracle.poly_divmod(base, f, tail + (1,))[1]
               for deg in range(1, d // 2 + 1)
               for tail in itertools.product(range(base.q), repeat=deg))


def monic_polys(q, m):
    return [tail + (1,) for tail in itertools.product(range(q), repeat=m)]


def assert_verdicts(candidates, build, has_factor, accepted, which):
    """make_field accepts exactly ``accepted`` candidates, and a rejection
    says "reducible" exactly when brute-force division finds a factor."""
    good = 0
    for cand in candidates:
        try:
            build(cand)
        except FieldError as exc:
            want = (f"reducible {which} modulus" if has_factor(cand)
                    else f"{which} modulus root is not primitive")
            assert str(exc) == want, cand
        else:
            assert not has_factor(cand), cand
            good += 1
    assert good == accepted


def test_reducible_base_modulus_rejected():
    with pytest.raises(FieldError, match="reducible"):
        make_field(2, 2, base_modulus=0b101)  # x^2+1 = (x+1)^2
    # every degree-s polynomial over GF(2); phi(2^s - 1)/s are primitive
    for s in range(1, 7):
        assert_verdicts(range(1 << s, 1 << (s + 1)),
                        lambda f: make_field(s, 2, base_modulus=f),
                        gf2_has_factor, totient(2 ** s - 1) // s, "base")


def test_reducible_ext_modulus_rejected():
    with pytest.raises(FieldError, match="reducible"):
        make_field(2, 2, ext_modulus=(1, 0, 1))  # x^2+1
    # every monic cubic over GF(4): phi(63)/3 = 12 are primitive
    gf4 = make_field(2, 2)
    assert_verdicts(monic_polys(4, 3),
                    lambda f: make_field(2, 3, ext_modulus=f),
                    lambda f: ext_has_factor(gf4, f), 12, "extension")


def test_non_primitive_ext_modulus_rejected():
    # x^2+x+1 over GF(4) splits over GF(4); any irreducible-but-imprimitive
    # case must also be refused, so probe every monic quadratic over GF(4)
    # and GF(8): phi(15)/2 = 4 and phi(63)/2 = 18 of them are primitive
    for s, accepted in ((2, 4), (3, 18)):
        base = make_field(s, 2)
        assert_verdicts(monic_polys(1 << s, 2),
                        lambda f: make_field(s, 2, ext_modulus=f),
                        lambda f: ext_has_factor(base, f), accepted, "extension")


@pytest.mark.parametrize("s,m", [(2, 4), (4, 2), (3, 3)])
def test_order_test_matches_the_pow_test(s, m):
    # every monic candidate, f(0) = 0 included: the squaring-map order test
    # agrees with polynomial powers, make_field accepts the phi(n)/m
    # primitive ones, and each rejection keeps its wording
    base = make_field(s, 2)
    n = (1 << s) ** m - 1
    factors = _prime_factors(n)
    specs = [FieldSpec(s, m, base.base_modulus, cand)
             for cand in monic_polys(1 << s, m)]
    assert [spec._modulus.x_order_is_full(factors) for spec in specs] == \
        [oracle.ext_x_order_is_full(spec) for spec in specs]
    assert_verdicts(monic_polys(1 << s, m),
                    lambda f: make_field(s, m, ext_modulus=f),
                    lambda f: ext_has_factor(base, f), totient(n) // m, "extension")


def test_default_ext_modulus_matches_the_pow_search():
    # the root sieve and the squaring-map order test pick the same modulus
    # as a power test of every candidate: each field of the domain
    sizes = [(s, m) for s in range(1, 9) for m in range(2, 17)
             if (1 << s) ** m <= MAX_TABLE_ORDER]
    for s, m in sizes:
        want = oracle.default_ext_modulus(s, m, default_base_modulus(s))
        assert make_field(s, m).ext_modulus == want, (s, m)


def test_the_oracle_product_matches_the_library_product():
    # the oracle's schoolbook product on its own base table against the
    # library's times-x and scalar maps, on 1,000 random pairs over 5 fields
    rng = random.Random(5)
    for s, m in [(1, 7), (2, 3), (3, 4), (4, 2), (2, 11)]:
        f = make_field(s, m)
        for _ in range(200):
            a, b = rng.randrange(f.n + 1), rng.randrange(f.n + 1)
            assert oracle.ext_product(f, a, b) == f._ext_mul_poly(a, b), (s, m, a, b)


def test_the_pow_test_never_multiplies_through_the_library(monkeypatch):
    # the power test behind oracle.default_ext_modulus multiplies on its own
    # product, so it shares no arithmetic with the order test it checks
    want = [oracle.ext_x_order_is_full(FieldSpec(2, 3, 0b111, cand))
            for cand in monic_polys(4, 3)]

    def refuse(*args):
        raise AssertionError("the oracle multiplied through FieldSpec")

    monkeypatch.setattr(FieldSpec, "_ext_mul_poly", refuse)
    monkeypatch.setattr(FieldSpec, "base_mul", refuse)
    oracle.base_mul_table.cache_clear()
    assert [oracle.ext_x_order_is_full(FieldSpec(2, 3, 0b111, cand))
            for cand in monic_polys(4, 3)] == want
    assert sum(want) == 12  # phi(63)/3 primitive moduli


@pytest.mark.parametrize("s,m", [(2, 3), (3, 7), (7, 3), (2, 11)])
def test_times_x_and_square_match_the_coefficient_loop(s, m):
    # on random monic moduli, primitive or not, up to q^m = 2^22
    rng = random.Random(31 * s + m)
    q = 1 << s
    for _ in range(4):
        cand = tuple(rng.randrange(q) for _ in range(m)) + (1,)
        spec = FieldSpec(s, m, default_base_modulus(s), cand)
        for v in [0, 1, spec.q ** m - 1] + [rng.randrange(q ** m) for _ in range(20)]:
            assert spec._ext_times_x(v) == oracle.ext_times_x(spec, v)
            assert spec._ext_square(v) == spec._ext_mul_poly(v, v)


def test_np_tables_match_the_loop():
    for s in range(1, 9):
        f = make_field(s, 2)
        assert f.np_mul_table.dtype == f.np_inv_table.dtype == np.uint8
        assert not f.np_mul_table.flags.writeable
        assert not f.np_inv_table.flags.writeable
        assert np.array_equal(f.np_mul_table, oracle.np_mul_table(f)), s
        assert np.array_equal(f.np_inv_table, oracle.np_inv_table(f)), s


def test_prime_factors_match_sympy():
    # every order of the field domain, 2^k - 1 for k <= 22, and 1..2000
    sympy = pytest.importorskip("sympy")
    orders = {2 ** k - 1 for k in range(1, 23)}
    for n in sorted(orders | set(range(1, 2001))):
        assert _prime_factors(n) == sorted(sympy.factorint(n)), n


def test_unsupported_sizes():
    with pytest.raises(FieldError):
        make_field(0, 2)
    with pytest.raises(FieldError):
        make_field(9, 2)
    with pytest.raises(FieldError):
        make_field(2, 1)


@pytest.mark.parametrize("s,m", [(2, 12), (8, 4), (8, 16)])
def test_fields_past_2_22_are_refused_before_any_modulus_search(s, m, monkeypatch):
    # q^m = 2^24, 2^32 and 2^128: refused with q^m and the limit named, by
    # make_field before its default-modulus search and by FieldSpec itself
    def refuse(*args):
        raise AssertionError("a modulus search ran")

    monkeypatch.setattr(gf, "default_ext_modulus", refuse)
    monkeypatch.setattr(gf, "default_base_modulus", refuse)
    message = f"q^m = 2^{s * m} = {1 << (s * m)} is over the field limit 2^22 = 4194304"
    with pytest.raises(FieldError) as exc:
        make_field(s, m)
    assert str(exc.value) == message
    with pytest.raises(FieldError) as exc:
        FieldSpec(s, m, default_base_modulus(s), (1,) * m + (1,))
    assert str(exc.value) == message


def test_base_gf4_multiplication_table():
    f = example_field()
    assert f.base_mul(2, 2) == 3      # w * w = w + 1
    assert f.base_mul(2, 3) == 1      # w * w^2 = 1
    assert f.base_mul(3, 1) == 3


@pytest.mark.parametrize("s,m", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_random_sample(s, m):
    f = make_field(s, m)
    rng = random.Random(1000 * s + m)
    size = f.q ** m
    for _ in range(200):
        a, b, c = (rng.randrange(size) for _ in range(3))
        assert table_mul(f, a, b) == table_mul(f, b, a)
        assert table_mul(f, table_mul(f, a, b), c) == table_mul(f, a, table_mul(f, b, c))
        assert table_mul(f, a, b ^ c) == table_mul(f, a, b) ^ table_mul(f, a, c)
        assert table_mul(f, a, 1) == a
    for _ in range(100):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.base_mul(a, b) == f.base_mul(b, a)
        assert f.base_mul(f.base_mul(a, b), c) == f.base_mul(a, f.base_mul(b, c))
        assert f.base_mul(a, b ^ c) == f.base_mul(a, b) ^ f.base_mul(a, c)


def test_inverses_and_group_order():
    f = example_field()
    for a in range(1, 64):
        assert table_mul(f, a, oracle.ext_inv(f, a)) == 1
        assert oracle.ext_pow(f, a, 63) == 1
    for a in range(1, 4):
        assert f.base_mul(a, f.base_inv(a)) == 1
        assert oracle.base_pow(f, a, 3) == 1


def test_inversion_of_zero():
    f = example_field()
    with pytest.raises(FieldError):
        oracle.ext_inv(f, 0)
    with pytest.raises(FieldError):
        f.base_inv(0)


def test_beta_power_bijection_n15():
    f = make_field(2, 2)
    values = {table_power(f, i) for i in range(15)}
    assert len(values) == 15
    assert table_power(f, 0) == 1
    assert oracle.beta_power(f, 15) == table_power(f, 0)
    assert oracle.beta_power(f, -1) == table_power(f, 14)


def test_beta_power_bijection_n63():
    f = example_field()
    assert len({table_power(f, i) for i in range(63)}) == 63


def test_beta_power_bijection_n4095():
    f = make_field(3, 4)
    assert len({table_power(f, i) for i in range(4095)}) == 4095


def test_frobenius_is_additive_and_fixes_the_subfield():
    f = example_field()
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(64), rng.randrange(64)
        assert oracle.ext_pow(f, a ^ b, 2) == \
            oracle.ext_pow(f, a, 2) ^ oracle.ext_pow(f, b, 2)
    fixed = {x for x in range(64) if oracle.ext_pow(f, x, 4) == x}
    assert fixed == {oracle.embed_base(f, a) for a in range(4)}


def test_embed_base_is_a_ring_embedding():
    f = example_field()
    assert oracle.embed_base(f, 0) == 0
    assert oracle.embed_base(f, 1) == 1
    for a in range(4):
        for b in range(4):
            assert table_mul(f, oracle.embed_base(f, a), oracle.embed_base(f, b)) == \
                oracle.embed_base(f, f.base_mul(a, b))
        assert oracle.ext_pow(f, oracle.embed_base(f, a), 4) == oracle.embed_base(f, a)


def test_project_base_rejects_non_subfield_elements():
    f = example_field()
    assert [oracle.project_base(f, a) for a in range(4)] == [0, 1, 2, 3]
    with pytest.raises(FieldError):
        oracle.project_base(f, f.beta)


def test_largest_field_runs_on_tables():
    # 4^11 = 2^22, the field limit: the tables exist, and their products
    # match the polynomial-basis products
    f = make_field(2, 11)
    exp, log = f._ext_tables
    assert exp.size == f.n and log.size == f.n + 1
    assert table_mul(f, f.beta, oracle.ext_inv(f, f.beta)) == 1
    assert table_power(f, f.n) == 1
    a = table_power(f, 12345)
    assert table_mul(f, a, table_power(f, f.n - 12345)) == 1
    rng = random.Random(11)
    for _ in range(200):
        x, y = rng.randrange(f.n + 1), rng.randrange(f.n + 1)
        assert table_mul(f, x, y) == f._ext_mul_poly(x, y)


def test_field_spec_json_round_trip():
    f = example_field()
    data = oracle.field_spec_to_json(f)
    assert data == {"s": 2, "m": 3, "base_modulus": [1, 1, 1],
                    "ext_modulus": [[2], [1], [1], [1]]}
    again = field_spec_from_json(json.loads(json.dumps(data)))
    assert again == f


def test_element_text():
    f = example_field()
    assert [f.base_text(a) for a in range(4)] == ["0", "1", "w", "w^2"]
    assert oracle.ext_text(f, table_power(f, 3)) == "2,1,1"


def test_direct_fieldspec_structural_validation():
    with pytest.raises(FieldError):
        FieldSpec(2, 3, 0b111, (2, 1, 1))       # wrong length
    with pytest.raises(FieldError):
        FieldSpec(2, 3, 0b111, (2, 1, 1, 2))    # not monic


def test_ext_tables_match_the_loop_oracle():
    # every field with q^m <= 2^16: the doubling-built exp and log tables
    # equal those built one multiplication by beta at a time
    for s in range(1, 9):
        for m in range(2, 17):
            if (1 << s) ** m > 1 << 16:
                break
            f = make_field(s, m)
            exp, log = f._ext_tables
            assert not exp.flags.writeable and not log.flags.writeable
            assert (tuple(exp.tolist()), tuple(log.tolist())) == oracle.ext_tables(f), (s, m)


@pytest.mark.parametrize("s,m", [(2, 2), (3, 2), (2, 3)])
def test_ext_tables_refuse_what_make_field_refuses(s, m):
    # FieldSpec(...) skips validation, so the tables themselves must refuse
    # every monic modulus make_field refuses, irreducible-but-imprimitive
    # ones included, and accept the rest
    imprimitive = 0
    for cand in monic_polys(1 << s, m):
        spec = FieldSpec(s, m, default_base_modulus(s), cand)
        try:
            make_field(s, m, ext_modulus=cand)
        except FieldError as exc:
            imprimitive += "not primitive" in str(exc)
            with pytest.raises(FieldError, match="not primitive"):
                spec._ext_tables
        else:
            assert table_power(spec, 1) == spec.beta
    assert imprimitive > 0
