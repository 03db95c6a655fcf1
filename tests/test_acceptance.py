"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget (run with ``pytest -s`` to see the lines).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

import oracle
from tdcodes import polys
from tdcodes.bounds import (ap_in_set, bch_search, lemma_witness,
                            theorem_bound)
from tdcodes.coset import Parity, build_T, negate_set, \
    gcd_lemma5_check, lemma6_check, splitting_check
from tdcodes.cyclic import code_from_T, dual_code, even_like, extend_code, is_lcd
from tdcodes.distance import exact_distance, sampled_upper
from tdcodes.gf import make_field

TABLE_LIMIT = 1 << 20


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.time() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s / "
          f"budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s over budget"


def test_criterion_01_set_sizes_and_negation():
    with criterion(1, "defining-set sizes and negation identities", 10):
        for s in (1, 2, 3, 4):
            q = 1 << s
            for m in range(2, 7):
                if q ** m > TABLE_LIMIT:
                    continue
                n = q ** m - 1
                T0 = build_T(q, m, Parity.EVEN)
                T1 = build_T(q, m, Parity.ODD)
                if m % 2 == 1:
                    assert len(T0) == len(T1) == (n - 1) // 2, (s, m)
                    assert negate_set(T0) == T1, (s, m)
                else:
                    assert len(T0) == (n - 3) // 2, (s, m)
                    assert len(T1) == (n + 1) // 2, (s, m)
                    assert negate_set(T0) == T0, (s, m)
                    assert negate_set(T1) == T1, (s, m)


def test_criterion_02_factorization_identity():
    with criterion(2, "minimal polynomials multiply to x^n - 1", 10):
        for s, m in [(2, 2), (2, 3), (3, 2), (2, 4)]:
            field = make_field(s, m)
            prod = (1,)
            for leader in oracle.coset_partition(field.q, field.n).leaders:
                prod = polys.mul(field, prod, oracle.minimal_polynomial(field, leader))
            assert prod == oracle.x_pow_n_plus_1(field.n), (s, m)


def test_criterion_03_reference_generator_polynomials():
    with criterion(3, "quaternary length-63 generator reproduction", 5):
        field = make_field(2, 3, base_modulus=0b111, ext_modulus=(2, 1, 1, 1))
        c0 = code_from_T(field, build_T(4, 3, 0))
        c1 = code_from_T(field, build_T(4, 3, 1))
        g0, g1 = c0.generator, c1.generator
        expected_g0 = (1, 0, 2, 3, 2, 2, 3, 2, 1, 1, 1, 0, 1, 1, 0, 1,
                       2, 2, 1, 0, 0, 1, 0, 1, 3, 3, 3, 1, 0, 3, 1, 1)
        assert len(g0) == len(g1) == 32          # degree 31
        assert g0[-1] == g1[-1] == 1             # monic
        assert g0 == expected_g0                 # coefficient-for-coefficient
        assert g1 == tuple(reversed(expected_g0))
        assert c0.k == c1.k == 32


def test_criterion_04_odd_m_structure():
    with criterion(4, "duadic pair, self-dual extension, self-orthogonal "
                      "even-like", 30):
        for q, m in [(4, 3), (8, 3)]:
            s = q.bit_length() - 1
            field = make_field(s, m)
            n = field.n
            T0, T1 = build_T(q, m, 0), build_T(q, m, 1)
            assert splitting_check(T0, T1).ok, (q, m)
            c0, c1 = code_from_T(field, T0), code_from_T(field, T1)
            for c in (c0, c1):
                ext = oracle.extended_matrix(c)
                assert 2 * ext.rows == n + 1
                assert not oracle.gram_matrix(ext).any(), (q, m)
                el = even_like(c)
                assert el.k == (n - 1) // 2
                assert not oracle.gram_matrix(oracle.generator_matrix(el)).any(), (q, m)
            for a, b in ((c0, c1), (c1, c0)):
                d = dual_code(a)
                comp = even_like(b)
                assert (d.n, d.k) == (comp.n, comp.k), (q, m)


def test_criterion_05_even_m_lcd_structure():
    with criterion(5, "LCD pair: dual identities, dimensions, trivial hulls",
                   20):
        for q in (4, 8):
            s = q.bit_length() - 1
            for m in (2, 4):
                if q ** m > TABLE_LIMIT:
                    continue
                field = make_field(s, m)
                n = field.n
                c0 = code_from_T(field, build_T(q, m, 0))
                c1 = code_from_T(field, build_T(q, m, 1))
                assert dual_code(c0).T == even_like(c1).T, (q, m)
                assert dual_code(c1).T == even_like(c0).T, (q, m)
                assert is_lcd(c0) and is_lcd(c1), (q, m)
                assert c0.k == (n + 3) // 2 and c1.k == (n - 1) // 2, (q, m)
                if n in (15, 63):
                    assert oracle.hull_dimension(c0) == 0, (q, m)
                    assert oracle.hull_dimension(c1) == 0, (q, m)


def test_criterion_06_progression_witnesses():
    with criterion(6, "all progression witnesses re-proved in range", 60):
        cases = []
        for q in (4, 8, 16):
            cases += [("lemma7", q, m) for m in (3, 5) if q ** m <= TABLE_LIMIT]
            cases += [("lemma9", q, m) for m in (6, 10) if q ** m <= TABLE_LIMIT]
            if q ** 10 <= TABLE_LIMIT:
                cases.append(("lemma10", q, 10))
            if q ** 6 <= TABLE_LIMIT:
                cases.append(("lemma11", q, 6))
            for m in (4, 8):
                if q ** m <= TABLE_LIMIT:
                    cases += [("lemma13", q, m), ("lemma14", q, m)]
        assert len(cases) >= 18
        for wid, q, m in cases:
            w, parity = lemma_witness(wid, q, m)
            n = q ** m - 1
            assert math.gcd(w.a, n) == 1, (wid, q, m)
            assert ap_in_set(build_T(q, m, parity), w), (wid, q, m)
            assert w.delta == theorem_bound(q, m, parity), (wid, q, m)
        # the spot values: (4,3) -> 11, (4,4) -> 5, (4,6) -> 26
        assert lemma_witness("lemma7", 4, 3)[0].delta == 11
        assert lemma_witness("lemma13", 4, 4)[0].delta == 5
        assert lemma_witness("lemma11", 4, 6)[0].delta == 26


def test_criterion_07_exact_distance_oracle():
    with criterion(7, "exact distances at n = 15 dominate the bounds", 30):
        field = make_field(2, 2)
        for parity, expected_k in ((0, 9), (1, 7)):
            code = code_from_T(field, build_T(4, 2, parity))
            assert code.k == expected_k
            report = exact_distance(code)
            delta = bch_search(code.T).delta
            bound = theorem_bound(4, 2, parity)
            assert report.exact >= 3
            assert report.exact >= delta >= bound


def test_criterion_08_distance_witnesses_n63():
    with criterion(8, "weight-15/16 witnesses and the 11 <= d <= 15 "
                      "certificate", 60):
        field = make_field(2, 3, base_modulus=0b111, ext_modulus=(2, 1, 1, 1))
        c0 = code_from_T(field, build_T(4, 3, 0))
        c1 = code_from_T(field, build_T(4, 3, 1))
        lower = max(theorem_bound(4, 3, 0), bch_search(c0.T).delta)
        for c in (c0, c1):
            r = sampled_upper(c, trials=2048, seed=0, lower=lower)
            again = sampled_upper(c, trials=2048, seed=0, lower=lower)
            assert r == again                     # fixed-seed reproducibility
            assert r.upper <= 15
            # combined certificate; the exact value d = 15 is NOT re-proved
            assert r.lower == 11 and 11 <= r.upper <= 15
        for c in (c0, c1):
            ext = extend_code(c)
            r = sampled_upper(ext, trials=2048, seed=0)
            assert r.upper <= 16


def test_criterion_09_search_optimality_harness():
    with criterion(9, "exhaustive search sits between closed form and exact",
                   10):
        field = make_field(2, 2)
        for parity in (0, 1):
            T = build_T(4, 2, parity)
            report = bch_search(T)
            exact = exact_distance(code_from_T(field, T)).exact
            assert theorem_bound(4, 2, parity) <= report.delta <= exact
            assert bch_search(T) == report        # canonical witness is stable
            assert ap_in_set(T, report.witness)
        assert bch_search(build_T(4, 2, 0)).delta == 3
        assert bch_search(build_T(4, 2, 1)).delta == 5


def test_criterion_10_gcd_and_weight_identity_sweeps():
    with criterion(10, "gcd identity and digit-weight reflection sweeps", 10):
        for q in (4, 8, 16):
            for m in range(2, 9):
                for ell in range(1, 2 * m + 1):
                    if (m // math.gcd(ell, m)) % 2 == 1:
                        assert gcd_lemma5_check(q, ell, m), (q, ell, m)
        for q in (4, 8):
            for m in range(2, 5):
                for A in range(2, q):
                    for h in range(m):
                        assert lemma6_check(q, m, A, h), (q, m, A, h)
