import math
import random

import numpy as np
import pytest

import oracle
from oracle import SMALL_QM, cyclotomic_coset, progression_members, q_weight
from tdcodes import bounds, coset
from tdcodes.bounds import (BOUND_CASES, APWitness, BoundReport, DomainError,
                            ap_in_set, bch_search, bound_case,
                            lemma_bound_report, lemma_witness, negate_witness,
                            report_to_json, theorem_bound)
from tdcodes.coset import Parity, build_T, defining_set, negate_set

UP_TO_255 = [(q, m) for q, m in SMALL_QM if q ** m - 1 <= 255]


def test_ap_witness_validation():
    with pytest.raises(ValueError, match="empty progression"):
        APWitness(0, 1, 3, 2)
    w = APWitness(32, 5, -3, 6)
    assert w.length == 10 and w.delta == 11


def test_ap_in_set_lemma7_case():
    T0 = build_T(4, 3, 0)
    w = APWitness(32, 5, -3, 6)
    members = progression_members(w, 63)
    assert sorted(members) == [17, 22, 27, 32, 37, 42, 47, 52, 57, 62]
    assert all(q_weight(x, 4, 3) % 2 == 0 for x in members)
    assert ap_in_set(T0, w)


def test_ap_in_set_rejects_non_units():
    T0 = build_T(4, 3, 0)
    with pytest.raises(ValueError, match="coprime"):
        ap_in_set(T0, APWitness(1, 3, 0, 1))   # gcd(3, 63) = 3


def test_ap_in_set_zero_not_in_T():
    T0 = build_T(4, 3, 0)
    assert not ap_in_set(T0, APWitness(0, 1, 0, 0))


def test_lemma7_witness_values():
    w, parity = lemma_witness("lemma7", 4, 3)
    assert (w.b, w.a, w.i_lo, w.i_hi) == (32, 5, -3, 6)
    assert parity is Parity.EVEN
    assert w.delta == 11 == theorem_bound(4, 3, 0)


def test_lemma11_witness_values():
    w, parity = lemma_witness("lemma11", 4, 6)
    assert (w.b, w.a, w.i_lo, w.i_hi) == (1028, 1108, -12, 12)
    assert parity is Parity.EVEN
    assert w.delta == 26 == theorem_bound(4, 6, 0)


def test_lemma13_members():
    w, parity = lemma_witness("lemma13", 4, 4)
    assert (w.b, w.a, w.i_lo, w.i_hi) == (64, 86, 1, 4)
    assert progression_members(w, 255) == [150, 236, 67, 153]
    assert all(q_weight(x, 4, 4) % 2 == 0 for x in progression_members(w, 255))
    assert w.delta == 5 == theorem_bound(4, 4, 0)


def test_lemma14_members():
    w, parity = lemma_witness("lemma14", 4, 4)
    assert (w.b, w.a) == (0, 43)
    assert progression_members(w, 255) == [43, 86, 129, 172]
    assert all(q_weight(x, 4, 4) % 2 == 1 for x in progression_members(w, 255))
    assert w.delta == 5 == theorem_bound(4, 4, 1)


def test_witness_domains_are_enforced():
    with pytest.raises(DomainError):
        lemma_witness("lemma7", 4, 4)      # needs odd m
    with pytest.raises(DomainError):
        lemma_witness("lemma9", 4, 4)      # needs m = 2 mod 4
    with pytest.raises(DomainError):
        lemma_witness("lemma10", 4, 6)     # needs m >= 10
    with pytest.raises(DomainError):
        lemma_witness("lemma13", 4, 6)     # needs m = 0 mod 4
    with pytest.raises(DomainError):
        lemma_witness("lemma7", 2, 3)      # needs q >= 4
    with pytest.raises(DomainError):
        lemma_witness("nope", 4, 3)


@pytest.mark.parametrize("q,m,wid", [
    (4, 3, "lemma7"), (4, 5, "lemma7"), (8, 3, "lemma7"), (8, 5, "lemma7"),
    (16, 3, "lemma7"), (4, 6, "lemma9"), (8, 6, "lemma9"),
    (4, 6, "lemma11"), (8, 6, "lemma11"),
    (4, 4, "lemma13"), (8, 4, "lemma13"), (16, 4, "lemma13"),
    (4, 4, "lemma14"), (8, 4, "lemma14"), (16, 4, "lemma14"),
    (4, 2, "thm12m2p0"), (4, 2, "thm12m2p1"), (8, 2, "thm12m2p0"),
    (16, 2, "thm12m2p1"),
])
def test_every_witness_reproves_its_lemma(q, m, wid):
    w, parity = lemma_witness(wid, q, m)
    n = q ** m - 1
    assert math.gcd(w.a, n) == 1
    T = build_T(q, m, parity)
    assert ap_in_set(T, w)
    assert len(set(progression_members(w, n))) == w.length
    assert w.delta == theorem_bound(q, m, parity)


def test_negated_witness_lands_in_the_mirror_set_for_odd_m():
    w, _ = lemma_witness("lemma7", 4, 3)
    neg = negate_witness(w, 63)
    T1 = build_T(4, 3, 1)
    assert ap_in_set(T1, neg)
    assert neg.delta == w.delta


def test_theorem_bound_values():
    assert theorem_bound(4, 3, 0) == 11
    assert theorem_bound(4, 2, 1) == 3
    assert theorem_bound(8, 6, 0) == 114
    assert theorem_bound(4, 4, 1) == 5
    assert theorem_bound(4, 6, 1) == 23
    assert theorem_bound(4, 10, 0) == 263
    assert theorem_bound(8, 3, 0) == theorem_bound(8, 3, 1) == 23


def test_theorem_bound_domain():
    with pytest.raises(DomainError):
        theorem_bound(2, 3, 0)
    with pytest.raises(DomainError):
        theorem_bound(6, 3, 0)
    with pytest.raises(DomainError):
        theorem_bound(4, 1, 0)


def test_bch_search_trivial_sets():
    full_minus_zero = oracle.raw_set(15, 4, tuple(range(1, 15)))
    r = bch_search(full_minus_zero)
    assert r.delta == 15
    empty = oracle.raw_set(15, 4, ())
    assert bch_search(empty).delta == 1
    everything = oracle.raw_set(15, 4, tuple(range(15)))
    assert bch_search(everything).delta == 15


def test_bch_search_canonical_witnesses_n15():
    r0 = bch_search(build_T(4, 2, 0))
    assert r0.delta == 3
    assert (r0.witness.b, r0.witness.a) == (7, 1)
    r1 = bch_search(build_T(4, 2, 1))
    assert r1.delta == 5
    assert (r1.witness.b, r1.witness.a) == (12, 2)
    # determinism: identical reruns give identical reports
    assert bch_search(build_T(4, 2, 1)) == r1


def test_bch_search_n63():
    r = bch_search(build_T(4, 3, 0))
    assert r.delta == 11
    assert (r.witness.b, r.witness.a, r.witness.i_lo, r.witness.i_hi) == \
        (17, 5, 0, 9)
    assert ap_in_set(build_T(4, 3, 0), r.witness)
    assert r.delta >= theorem_bound(4, 3, 0)


@pytest.mark.parametrize("parity,b", [(0, 7997), (1, 3901)])
def test_bch_search_witnesses_n16383(parity, b):
    T = build_T(4, 7, parity)
    r = bch_search(T)
    assert (r.delta, r.witness.a, r.witness.b) == (71, 65, b)
    assert (r.witness.i_lo, r.witness.i_hi, r.partial) == (0, 69, False)
    assert ap_in_set(T, r.witness)


def test_bch_search_beats_or_meets_the_closed_form():
    for q, m in [(4, 2), (4, 3), (8, 2)]:
        for parity in (0, 1):
            r = bch_search(build_T(q, m, parity))
            assert r.delta >= theorem_bound(q, m, parity), (q, m, parity)


def test_bch_search_budget_flags_partial():
    r = bch_search(build_T(4, 3, 0), budget=2)
    assert r.partial
    assert r.delta >= 2  # best-so-far is still a valid bound
    with pytest.raises(ValueError, match="2\\^16"):
        bch_search(oracle.raw_set((1 << 17) - 1, 4, (1, 2)))


def test_unit_sieve_matches_the_gcd_definition():
    for n in [*range(1, 2001), 4095, 16383, 65535, 4 ** 10 - 1]:
        assert np.array_equal(bounds._unit_mask(n), np.gcd(np.arange(n), n) == 1), n


def test_kth_true_counts_across_blocks():
    rng = np.random.default_rng(0)
    mask = rng.random(3 * coset._BLOCK + 7) < 0.3
    where = np.flatnonzero(mask)
    for k in (0, 1, where.size // 2, where.size - 1):
        assert bounds._kth_true(mask, k) == where[k]


def test_bch_search_budget_of_zero_or_less_scans_nothing():
    T = build_T(4, 3, 0)
    for budget in (0, -3):
        assert bch_search(T, budget) == oracle.bch_search(T, budget) == \
            BoundReport(1, None, "exhaustive search", True)


def test_strongest_witness_covers_every_case():
    assert bound_case(3).witness[0] == "lemma7"
    assert bound_case(2).witness[1] == "thm12m2p1"
    assert bound_case(6).witness[0] == "lemma11"
    assert bound_case(6).witness[1] == "lemma9"
    assert bound_case(10).witness[0] == "lemma10"
    assert bound_case(4).witness[1] == "lemma14"


def test_lemma_bound_report_covers_both_parities():
    for parity in (0, 1):
        r = lemma_bound_report(4, 3, parity)
        assert r.delta == 11
        assert ap_in_set(build_T(4, 3, parity), r.witness)
    assert "negated" in lemma_bound_report(4, 3, 1).source


def test_report_json():
    r = lemma_bound_report(4, 3, 0)
    assert report_to_json(r) == {"delta": 11, "b": 32, "a": 5, "i_lo": -3,
                                 "i_hi": 6, "source": "lemma7"}
    empty = BoundReport(1, None, "exhaustive search")
    assert report_to_json(empty)["b"] is None


def test_one_case_row_covers_each_m():
    for m in range(2, 65):
        rows = [case for case in BOUND_CASES if case.covers(m)]
        assert rows == [bound_case(m)], m
        assert set(rows[0].witness) <= set(rows[0].witnesses), m
    for m in (-1, 0, 1):
        assert not any(case.covers(m) for case in BOUND_CASES)
        with pytest.raises(DomainError, match="at least 2"):
            bound_case(m)


@pytest.mark.parametrize("q,m", SMALL_QM)
def test_bch_search_scans_one_unit_per_coset_like_the_all_units_scan(q, m):
    """Same (delta, a, b, partial) as the scan of every unit, for T_0, T_1
    and seeded coset unions, unbudgeted and with budgets 1, 7, phi(n) - 1,
    and one that counts the unit of the best witness but stops before the
    least unit of the coset of its negation."""
    n = q ** m - 1
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    phi = len(units)
    sets = [build_T(q, m, parity) for parity in (0, 1)]
    part = oracle.coset_partition(q, n)
    rng = random.Random(n + q)
    for keep in (0.5, 0.8):
        sets.append(defining_set(n, q, [e for leader in part.leaders
                                        if rng.random() < keep
                                        for e in part.coset(leader)]))
    for T in sets:
        best = oracle.bch_search(T)
        budgets = [None, 1, 7, phi - 1]
        if best.witness is not None:
            mirror = min(cyclotomic_coset(n - best.witness.a, q, n))
            assert mirror >= best.witness.a
            budgets.append(units.index(mirror))
        for budget in budgets:
            assert bch_search(T, budget) == oracle.bch_search(T, budget), \
                (sorted(T.elems)[:8], budget)


@pytest.mark.parametrize("q,m", UP_TO_255)
def test_bch_search_is_blind_to_negation_and_unit_scaling(q, m):
    n = q ** m - 1
    rng = random.Random(n)
    units = [v for v in range(1, n) if math.gcd(v, n) == 1]
    for parity in (0, 1):
        T = build_T(q, m, parity)
        delta = bch_search(T).delta
        assert bch_search(negate_set(T)).delta == delta
        for v in rng.sample(units, min(4, len(units))):
            assert bch_search(oracle.scale_set(v, T)).delta == delta, v


@pytest.mark.parametrize("q,m", UP_TO_255)
def test_longest_run_matches_the_member_lists(q, m):
    """The bitset doubling against progression member lists, for the
    digit-parity sets and seeded dense sets that need not be closed (runs
    that wrap past n - 1, sets holding 0), on every unit for n <= 63 and
    on eight seeded units above, with the floor at, below and above the
    true length."""
    n = q ** m - 1
    rng = random.Random(3 * n + q)
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    if n > 63:
        units = rng.sample(units, 8)
    sets = [build_T(q, m, parity) for parity in (0, 1)]
    for keep in (0.7, 0.95):
        sets.append(oracle.raw_set(n, q, [e for e in range(n) if rng.random() < keep]
                                 + [rng.randrange(n)]))
    for T in sets:
        if len(T) == n:
            continue
        t = sum(1 << e for e in T.elems)
        for a in units:
            length, b = oracle.longest_progression(T, a)
            for floor in {1, max(length - 1, 1), length, length + 1}:
                expect = (length, b) if floor <= length else (0, 0)
                assert bounds._longest_run(t, n, a, floor) == expect, (a, floor)
