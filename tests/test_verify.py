import dataclasses
import itertools

import pytest
from conftest import peak_traced_bytes

import oracle

from tdcodes import bounds, coset, cyclic
from tdcodes.bounds import DomainError
from tdcodes.gf import FieldError, make_field
from tdcodes.verify import SUITES, _ImplicitT, run_suite, verify_thm2, verify_thm3


def all_ok(checks):
    assert checks, "suite returned no checks"
    bad = [c for c in checks if not c.ok]
    assert not bad, bad
    return checks


@pytest.mark.parametrize("q,m", [(2, 3), (4, 2), (4, 3), (8, 2), (8, 3), (16, 2)])
def test_lemma1_suite(q, m):
    all_ok(run_suite("lemma1", q, m))


def test_lemma1_at_n_near_2_20_stays_within_32_mb():
    # n = 1048575: the sets are boolean masks of n bytes, and the negation
    # and cover checks read them a block at a time
    all_ok(run_suite("lemma1", 4, 10))
    peak = peak_traced_bytes(run_suite, "lemma1", 4, 10)
    assert peak < 32 * 2 ** 20, peak


def test_lemma1_cover_claim_fails_when_a_residue_is_lost_or_shared(monkeypatch):
    real = coset.build_T

    def cover_claim(edited_parity, edit):
        def build(q, m, parity):
            T = real(q, m, parity)
            if parity == edited_parity:
                T = oracle.raw_set(T.n, T.q, edit(set(T.elems)))
            return T

        monkeypatch.setattr(coset, "build_T", build)
        return next(c.ok for c in run_suite("lemma1", 4, 3)
                    if c.claim == "disjoint cover of Z_n")

    assert cover_claim(1, lambda elems: elems) is True
    assert cover_claim(1, lambda elems: elems - {1}) is False
    assert cover_claim(0, lambda elems: elems | {1}) is False


@pytest.mark.parametrize("q,m", [(4, 3), (4, 6), (8, 4)])
def test_lemma5_suite(q, m):
    all_ok(run_suite("lemma5", q, m))


@pytest.mark.parametrize("q,m", [(4, 3), (8, 2)])
def test_lemma6_suite(q, m):
    all_ok(run_suite("lemma6", q, m))


@pytest.mark.parametrize("q,m", [(4, 3), (8, 3)])
def test_thm2_suite(q, m):
    checks = all_ok(run_suite("thm2", q, m))
    assert len(checks) == 4
    assert all(c.ok for c in checks)


def test_thm2_domain():
    with pytest.raises(DomainError):
        run_suite("thm2", 4, 2)
    # q = 0 has s = -1: refused before 1 << s is formed
    with pytest.raises(DomainError, match="power of two >= 2, got 0"):
        run_suite("thm2", 0, 3)


@pytest.mark.parametrize("q,m", [(4, 2), (4, 4), (8, 2)])
def test_thm3_suite(q, m):
    checks = all_ok(run_suite("thm3", q, m))
    hull = [c for c in checks if "hull" in c.claim]
    assert hull and hull[0].ok is True


@pytest.mark.parametrize("m", [2, 4, 6])
def test_thm3_hull_needs_no_row_reduction(monkeypatch, m):
    def refuse(*args):
        raise AssertionError("a matrix was row-reduced")

    monkeypatch.setattr(cyclic, "row_reduce", refuse)
    assert all(c.ok is True for c in run_suite("thm3", 4, m))


def test_thm2_folds_only_the_pair_generators(monkeypatch):
    folded = []
    real = cyclic.generator_polynomial

    def counting(field, T):
        folded.append(T)
        return real(field, T)

    monkeypatch.setattr(cyclic, "generator_polynomial", counting)
    assert all(c.ok is True for c in run_suite("thm2", 4, 5))
    assert len(folded) == 2 and 0 not in folded[0] and 0 not in folded[1]


@pytest.mark.parametrize("claim,q,m", [("thm3", 8, 4), ("thm2", 2, 13),
                                       ("thm3", 2, 14),  # n = 16383
                                       ("thm2", 4, 9),   # n = 262143
                                       ("thm3", 4, 8)])  # n = 65535
def test_structure_suites_check_every_claim(claim, q, m):
    checks = run_suite(claim, q, m)
    assert len(checks) == 4 and all(c.ok is True for c in checks), checks


@pytest.mark.parametrize("claim,m,claims", [
    ("thm2", 3, ["duadic pair split by -1 with dimension (n+1)/2",
                 "extended codes are self-dual",
                 "even-like codes are self-orthogonal with dimension (n-1)/2",
                 "dual and even-like complement share (n, k)"]),
    ("thm3", 2, ["dual of each code is the other's even-like code",
                 "both codes are LCD (defining-set level)",
                 "dimensions (n+3)/2 and (n-1)/2",
                 "hull dimension is 0 (polynomial level)"]),
])
def test_structure_suite_claims_keep_their_names_and_order(claim, m, claims):
    assert [c.claim for c in run_suite(claim, 4, m)] == claims


@pytest.mark.parametrize("q,m", [(4, 3), (8, 3), (4, 5)])
def test_thm8_suite(q, m):
    all_ok(run_suite("thm8", q, m))


@pytest.mark.parametrize("q,m", [(4, 2), (8, 2), (4, 6), (8, 6)])
def test_thm12_suite(q, m):
    all_ok(run_suite("thm12", q, m))


@pytest.mark.parametrize("q,m", [(4, 4), (8, 4)])
def test_thm15_suite(q, m):
    all_ok(run_suite("thm15", q, m))


@pytest.mark.parametrize("q,m", [(4, 3), (8, 3)])
def test_thm16_suite(q, m):
    all_ok(run_suite("thm16", q, m))


@pytest.mark.parametrize("q,m", [(4, 2), (4, 4), (8, 2)])
def test_thm18_suite(q, m):
    all_ok(run_suite("thm18", q, m))


@pytest.mark.parametrize("claim,m", [("thm16", 3), ("thm18", 4)])
def test_parameter_summaries_build_no_field(monkeypatch, claim, m):
    # thm16 and thm18 read only each parity's T and k = n - |T|, never g
    from tdcodes import verify

    def refuse(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(verify, "make_field", refuse)
    all_ok(run_suite(claim, 4, m))


@pytest.mark.parametrize("suite,wid,q,m,claim", [
    ("thm8", "lemma7", 4, 3, "shared lower bound for both codes of the pair"),
    ("thm16", "lemma7", 4, 3, "distance bound q^((m-1)/2) + 2q - 1"),
    ("thm18", "lemma13", 4, 4, "distance bounds per the case table"),
    ("thm18", "lemma14", 8, 4, "distance bounds per the case table"),
])
def test_distance_bound_claims_fail_on_a_broken_witness(monkeypatch, suite, wid,
                                                        q, m, claim):
    good = bounds.WITNESS_BUILDERS[wid]

    def shifted(q, m):
        w, parity = good(q, m)
        return dataclasses.replace(w, b=w.b + 1), parity

    monkeypatch.setitem(bounds.WITNESS_BUILDERS, wid, shifted)
    checks = {c.claim: c.ok for c in run_suite(suite, q, m)}
    assert checks[claim] is False


@pytest.mark.parametrize("wid,q,m", [
    ("lemma7", 4, 3), ("lemma9", 4, 6), ("lemma11", 8, 6),
    ("lemma13", 4, 4), ("lemma14", 8, 4),
])
def test_single_witness_suites(wid, q, m):
    all_ok(run_suite(wid, q, m))


def test_unknown_suite():
    with pytest.raises(DomainError, match="unknown claim id"):
        run_suite("thm999", 4, 3)


def test_suite_accepts_supplied_field():
    f = make_field(2, 3, base_modulus=0b111, ext_modulus=(2, 1, 1, 1))
    all_ok(run_suite("thm2", 4, 3, field=f))
    with pytest.raises(ValueError, match="supplied field"):
        run_suite("thm2", 8, 3, field=f)


def _primitive_fields_gf4(m):
    """GF(4^m) under every primitive monic modulus of degree m over GF(4)."""
    fields = []
    for low in itertools.product(range(4), repeat=m):
        if low[0] == 0:
            continue
        try:
            fields.append(make_field(2, m, ext_modulus=low + (1,)))
        except FieldError:
            pass
    return fields


@pytest.mark.parametrize("suite,m,count", [(verify_thm2, 3, 12),
                                           (verify_thm3, 2, 4)])
def test_structure_suites_agree_under_every_primitive_modulus(suite, m, count):
    fields = _primitive_fields_gf4(m)
    assert len(fields) == count  # phi(4^m - 1) / m
    expected = all_ok(suite(4, m))
    for f in fields:
        assert suite(4, m, field=f) == expected, f.ext_modulus


def test_registry_is_complete():
    assert {"lemma1", "lemma5", "lemma6", "lemma7", "lemma9", "lemma10",
            "lemma11", "lemma13", "lemma14", "thm2", "thm3", "thm8",
            "thm12", "thm15", "thm16", "thm18"} <= set(SUITES)


def test_implicit_T_matches_build_T_on_every_residue():
    for s in range(1, 9):
        q = 1 << s
        for m in range(2, 17):
            n = q ** m - 1
            if n > 1 << 16:
                break
            for parity in (0, 1):
                T = _ImplicitT(q, m, parity)
                assert T.n == n
                assert [i for i in range(n) if i in T] == \
                    list(coset.build_T(q, m, parity).elems), (q, m, parity)


def test_bound_theorems_hold_across_the_table():
    """s = 2..8, m = 2..16, wherever every witness the theorem checks has at
    most 2^16 members."""
    cases = 0
    for s in range(2, 9):
        q = 1 << s
        for m in range(2, 17):
            case = bounds.bound_case(m)
            if all(bounds.lemma_witness(wid, q, m)[0].length <= 1 << 16
                   for wid in case.witnesses):
                checks = all_ok(run_suite(case.theorem, q, m))
                assert all(c.ok for c in checks), (case.theorem, q, m)
                cases += 1
    assert cases == 53


@pytest.mark.parametrize("theorem,m,claims", [
    ("thm8", 3, ["gcd(a, n) = 1", "progression lies in T_0",
                 "implied bound matches the closed form",
                 "shared lower bound for both codes of the pair"]),
    ("thm12", 2, [f"[thm12m2p{p}] {c}" for p in (0, 1) for c in (
        "gcd(a, n) = 1", f"progression lies in T_{p}",
        "implied bound matches the closed form")]),
    ("thm12", 6, [f"[{w}] {c}" for w, p in (("lemma9", 1), ("lemma11", 0))
                  for c in ("gcd(a, n) = 1", f"progression lies in T_{p}",
                            "implied bound matches the closed form")]),
    ("thm15", 4, [f"[{w}] {c}" for w, p in (("lemma13", 0), ("lemma14", 1))
                  for c in ("gcd(a, n) = 1", f"progression lies in T_{p}",
                            "implied bound matches the closed form")]),
])
def test_bound_theorem_claims_keep_their_names_and_order(theorem, m, claims):
    assert [c.claim for c in run_suite(theorem, 4, m)] == claims


@pytest.mark.parametrize("theorem,m,domain", [
    ("thm8", 2, "odd m >= 3"), ("thm8", 1, "odd m >= 3"),
    ("thm12", 4, "m = 2 mod 4"), ("thm12", 3, "m = 2 mod 4"),
    ("thm15", 6, "m = 0 mod 4"), ("thm15", 0, "m = 0 mod 4"),
])
def test_bound_theorem_domain_messages(theorem, m, domain):
    with pytest.raises(DomainError, match=f"^need {domain}, got m={m}$"):
        run_suite(theorem, 4, m)


@pytest.fixture
def no_build_T(monkeypatch):
    def refuse(*args):
        raise AssertionError("a defining set was built")

    monkeypatch.setattr(coset, "build_T", refuse)


@pytest.mark.parametrize("claim,q,m", [
    ("lemma7", 4, 11), ("thm8", 4, 3), ("thm8", 8, 5), ("thm12", 4, 2),
    ("thm12", 4, 6), ("thm12", 8, 10), ("thm15", 4, 4), ("thm15", 16, 8),
])
def test_witness_suites_never_build_T(no_build_T, claim, q, m):
    all_ok(run_suite(claim, q, m))
