import dataclasses
import itertools

import pytest

from tdcodes import bounds
from tdcodes.bounds import DomainError
from tdcodes.gf import FieldError, make_field
from tdcodes.verify import SUITES, run_suite, verify_thm2, verify_thm3


def all_ok(checks):
    assert checks, "suite returned no checks"
    bad = [c for c in checks if c.ok is False]
    assert not bad, bad
    return checks


@pytest.mark.parametrize("q,m", [(2, 3), (4, 2), (4, 3), (8, 2), (8, 3), (16, 2)])
def test_lemma1_suite(q, m):
    all_ok(run_suite("lemma1", q, m))


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


@pytest.mark.parametrize("q,m", [(4, 2), (4, 4), (8, 2)])
def test_thm3_suite(q, m):
    checks = all_ok(run_suite("thm3", q, m))
    hull = [c for c in checks if "hull" in c.claim]
    assert hull and hull[0].ok is True  # n <= 255 here, so not skipped


def test_thm3_skips_hull_check_on_large_codes():
    checks = all_ok(run_suite("thm3", 8, 4))  # n = 4095
    hull = [c for c in checks if "hull" in c.claim]
    assert hull[0].ok is None


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
