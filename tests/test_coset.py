import random

import numpy as np
import pytest

from conftest import peak_traced_bytes
from oracle import (SMALL_QM, coset_partition, cyclotomic_coset, orbit_leaders,
                    q_adic_digits, q_weight, raw_set)
from tdcodes import coset
from tdcodes.bounds import bch_search
from tdcodes.coset import (CheckResult, DefiningSet, Parity, build_T,
                           complement_set, coset_count, defining_set,
                           disjoint_cover, dual_defining_set, gcd_lemma5_check,
                           is_negation, leader_mask, lemma6_check, negate_set,
                           splitting_check)
from tdcodes.cyclic import code_from_T, generator_polynomial
from tdcodes.gf import make_field


def test_q_adic_digits():
    assert q_adic_digits(0, 4, 3) == (0, 0, 0)
    assert q_adic_digits(63, 4, 3) == (3, 3, 3)
    assert q_adic_digits(22, 4, 3) == (2, 1, 1)
    with pytest.raises(ValueError):
        q_adic_digits(64, 4, 3)
    with pytest.raises(ValueError):
        q_adic_digits(-1, 4, 3)


def test_q_weight():
    assert q_weight(0, 4, 3) == 0
    assert q_weight(22, 4, 3) == 4
    # reflection: wt(n - i) = (q-1)m - wt(i)
    for q, m in [(4, 3), (8, 2)]:
        n = q ** m - 1
        for i in range(n + 1):
            assert q_weight(n - i, q, m) == (q - 1) * m - q_weight(i, q, m)


def test_cyclotomic_cosets():
    assert cyclotomic_coset(0, 4, 15) == (0,)
    assert cyclotomic_coset(1, 4, 15) == (1, 4)
    assert cyclotomic_coset(1, 4, 63) == (1, 4, 16)
    assert cyclotomic_coset(5, 4, 15) == (5,)


def test_coset_partition():
    part = coset_partition(4, 15)
    cosets = [part.coset(ld) for ld in part.leaders]
    assert sum(len(c) for c in cosets) == 15
    seen = set()
    for c in cosets:
        assert min(c) in part.leaders
        assert not (seen & set(c))
        seen.update(c)
    assert seen == set(range(15))
    assert all(part.coset_of[i] == min(part.coset(i)) for i in range(15))


def test_q_weight_constant_on_cosets():
    for q, m in [(4, 2), (4, 3), (8, 2)]:
        n = q ** m - 1
        part = coset_partition(q, n)
        for leader in part.leaders:
            ws = {q_weight(i, q, m) for i in part.coset(leader)}
            assert len(ws) == 1


def test_build_T_gf16():
    T1 = build_T(4, 2, Parity.ODD)
    T0 = build_T(4, 2, Parity.EVEN)
    assert T1.elems == (1, 3, 4, 6, 9, 11, 12, 14)
    assert T0.elems == (2, 5, 7, 8, 10, 13)
    assert len(T1) == (15 + 1) // 2
    assert len(T0) == (15 - 3) // 2


def test_build_T_partitions_and_closure():
    for q, m in [(2, 4), (4, 2), (4, 3), (8, 2), (32, 3), (256, 2)]:
        n = q ** m - 1
        T0 = build_T(q, m, 0)
        T1 = build_T(q, m, 1)
        assert not (set(T0.elems) & set(T1.elems))
        assert 0 not in T0 and 0 not in T1
        assert set(T0.elems) | set(T1.elems) | {0} == set(range(n))
        for T in (T0, T1):
            assert all(e * q % n in T for e in T.elems)
        if m % 2 == 1:
            assert len(T0) == len(T1) == (n - 1) // 2
        else:
            assert len(T0) == (n - 3) // 2 and len(T1) == (n + 1) // 2


def test_build_T_odd_weight_matches_definition():
    # cross-check the fast parity mask against the plain digit sum
    for q, m in [(4, 3), (8, 2), (16, 2)]:
        n = q ** m - 1
        T1 = build_T(q, m, 1)
        by_def = tuple(i for i in range(1, n) if q_weight(i, q, m) % 2 == 1)
        assert T1.elems == by_def


def test_negate_scale_complement():
    T0 = build_T(4, 3, 0)
    T1 = build_T(4, 3, 1)
    assert negate_set(T0) == T1                      # odd m swaps parities
    assert negate_set(build_T(4, 2, 0)) == build_T(4, 2, 0)  # even m fixes
    assert negate_set(negate_set(T0)) == T0
    assert complement_set(complement_set(T0)) == T0
    assert 0 in complement_set(T0)


def test_dual_defining_set():
    T0 = build_T(4, 2, 0)
    T1 = build_T(4, 2, 1)
    assert dual_defining_set(T0).elems == (0,) + T1.elems
    empty = raw_set(15, 4, ())
    assert dual_defining_set(empty).elems == tuple(range(15))
    full = raw_set(15, 4, tuple(range(15)))
    assert dual_defining_set(full).elems == ()


def test_splitting_check():
    T0, T1 = build_T(4, 3, 0), build_T(4, 3, 1)
    res = splitting_check(T0, T1)
    assert res.ok and bool(res)
    even0, even1 = build_T(4, 2, 0), build_T(4, 2, 1)
    res = splitting_check(even0, even1)
    assert not res.ok
    assert "v*S1 != S2" in res.reason
    n15 = raw_set(15, 4, ())
    rest = raw_set(15, 4, tuple(range(1, 15)))
    res = splitting_check(n15, rest)
    assert not res.ok


def test_defining_set_validation():
    defining_set(15, 4, [1, 4])                     # a closed coset
    with pytest.raises(ValueError, match="not closed"):
        defining_set(15, 4, [1])
    s = defining_set(15, 4, [16, 4])  # normalized mod n
    assert s.elems == (1, 4)


def test_gcd_lemma5():
    assert gcd_lemma5_check(4, 1, 3)
    assert gcd_lemma5_check(4, 2, 6)
    with pytest.raises(ValueError, match="even"):
        gcd_lemma5_check(4, 1, 2)


def test_gcd_lemma5_sweep():
    import math
    for q in (4, 8, 16):
        for m in range(2, 9):
            for ell in range(1, 2 * m + 1):
                if (m // math.gcd(ell, m)) % 2 == 1:
                    assert gcd_lemma5_check(q, ell, m), (q, ell, m)


@pytest.mark.parametrize("q", [0, 1, 3])
def test_build_T_refuses_q_outside_the_powers_of_two(q):
    with pytest.raises(ValueError, match=f"power of two >= 2, got {q}"):
        build_T(q, 3, 0)


def test_lemma6():
    assert lemma6_check(4, 3, 2, 0)
    assert lemma6_check(4, 3, 3, 2)
    assert lemma6_check(8, 2, 2, 1)
    with pytest.raises(ValueError):
        lemma6_check(4, 3, 1, 0)
    with pytest.raises(ValueError):
        lemma6_check(4, 3, 2, 3)


def test_lemma6_full_sweep():
    for q, m in [(4, 2), (4, 3), (4, 4), (8, 2), (8, 3), (8, 4)]:
        for A in range(2, q):
            for h in range(m):
                assert lemma6_check(q, m, A, h), (q, m, A, h)


def test_check_result_truthiness():
    assert CheckResult(True)
    assert not CheckResult(False, "because")


def _coset_union(q, n, rng, keep):
    """A seeded union of q-cyclotomic cosets modulo n, as a Python set."""
    part = coset_partition(q, n)
    return {e for leader in part.leaders if rng.random() < keep
            for e in part.coset(leader)}


def test_defining_set_is_one_read_only_mask():
    T = build_T(4, 3, 0)
    assert T.mask.dtype == bool and T.mask.shape == (63,) and T.n == 63
    assert not T.mask.flags.writeable
    assert type(len(T)) is int and len(T) == 31
    assert T.elems == tuple(np.flatnonzero(T.mask).tolist())
    same = defining_set(63, 4, T.elems)
    assert same is not T and same == T and hash(same) == hash(T)
    assert len({T, same, build_T(4, 3, 1)}) == 2
    assert T != build_T(4, 3, 1)
    assert T != raw_set(63, 16, T.elems)   # another q
    assert build_T(4, 2, 0) != raw_set(63, 4, build_T(4, 2, 0).elems)   # another n
    assert T != T.elems


@pytest.mark.parametrize("q,m", SMALL_QM)
def test_mask_sets_match_python_set_arithmetic(q, m):
    n = q ** m - 1
    everything = set(range(n))
    rng = random.Random(n * q + m)
    sets = []
    for parity in (0, 1):
        ref = {i for i in range(1, n) if q_weight(i, q, m) % 2 == parity}
        T = build_T(q, m, parity)
        assert set(T.elems) == ref and len(T) == len(ref)
        sets.append((T, ref))
    for keep in (0.3, 0.7):
        ref = _coset_union(q, n, rng, keep)
        sets.append((defining_set(n, q, ref), ref))
    for S, ref in sets:
        negated = {-e % n for e in ref}
        assert set(negate_set(S).elems) == negated
        assert set(complement_set(S).elems) == everything - ref
        assert set(dual_defining_set(S).elems) == everything - negated
    # Lemma 1: -1 swaps T_0 and T_1 for odd m and fixes each for even m
    T0, T1 = sets[0][0], sets[1][0]
    split = splitting_check(T0, T1)
    assert bool(split) == (m % 2 == 1)
    if m % 2 == 0:
        assert split.reason == f"v*S1 != S2 for v={n - 1}"


def _signed_leaders(part):
    """The i that are least in their orbit under the powers of q and their
    negatives: least in their coset, and no larger than the coset of -i."""
    n = part.n
    return [i for i in range(n)
            if i == min(part.coset_of[i], part.coset_of[(n - i) % n])]


@pytest.mark.parametrize("q,m", SMALL_QM)
def test_leader_mask_matches_the_coset_partition(q, m):
    n = q ** m - 1
    part = coset_partition(q, n)
    lead = leader_mask(q, n)
    assert np.flatnonzero(lead).tolist() == sorted(part.leaders)
    assert np.flatnonzero(coset._orbit_leaders(q, n, signed=True)).tolist() == \
        _signed_leaders(part)
    for parity in (0, 1):
        T = build_T(q, m, parity)
        assert int((T.mask & lead).sum()) == \
            len({part.coset_of[e] for e in T.elems})


def test_leader_mask_on_other_moduli():
    # 21, 35 and 51 take the product x*q mod n; the Mersenne moduli take the
    # rotation, also where it splits digits (8, 127; 16, 511), where
    # q = 1 mod n (16, 15) and where q > n
    for q, n in [(2, 1), (2, 21), (4, 35), (16, 51), (8, 127), (16, 511),
                 (4, 31), (256, 127), (16, 15), (256, 65535), (8, 63)]:
        part = coset_partition(q, n)
        assert np.flatnonzero(leader_mask(q, n)).tolist() == sorted(part.leaders)
        assert np.flatnonzero(coset._orbit_leaders(q, n, signed=True)).tolist() \
            == _signed_leaders(part)
    with pytest.raises(ValueError, match="invertible"):
        leader_mask(2, 6)


def test_splitting_check_failure_reasons():
    T0, T1 = build_T(4, 3, 0), build_T(4, 3, 1)
    assert splitting_check(T0, build_T(4, 2, 1)).reason == \
        "sets live on different (n, q)"
    assert splitting_check(T0, raw_set(63, 16, T1.elems)).reason == \
        "sets live on different (n, q)"
    assert splitting_check(T0, T0).reason == "S1 and S2 intersect"
    lost = set(cyclotomic_coset(T1.elems[0], 4, 63))
    short = defining_set(63, 4, set(T1.elems) - lost)
    assert splitting_check(T0, short).reason == \
        "S1 and S2 do not cover Z_n minus {0}"
    with_zero = raw_set(63, 4, (0,) + T0.elems)
    one_less = raw_set(63, 4, T1.elems[1:])
    assert splitting_check(with_zero, one_less).reason == \
        "S1 and S2 do not cover Z_n minus {0}"
    a, b = T0.elems[0], T1.elems[0]
    S1 = raw_set(63, 4, set(T0.elems) - {a} | {b})
    S2 = raw_set(63, 4, set(T1.elems) - {b} | {a})
    assert splitting_check(S1, S2).reason == "S1 is not a union of cosets"
    # with q not invertible modulo n, S1 can be closed while S2 is not
    assert splitting_check(defining_set(6, 2, (1, 2, 4)),
                           raw_set(6, 2, (3, 5))).reason == "S2 is not a union of cosets"
    assert splitting_check(T0, T1).reason == "(S1, S2, 62) splits Z_63"


@pytest.mark.parametrize("q,m", [(2, 4), (4, 2), (4, 3), (8, 2), (2, 6)])
def test_unclosed_sets_are_rejected_everywhere(q, m):
    n = q ** m - 1
    field = make_field(q.bit_length() - 1, m)
    part = coset_partition(q, n)
    rng = random.Random(7 * n)
    for _ in range(8):
        S = _coset_union(q, n, rng, 0.5)
        S.update(part.coset(1))
        assert len(generator_polynomial(field, defining_set(n, q, S))) == len(S) + 1
        S.discard(rng.choice([e for e in S if len(part.coset(e)) > 1]))
        first = min(e for e in S if e * q % n not in S)
        with pytest.raises(ValueError, match=f"mod {n}: {first} is in, "
                                             f"{first * q % n} is not"):
            defining_set(n, q, S)
        raw = raw_set(n, q, S)
        for reject in (lambda: code_from_T(field, raw),
                       lambda: generator_polynomial(field, raw),
                       lambda: bch_search(raw)):
            with pytest.raises(ValueError, match="not closed"):
                reject()


@pytest.mark.parametrize("q,m", [(3, 3), (4, 2), (4, 3), (4, 4), (8, 2), (8, 3),
                                 (16, 2)])
def test_lemma6_matches_q_weight_and_rejects_a_corrupted_right_hand_side(q, m):
    """The vectorized identity against a q_weight loop, for the true
    right-hand side and for one off by one either way (q = 3 too: the
    identity is not only for powers of two), and the digit-sum table it
    reads against q_weight."""
    weights = [q_weight(i, q, m) for i in range(q ** m)]
    assert coset._digit_sums(q, q ** m - 1, np.uint8).tolist() == weights
    for A in range(2, q):
        for h in range(m):
            top, total = A * q ** h - 1, (q - 1) * h + A - 1
            for rhs in (total - 1, total, total + 1):
                expected = all(q_weight(top - i, q, m) == rhs - q_weight(i, q, m)
                               for i in range(top + 1))
                assert coset._reflects(q, m, top, rhs) is expected is (rhs == total)
            assert lemma6_check(q, m, A, h)


@pytest.mark.parametrize("q,m", [(3, 3), (4, 3), (8, 2)])
def test_reflects_fails_for_every_top_not_one_below_a_digit_times_a_power(q, m):
    """wt(top - i) + wt(i) is constant in i exactly when top + 1 = a q^h
    with 1 <= a <= q - 1 (no carries in (top - i) + i); any other top,
    e.g. q = 4, top = 5, fails for every total."""
    weights = [q_weight(i, q, m) for i in range(q ** m)]
    special = {a * q ** h - 1 for a in range(1, q) for h in range(m + 1)
               if a * q ** h <= q ** m}
    for top in range(q ** m):
        sums = {weights[top - i] + weights[i] for i in range(top + 1)}
        assert (len(sums) == 1) is (top in special), top
        for total in range(2 * (q - 1) * m + 2):
            assert coset._reflects(q, m, top, total) is (sums == {total})
    assert not any(coset._reflects(4, 3, 5, total) for total in range(13))
    with pytest.raises(ValueError, match="top"):
        coset._reflects(4, 3, 64, 9)


def test_lemma6_is_reported_false_on_a_corrupted_digit_table(monkeypatch):
    """lemma6_check and verify_lemma6 read the table: one wrong digit sum
    turns both to a failure."""
    from tdcodes import verify
    real = coset._digit_sums

    def corrupted(q, top, dtype):
        w = real(q, top, dtype).copy()
        w[top // 3] += 1
        return w

    monkeypatch.setattr(coset, "_digit_sums", corrupted)
    assert lemma6_check(4, 3, 2, 1) is False
    checks = verify.verify_lemma6(16, 2)
    assert [c.ok for c in checks] == [False]
    assert checks[0].detail == "fails at A=2, h=0"


def test_lemma6_digit_sums_do_not_overflow_a_narrow_type():
    # 2 (q - 1) m = 1020 needs a 16-bit table for q = 256
    assert all(lemma6_check(256, 2, A, h) for A in (2, 128, 255) for h in (0, 1))
    for top in (255, 256 * 200 - 1):
        w = coset._digit_sums(256, top, np.uint16)
        assert w.dtype == np.uint16 and int(w.max()) == q_weight(top, 256, 2)


_MERSENNE_STEPS = [(B, q) for B in range(1, 17) for q in (2, 4, 8, 16, 256)]


@pytest.mark.parametrize("B,q", _MERSENNE_STEPS)
def test_orbit_step_is_the_rotation_and_matches_the_product(B, q):
    """x*q mod n on every residue of n = 2^B - 1: rotations that split
    digits (q = 8, n = 127; q = 16, n = 511), q = 1 mod n and q > n."""
    n = (1 << B) - 1
    s = (q.bit_length() - 1) % B
    assert coset._rotation(q, n) == (B, s)
    x = coset._residues(q, n, 0, n)
    assert x.dtype == np.uint32 and x.tolist() == list(range(n))
    got = coset._times_q(x, q, n, np.empty_like(x))
    assert got is x
    ref = [i * q % n for i in range(n)]
    assert got.tolist() == ref
    assert ref == [((i << s) & n) | (i >> (B - s)) for i in range(n)]
    assert coset._order(q, n) == min(k for k in range(1, B + 1)
                                     if pow(q, k, n) == 1 % n)


@pytest.mark.parametrize("q,n", [(2, 21), (4, 35), (16, 51), (3, 7), (5, 31),
                                 (1 << 17, 200001)])
def test_orbit_step_on_other_moduli_keeps_the_product(q, n):
    """No rotation when n + 1 or q is not a power of two; the product stays
    in uint32 while (n - 1)(q mod n) < 2^32 and moves to uint64 above."""
    assert coset._rotation(q, n) is None
    x = coset._residues(q, n, 0, n)
    wide = (n - 1) * (q % n) >= 1 << 32
    assert x.dtype == (np.uint64 if wide else np.uint32)
    got = coset._times_q(x, q, n, np.empty_like(x))
    assert np.array_equal(got, np.arange(n, dtype=object) * q % n)
    if n < 100:
        assert coset._order(q, n) == min(k for k in range(1, n + 1)
                                         if pow(q, k, n) == 1)


_B = coset._BLOCK
# n just below, at and just above a multiple of the block, with the rotation
# (uint32), the product in uint32, and the product in uint64
_BLOCK_EDGES = [(4, _B - 1, np.uint32), (16, 2 * _B - 1, np.uint32),
                (8, 4 * _B - 1, np.uint32),
                (4097, _B, np.uint32), (8, _B + 1, np.uint32),
                (4097, 2 * _B, np.uint32), (4, 2 * _B + 1, np.uint32),
                (45907, 3 * _B - 1, np.uint64), (45055, 3 * _B, np.uint64),
                (44943, 3 * _B + 1, np.uint64)]


@pytest.mark.parametrize("q,n,dtype", _BLOCK_EDGES)
def test_blocked_orbit_leaders_match_the_unblocked_oracle(q, n, dtype):
    assert coset._residues(q, n, 0, 1).dtype == dtype
    assert (coset._rotation(q, n) is not None) == (n + 1 & n == 0)
    for signed in (False, True):
        assert np.array_equal(coset._orbit_leaders(q, n, signed),
                              orbit_leaders(q, n, signed)), signed


def _digit_sums(q, lo, hi):
    i = np.arange(lo, hi, dtype=np.int64)
    w = np.zeros_like(i)
    while i.any():
        w += i % q
        i //= q
    return w


def _parity_set(q, lo, hi, parity):
    want = _digit_sums(q, lo, hi) % 2 == parity
    want[:max(0, 1 - lo)] = False  # 0 is in neither set
    return want


@pytest.mark.parametrize("q,m", [(q, m) for q in (2, 4, 8, 16, 32, 64, 128, 256)
                                 for m in range(2, 17) if q ** m - 1 <= 1 << 16])
def test_build_T_is_the_digit_sum_parity(q, m):
    n = q ** m - 1
    for parity in (0, 1):
        assert np.array_equal(build_T(q, m, parity).mask,
                              _parity_set(q, 0, n, parity))


def test_build_T_matches_digit_sums_on_slices_at_4_11():
    n = 4 ** 11 - 1
    for parity in (0, 1):
        mask = build_T(4, 11, parity).mask
        assert mask.size == n
        for lo in (0, 1 << 20, 3 << 20, n // 2 - 5000, n - 10000):
            hi = min(lo + 10000, n)
            assert np.array_equal(mask[lo:hi], _parity_set(4, lo, hi, parity)), lo


def test_negation_and_cover_across_blocks():
    """is_negation and disjoint_cover against the mask definitions on
    random sets over three blocks, with 0 in and out."""
    rng = np.random.default_rng(1)
    n = 2 * _B + 5
    for _ in range(20):
        a = DefiningSet(4, rng.random(n) < 0.5)
        neg = negate_set(a)
        assert neg.mask[0] == a.mask[0]
        assert neg.mask[1:].tolist() == a.mask[:0:-1].tolist()
        assert is_negation(a, neg) and is_negation(neg, a)
        for flip in (0, 1, n // 2, n - 1, rng.integers(n)):
            b = neg.mask.copy()
            b[flip] ^= True
            assert not is_negation(a, DefiningSet(4, b))
        comp = ~a.mask
        comp[0] = False
        assert disjoint_cover(a, DefiningSet(4, comp))
        for flip in (1, _B, n - 1):
            b = comp.copy()
            b[flip] ^= True
            assert not disjoint_cover(a, DefiningSet(4, b))
    assert not is_negation(build_T(4, 3, 0), build_T(8, 2, 1))
    assert not is_negation(build_T(4, 3, 0), DefiningSet(8, build_T(4, 3, 1).mask.copy()))
    assert not disjoint_cover(build_T(4, 3, 0), build_T(8, 2, 1))


@pytest.mark.parametrize("q,m", [(4, 8), (2, 16), (16, 4)])
def test_coset_count_matches_the_oracle_leaders(q, m):
    n = q ** m - 1
    lead = orbit_leaders(q, n, False)
    for parity in (0, 1):
        T = build_T(q, m, parity)
        assert coset_count(T) == int(np.count_nonzero(T.mask & lead))


def test_residue_kernels_stay_narrow_in_memory():
    """tracemalloc peaks per residue at n = 4^10 - 1: one byte for each mask
    returned or read, plus blocks of _BLOCK residues (the unblocked uint32
    kernels read 6 and 12 bytes per residue, and 7 for Lemma 1)."""
    from tdcodes import verify
    n = 4 ** 10 - 1
    assert peak_traced_bytes(leader_mask, 4, n) <= 1.5 * n
    assert peak_traced_bytes(coset._orbit_leaders, 4, n, True) <= 1.5 * n
    for parity in (0, 1):
        assert peak_traced_bytes(build_T, 4, 10, parity) <= 1.1 * n
    assert peak_traced_bytes(verify.verify_lemma1, 4, 10) <= 2.2 * n
    # the largest table verify_lemma6(16, 4) reads: i <= 15 * 16^3 - 1
    assert peak_traced_bytes(verify.verify_lemma6, 16, 4) <= 4 * 15 * 16 ** 3
