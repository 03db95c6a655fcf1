"""Output checks that share no arithmetic with tdcodes.

Field arithmetic here is rebuilt from the two moduli alone (carry-less
multiplication, schoolbook reduction), defining sets from base-q digit
sums, and coset counts from Burnside's lemma, so a bug in the library's
tables, cosets or polynomial code cannot make a wrong output pass.
Every check raises CheckError with a reason on the first mismatch.
"""

from __future__ import annotations

import math
import re

import numpy as np


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def expect(cond, msg: str):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# Integer side: digit parities, set sizes, coset counts
# ---------------------------------------------------------------------------

def digit_parity(i: int, q: int) -> int:
    total = 0
    while i:
        i, d = divmod(i, q)
        total += d
    return total & 1


def defining_set(q: int, m: int, parity: int) -> list[int]:
    n = q ** m - 1
    return [i for i in range(1, n) if digit_parity(i, q) == parity]


def set_size(q: int, m: int, parity: int) -> int:
    """|T_(q,m;parity)| by counting: half of the q^m digit strings have even
    sum; residues 1..n-1 drop the all-zero string (even) and the all-(q-1)
    string (parity of m)."""
    half = q ** m // 2
    if parity == 0:
        return half - 1 - (1 - m % 2)
    return half - m % 2


def dimension(q: int, m: int, parity: int) -> int:
    return q ** m - 1 - set_size(q, m, parity)


def coset_count(q: int, m: int, parity: int) -> int:
    """Number of q-cyclotomic cosets inside T_(q,m;parity): orbits of digit
    rotation on m-digit strings (Burnside), minus the two strings that are
    0 modulo n (all digits 0, all digits q-1) where they have the parity."""
    total = 0
    for d in range(1, m + 1):
        if m % d:
            continue
        reps = m // d  # a string of period d repeats its d digits reps times
        if reps % 2 == 0:
            with_parity = q ** d if parity == 0 else 0
        else:
            with_parity = q ** d // 2
        phi = sum(1 for j in range(1, reps + 1) if math.gcd(j, reps) == 1)
        total += phi * with_parity
    return total // m - (parity == 0) - (m % 2 == parity)


def check_progression(q: int, m: int, parity: int, b: int, a: int,
                      lo: int, hi: int):
    n = q ** m - 1
    expect(math.gcd(a, n) == 1, f"step {a} is not a unit modulo {n}")
    for i in range(lo, hi + 1):
        e = (b + a * i) % n
        expect(e != 0 and digit_parity(e, q) == parity,
               f"progression member {e} is not in T_{parity}")


# ---------------------------------------------------------------------------
# GF(2^s) and GF(2^(s m)) from the moduli
# ---------------------------------------------------------------------------

class Field:
    """GF(q) = GF(2)[w]/(base_modulus) and GF(q^m) = GF(q)[x]/(ext_modulus),
    with extension elements as lists of m base coefficients."""

    def __init__(self, s: int, m: int, base_modulus: int, ext_modulus):
        self.s, self.m, self.q = s, m, 1 << s
        self.n = self.q ** m - 1
        self.ext = list(ext_modulus)
        expect(len(self.ext) == m + 1 and self.ext[-1] == 1,
               "extension modulus is not monic of degree m")
        self.mul = [[self._clmul_mod(a, b, base_modulus) for b in range(self.q)]
                    for a in range(self.q)]
        self.np_mul = np.array(self.mul, dtype=np.uint8)

    def _clmul_mod(self, a: int, b: int, f: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> self.s:
                a ^= f
        return r

    def ext_mul(self, u, v):
        m, mul = self.m, self.mul
        prod = [0] * (2 * m - 1)
        for i, ui in enumerate(u):
            if ui:
                row = mul[ui]
                for j, vj in enumerate(v):
                    prod[i + j] ^= row[vj]
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d]
            if c:
                row = mul[c]
                for j in range(m):
                    prod[d - m + j] ^= row[self.ext[j]]
        return prod[:m]

    def beta_power(self, t: int):
        result = [1] + [0] * (self.m - 1)
        base = [0, 1] + [0] * (self.m - 2)
        t %= self.n
        while t:
            if t & 1:
                result = self.ext_mul(result, base)
            base = self.ext_mul(base, base)
            t >>= 1
        return result

    def evaluate(self, poly, x):
        """poly (base coefficients, little-endian) at the extension point x."""
        acc = [0] * self.m
        for c in reversed(poly):
            acc = self.ext_mul(acc, x)
            acc[0] ^= c
        return acc

    def poly_mod(self, a, g):
        """Remainder of a by the monic polynomial g over GF(q)."""
        a = list(a)
        dg = len(g) - 1
        mul = self.mul
        for d in range(len(a) - 1, dg - 1, -1):
            c = a[d]
            if c:
                row = mul[c]
                for j in range(dg + 1):
                    a[d - dg + j] ^= row[g[j]]
        return a[:dg]


def field_of(spec) -> Field:
    """Independent arithmetic over the moduli a tdcodes FieldSpec uses."""
    return Field(spec.s, spec.m, spec.base_modulus, spec.ext_modulus)


def check_generator(field: Field, g, T, rng, samples: int = 3):
    """g is the generator of the cyclic code with defining set T: monic,
    deg g = |T|, and g(beta^t) = 0 at sampled t in T."""
    expect(len(g) - 1 == len(T), f"deg g = {len(g) - 1} but |T| = {len(T)}")
    expect(g[-1] == 1, "generator polynomial is not monic")
    zero = [0] * field.m
    for t in rng.sample(list(T), min(samples, len(T))):
        expect(field.evaluate(g, field.beta_power(t)) == zero,
               f"g(beta^{t}) != 0 for t in T")


def check_codeword(field: Field, g, word, weight: int, extended: bool = False):
    """word is a nonzero codeword of weight ``weight`` of the cyclic code
    generated by g, or of its extension by an overall parity coordinate."""
    word = [int(c) for c in word]
    expect(sum(1 for c in word if c) == weight,
           f"witness weight {sum(1 for c in word if c)} != reported {weight}")
    expect(weight > 0, "witness is the zero word")
    body = word
    if extended:
        body = word[:-1]
        parity = 0
        for c in body:
            parity ^= c
        expect(word[-1] == parity, "extended witness fails the parity coordinate")
    expect(len(body) == field.n, f"witness length {len(body)} != n = {field.n}")
    expect(not any(field.poly_mod(body, g)), "witness is not a multiple of g")


def weight_tally(field: Field, g, k: int, chunk_bits: int = 12) -> dict[int, int]:
    """Weight distribution of the cyclic code generated by g, by encoding
    every message (chunked so memory stays small)."""
    n = field.n
    rows = np.zeros((k, n), dtype=np.uint8)
    for j in range(k):
        rows[j, j:j + len(g)] = g
    q = field.q
    hist = np.zeros(n + 1, dtype=np.int64)
    total = q ** k
    step = min(total, 1 << chunk_bits)
    for start in range(0, total, step):
        idx = np.arange(start, start + step, dtype=np.int64)
        words = np.zeros((step, n), dtype=np.uint8)
        for j in range(k):
            digit = (idx // q ** j) % q
            words ^= field.np_mul[digit[:, None], rows[j][None, :]]
        hist += np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    return {w: int(c) for w, c in enumerate(hist) if c}


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

_INT = re.compile(r"-?\d+")


def ints_in(text: str) -> list[int]:
    return [int(x) for x in _INT.findall(text)]


def check_suite_json(payload: dict, claim_id: str, q: int, m: int):
    """Every claim passes or is skipped for size."""
    expect(payload.get("id") == claim_id and payload.get("q") == q
           and payload.get("m") == m, "suite output names another request")
    checks = payload.get("checks") or []
    expect(checks, "suite returned no checks")
    for c in checks:
        expect(c["status"] in ("pass", "skip"),
               f"claim {c['claim']!r} has status {c['status']}")
