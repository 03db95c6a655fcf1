"""Exact arithmetic in the tower GF(2) -> GF(2^s) -> GF((2^s)^m).

Base-field elements of GF(q), q = 2^s, are integers in [0, q) read as
little-endian coefficient bit vectors over GF(2), so base addition is XOR.
Extension elements of GF(q^m) are packed integers holding m base
coefficients in s-bit groups, which makes extension addition plain XOR as
well.  Base multiplication reads discrete-log tables; the extension's
exp/log tables (``_ext_tables``) give the roots of the minimal polynomials
in :mod:`tdcodes.cyclic`.

The domain is s in 1..8, m in 2..16 and q^m <= MAX_TABLE_ORDER = 2^22, so
every field has its exp/log tables; larger fields are refused up front.

A modulus is validated by the order of its root alone: a root of full
order q^m - 1 makes every nonzero residue a unit, so the modulus is
irreducible, and Rabin's irreducibility test runs only to word a rejection.
The order test reads x^(q^m) = x and then x^(n/p) != 1 for each prime
p | n off GF(2)-linear maps of the s*m packed bits (squaring and times x
modulo the candidate, one list of bit images each).  The default-modulus
search first drops, a block of q candidates at a time, every candidate with
a root in GF(q), then tests the rest one by one in a fixed order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_TABLE_ORDER = 1 << 22  # the largest q^m of the field domain


class FieldError(ValueError):
    """Bad modulus, unsupported size, or invalid element operation."""


def check_field_size(s: int, m: int) -> None:
    """Refuse a GF((2^s)^m) outside the field domain: s in 1..8, m in 2..16
    and q^m <= MAX_TABLE_ORDER."""
    if not 1 <= s <= 8:
        raise FieldError(f"unsupported base degree s={s} (need 1..8)")
    if not 2 <= m <= 16:
        raise FieldError(f"unsupported extension degree m={m} (need 2..16)")
    if 1 << (s * m) > MAX_TABLE_ORDER:
        raise FieldError(f"q^m = 2^{s * m} = {1 << (s * m)} is over the field "
                         f"limit 2^{MAX_TABLE_ORDER.bit_length() - 1} = {MAX_TABLE_ORDER}")


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division: every
    order of the field domain is below 2^22, so p runs to 2048 at most."""
    found = []
    p = 2
    while p * p <= n:  # composite p never divides what is left
        if n % p == 0:
            found.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return found + [n] if n > 1 else found


# ---------------------------------------------------------------------------
# GF(2)[x] helpers on int bitmasks (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------

def _gf2_mulmod(a: int, b: int, f: int) -> int:
    top = 1 << (f.bit_length() - 1)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= f
    return r


def _gf2_powmod(a: int, e: int, f: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _gf2_mulmod(r, a, f)
        a = _gf2_mulmod(a, a, f)
        e >>= 1
    return r


def _gf2_x_is_primitive(f: int, group_order: int) -> bool:
    # the class of x has the full order, which also makes f irreducible
    if _gf2_powmod(2, group_order, f) != 1:
        return False
    return all(_gf2_powmod(2, group_order // p, f) != 1
               for p in _prime_factors(group_order))


def default_base_modulus(s: int) -> int:
    """Smallest primitive degree-s polynomial over GF(2) in ascending encoding."""
    for f in range((1 << s) | 1, 1 << (s + 1), 2):
        if _gf2_x_is_primitive(f, (1 << s) - 1):
            return f
    raise FieldError(f"no primitive polynomial of degree {s} found")


# ---------------------------------------------------------------------------
# Residues modulo a monic extension modulus, as GF(2)-linear maps
# ---------------------------------------------------------------------------

def _apply(images: list[int], v: int) -> int:
    """The GF(2)-linear map sending bit i to images[i], applied to v."""
    r = 0
    while v:
        low = v & -v
        r ^= images[low.bit_length() - 1]
        v ^= low
    return r


class _Modulus:
    """Times x and squaring modulo f = x^m + tail over GF(q), on packed
    residues.  Both are GF(2)-linear maps of the s*m bits, so each is one
    list of bit images: squaring is the Frobenius map in characteristic 2,
    and the bit j*s + u, the residue w^u x^j, squares to w^(2u) x^(2j).
    Only the base-field tables of ``field`` are read."""

    def __init__(self, field: FieldSpec, tail: int):
        s, m = field.s, field.m
        self.s, self.m, self.tail = s, m, tail
        self.top = (m - 1) * s
        self.mask = (1 << (s * m)) - 1
        # x^m = tail, so x times the residue c x^(m-1) is c * tail: one
        # image per bit of c
        self.carry_images = [field._ext_scalar(1 << t, tail) for t in range(s)]
        x_pow = [1 << (j * s) for j in range(m)]
        while len(x_pow) < 2 * m - 1:
            x_pow.append(self.times_x(x_pow[-1]))
        self.square_images = [
            field._ext_scalar(field.base_mul(1 << u, 1 << u), x_pow[2 * j])
            for j in range(m) for u in range(s)]

    def times_x(self, v: int) -> int:
        return ((v << self.s) & self.mask) ^ _apply(self.carry_images, v >> self.top)

    def x_order_is_full(self, n_factors: list[int]) -> bool:
        """Whether x has order n = q^m - 1 modulo f, given the primes p | n;
        such an f is primitive, and so irreducible.  First x^(q^m) = x (s*m
        squarings), which is x^n = 1 when f(0) != 0 makes x a unit; only
        then x^(n/p) != 1 for each p, by square-then-times-x."""
        if self.tail & ((1 << self.s) - 1) == 0:
            return False
        x = 1 << self.s
        y = x
        for _ in range(self.s * self.m):
            y = _apply(self.square_images, y)
        if y != x:
            return False
        n = (1 << (self.s * self.m)) - 1
        for p in n_factors:
            r = 1
            for bit in bin(n // p)[2:]:
                r = _apply(self.square_images, r)
                if bit == "1":
                    r = self.times_x(r)
            if r == 1:
                return False
        return True


# ---------------------------------------------------------------------------
# Field tower
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of GF(q^m) over GF(q) = GF(2^s).

    ``base_modulus`` is a degree-s GF(2) bitmask; ``ext_modulus`` holds the
    m+1 little-endian base-field coefficients of a monic degree-m polynomial
    whose root (the class of x, called beta) generates GF(q^m)^*.

    Use :func:`make_field` to get a validated instance; constructing
    directly skips the primitivity check.
    """

    s: int
    m: int
    base_modulus: int
    ext_modulus: tuple[int, ...]

    def __post_init__(self):
        check_field_size(self.s, self.m)
        if self.base_modulus.bit_length() - 1 != self.s:
            raise FieldError("base modulus degree mismatch")
        if len(self.ext_modulus) != self.m + 1:
            raise FieldError("extension modulus degree mismatch")
        if self.ext_modulus[-1] != 1:
            raise FieldError("extension modulus must be monic")
        if any(not 0 <= c < self.q for c in self.ext_modulus):
            raise FieldError("extension modulus coefficient out of range")

    @property
    def q(self) -> int:
        return 1 << self.s

    @property
    def n(self) -> int:
        return self.q ** self.m - 1

    # -- base field GF(q) ---------------------------------------------------

    @cached_property
    def _base_tables(self) -> tuple[list[int], list[int]]:
        q, f = self.q, self.base_modulus
        exp = [0] * (q - 1)
        log = [-1] * q
        e = 1
        for k in range(q - 1):
            exp[k] = e
            if log[e] != -1:
                raise FieldError("base modulus root is not primitive")
            log[e] = k
            e = _gf2_mulmod(e, 2, f)
        if e != 1:
            raise FieldError("base modulus root is not primitive")
        return exp, log

    def base_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        exp, log = self._base_tables
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def base_inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inversion of zero")
        exp, log = self._base_tables
        return exp[(self.q - 1 - log[a]) % (self.q - 1)]

    def base_log(self, a: int) -> int:
        if a == 0:
            raise FieldError("log of zero")
        return self._base_tables[1][a]

    # -- extension field GF(q^m) on packed ints -----------------------------

    @property
    def beta(self) -> int:
        """The class of x in GF(q^m): a primitive n-th root of unity."""
        return 1 << self.s

    @cached_property
    def _ext_tail(self) -> int:
        # packed value of x^m = sum_{j<m} c_j x^j (characteristic 2)
        return self.pack_coeffs(self.ext_modulus[:-1])

    @cached_property
    def _ext_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) as read-only int32 arrays: exp[k] = beta^k for k < n,
        log[exp[k]] = k and log[0] = -1.

        exp is built by doubling, exp[2^j + i] = beta^(2^j) exp[i].  Times a
        fixed element is a GF(2)-linear map of the s*m packed bits, so each
        doubling is one masked XOR of the image of each bit, and the next
        beta^(2^(j+1)) comes from the squaring map.  The root is primitive
        iff its first n powers are distinct and beta^n = 1."""
        n = self.n
        exp = np.empty(n, dtype=np.int32)
        exp[0] = 1
        c, done = self.beta, 1
        while done < n:
            src = exp[:min(done, n - done)]
            out = exp[done:done + src.size]
            out[:] = 0
            for b, image in enumerate(self._bit_images(c)):
                out ^= ((src >> b) & 1) * image
            done += src.size
            c = self._ext_square(c)
        log = np.full(n + 1, -1, dtype=np.int32)
        log[exp] = np.arange(n, dtype=np.int32)
        if np.count_nonzero(log >= 0) != n \
                or self._ext_times_x(int(exp[-1])) != 1:
            raise FieldError("extension modulus root is not primitive")
        exp.flags.writeable = log.flags.writeable = False
        return exp, log

    def _bit_images(self, c: int) -> list[int]:
        """c times each packed basis bit: bit j*s + u is w^u x^j."""
        images = [self._ext_scalar(1 << u, c) for u in range(self.s)]
        while len(images) < self.s * self.m:
            images.append(self._ext_times_x(images[-self.s]))
        return images

    def pack_coeffs(self, coeffs) -> int:
        v = 0
        for j, c in enumerate(coeffs):
            v |= c << (j * self.s)
        return v

    def _ext_scalar(self, c: int, v: int) -> int:
        # multiply every base coefficient of v by c
        if c == 0 or v == 0:
            return 0
        if c == 1:
            return v
        exp, log = self._base_tables
        lc = log[c]
        q1 = self.q - 1
        mask = q1
        r = 0
        shift = 0
        while v:
            d = v & mask
            if d:
                r |= exp[(lc + log[d]) % q1] << shift
            v >>= self.s
            shift += self.s
        return r

    @cached_property
    def _modulus(self) -> _Modulus:
        return _Modulus(self, self._ext_tail)

    def _ext_times_x(self, v: int) -> int:
        return self._modulus.times_x(v)

    def _ext_square(self, v: int) -> int:
        return _apply(self._modulus.square_images, v)

    def _ext_mul_poly(self, a: int, b: int) -> int:
        mask = self.q - 1
        r = 0
        while b:
            d = b & mask
            if d:
                r ^= self._ext_scalar(d, a)
            b >>= self.s
            a = self._ext_times_x(a)
        return r

    def _ext_pow_poly(self, a: int, e: int) -> int:
        # raw square-and-multiply modulo any monic modulus, primitive or
        # not (Rabin's test words a rejection with it), so e is not reduced
        r = 1
        while e:
            if e & 1:
                r = self._ext_mul_poly(r, a)
            a = self._ext_square(a)
            e >>= 1
        return r

    # -- numpy helper tables for matrix work --------------------------------

    @cached_property
    def np_mul_table(self) -> np.ndarray:
        """t[a, b] = a * b in GF(q), as uint8: exp[(log a + log b) mod (q - 1)]
        on the nonzero rows and columns."""
        q = self.q
        exp, log = (np.array(t) for t in self._base_tables)
        t = np.zeros((q, q), dtype=np.uint8)
        t[1:, 1:] = exp[(log[1:, None] + log[1:]) % (q - 1)]
        t.flags.writeable = False
        return t

    @cached_property
    def np_inv_table(self) -> np.ndarray:
        """t[a] = 1 / a in GF(q) for a != 0, as uint8; t[0] = 0."""
        exp, log = (np.array(t) for t in self._base_tables)
        t = np.zeros(self.q, dtype=np.uint8)
        t[1:] = exp[-log[1:] % (self.q - 1)]
        t.flags.writeable = False
        return t

    # -- rendering -----------------------------------------------------------

    def base_text(self, a: int) -> str:
        if a == 0:
            return "0"
        if a == 1:
            return "1"
        k = self.base_log(a)
        return "w" if k == 1 else f"w^{k}"


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def _is_irreducible(pow_mod, x: int, q: int, d: int) -> bool:
    """Rabin's test for a degree-d modulus over GF(q), given its residue
    power ``pow_mod`` and the residue x of the indeterminate: x^(q^d) = x,
    and x^(q^(d/p)) - x is a unit for every prime p | d."""
    if d == 1:  # always irreducible; x need not even be reduced mod it
        return True
    if pow_mod(x, q ** d) != x:
        return False
    return all(pow_mod(pow_mod(x, q ** (d // p)) ^ x, q ** d - 1) == 1
               for p in _prime_factors(d))


def _rejection(which: str, irreducible: bool) -> FieldError:
    if irreducible:
        return FieldError(f"{which} modulus root is not primitive")
    return FieldError(f"reducible {which} modulus")


def default_ext_modulus(s: int, m: int, base_modulus: int) -> tuple[int, ...]:
    """First monic degree-m polynomial over GF(q), in ascending packed-coefficient
    order, whose root generates GF(q^m)^*.

    The candidates come in blocks of q that differ only in the constant term
    c0.  f = h + c0 has the root a in GF(q) exactly when c0 = h(a), so one
    evaluation of h at the q points drops every candidate of the block with
    a root (c0 = 0 among them, as h(0) = 0); the rest take the order test."""
    q = 1 << s
    probe = FieldSpec(s, m, base_modulus, (0,) * m + (1,))
    n_factors = _prime_factors(probe.n)
    mul = probe.np_mul_table
    powers = np.empty((m, q), dtype=np.uint8)  # powers[j - 1, a] = a^j
    powers[0] = np.arange(q)
    for j in range(1, m):
        powers[j] = mul[powers[j - 1], powers[0]]
    for high in range(q ** (m - 1)):
        coeffs = tuple((high >> (j * s)) & (q - 1) for j in range(m - 1)) + (1,)
        h_values = np.bitwise_xor.reduce(mul[np.array(coeffs)[:, None], powers])
        root_free = np.ones(q, dtype=bool)
        root_free[h_values] = False
        for c0 in np.flatnonzero(root_free).tolist():
            if _Modulus(probe, (high << s) | c0).x_order_is_full(n_factors):
                return (c0,) + coeffs
    raise FieldError(f"no primitive degree-{m} extension modulus over GF({q})")


def make_field(s: int, m: int,
               base_modulus: int | None = None,
               ext_modulus: tuple[int, ...] | None = None) -> FieldSpec:
    """Validated field tower; defaults are chosen deterministically."""
    check_field_size(s, m)
    if base_modulus is None:
        base_modulus = default_base_modulus(s)
    else:
        if base_modulus.bit_length() - 1 != s:
            raise FieldError("base modulus has wrong degree")
        if not _gf2_x_is_primitive(base_modulus, (1 << s) - 1):
            raise _rejection("base", _is_irreducible(
                lambda a, e: _gf2_powmod(a, e, base_modulus), 2, 2, s))
    if ext_modulus is None:
        ext_modulus = default_ext_modulus(s, m, base_modulus)
        return FieldSpec(s, m, base_modulus, tuple(ext_modulus))

    spec = FieldSpec(s, m, base_modulus, tuple(ext_modulus))
    if not spec._modulus.x_order_is_full(_prime_factors(spec.n)):
        raise _rejection("extension", _is_irreducible(
            spec._ext_pow_poly, spec.beta, spec.q, m))
    return spec


# ---------------------------------------------------------------------------
# Field-spec JSON (base coefficients as bits, extension coefficients as reprs)
# ---------------------------------------------------------------------------

def field_spec_from_json(data: dict) -> FieldSpec:
    base = 0
    for i, bit in enumerate(data["base_modulus"]):
        base |= (bit & 1) << i
    ext = tuple(c[0] if isinstance(c, list) else int(c)
                for c in data["ext_modulus"])
    return make_field(int(data["s"]), int(data["m"]), base, ext)


def load_field_spec(path) -> FieldSpec:
    """The field a field-spec file describes; a file that is not JSON, lacks
    an entry or holds one of the wrong kind raises FieldError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return field_spec_from_json(json.load(fh))
    except FieldError:
        raise
    except KeyError as exc:
        raise FieldError(f"the field-spec file has no {exc} entry") from None
    except (TypeError, ValueError, IndexError) as exc:
        raise FieldError(f"the field-spec file is malformed: {exc}") from None
