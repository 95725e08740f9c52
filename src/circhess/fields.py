"""Exact field arithmetic: rationals, prime fields, and quotient extensions.

A FieldSpec describes a field and implements all arithmetic on raw payloads:

    Rationals          -> fractions.Fraction
    PrimeField(p)      -> int in [0, p)
    FiniteExtension    -> tuple of base payloads, length deg(modulus), over
                          GF(p) or a FiniteExtension (a tower)
    RationalExtension  -> tuple of ints (n_0, ..., n_{k-1}, D) over QQ, the
                          coefficients n_i / D with D >= 1 and
                          gcd(n_0, ..., n_{k-1}, D) = 1

QuotientExtension(base, modulus, gen) is the one constructor of both
extension classes: the base picks the class, so each payload form has its
own arithmetic and certificate and no operation asks which base it is on.

FieldElement is a thin wrapper pairing a payload with its spec.  Elements of
different fields never mix (MixedFieldsError); there is no coercion between
fields, only embedding of plain integers.  All arithmetic is exact; equality
is structural equality of canonical payloads.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _escape
from typing import Iterator, NamedTuple

from .errors import (
    DivisionByZeroError,
    MixedFieldsError,
    NoSuchRootError,
    NotPrimeError,
    ParseError,
    ReducibleModulusError,
)

# the largest finite extension that builds Zech-logarithm tables (about 50 MB)
ZECH_TABLE_CAP = 200_000


def _prime_divisors(n: int) -> list[int]:
    out = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


# the first 13 primes: as Miller-Rabin bases they certify every n below
# _MILLER_RABIN_BOUND exactly (Sorenson and Webster, 2015)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Exact primality.  A Miller-Rabin witness among the first 13 primes
    proves n composite; with none, n is prime when it is below
    _MILLER_RABIN_BOUND (about 3.3e24).  Above it no certificate is
    attempted: NotPrimeError says so at once."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    if n >= _MILLER_RABIN_BOUND:
        raise NotPrimeError(
            f"{n} cannot be certified prime: no Miller-Rabin base witnesses "
            f"it composite, and it is above {_MILLER_RABIN_BOUND}"
        )
    return True


class FieldSpec:
    """Common payload-level interface; concrete fields subclass this."""

    characteristic: int

    # payload-level arithmetic -------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def dot(self, xs, ys):
        """Sum of the products x * y over the pairs; a table of them is
        `dots`."""
        raise NotImplementedError

    def dots(self, xss, yss):
        """The table of dot(xs, ys), one tuple per xs holding one entry per
        ys: every Matrix product and the oracle's tables make one call.
        Fields whose dot can share work across a table override it."""
        dot = self.dot
        return [tuple([dot(xs, ys) for ys in yss]) for xs in xss]

    def is_zero(self, a) -> bool:
        return a == self.zero

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    @property
    def order(self) -> int | None:
        """Number of elements, or None for infinite fields."""
        raise NotImplementedError

    def element_payloads(self) -> Iterator:
        raise NotImplementedError("only finite fields enumerate elements")

    def from_int(self, k: int):
        raise NotImplementedError

    def render(self, a) -> str:
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    # element-level conveniences ------------------------------------------
    def element(self, x) -> "FieldElement":
        """Build a FieldElement from an int, Fraction, canonical string, or
        an existing element of this same field."""
        if isinstance(x, FieldElement):
            if x.spec is not self and x.spec != self:
                raise MixedFieldsError(f"element of {x.spec} used in {self}")
            return x
        if isinstance(x, bool):
            raise ParseError("bool is not a field element")
        if isinstance(x, int):
            return FieldElement(self, self.from_int(x))
        if isinstance(x, Fraction):
            num = self.from_int(x.numerator)
            den = self.from_int(x.denominator)
            return FieldElement(self, self.div(num, den))
        if isinstance(x, str):
            return FieldElement(self, self.parse(x))
        raise ParseError(f"cannot interpret {x!r} as an element of {self}")

    def zero_element(self) -> "FieldElement":
        return FieldElement(self, self.zero)

    def one_element(self) -> "FieldElement":
        return FieldElement(self, self.one)

    def elements(self) -> Iterator["FieldElement"]:
        for p in self.element_payloads():
            yield FieldElement(self, p)

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Rationals(FieldSpec):
    """The field of arbitrary-precision rationals."""

    characteristic: int = field(default=0, init=False)

    @property
    def zero(self):
        return _F0

    @property
    def one(self):
        return _F1

    @property
    def order(self):
        return None

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZeroError("inverse of 0 in QQ")
        return 1 / a

    def dot(self, xs, ys):
        return sum((x * y for x, y in zip(xs, ys)), _F0)

    def from_int(self, k: int):
        return Fraction(k)

    def render(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad rational {s!r}") from e

    def __str__(self):
        return "QQ"

    def to_json(self) -> dict:
        return {"kind": "rationals"}


_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class PrimeField(FieldSpec):
    """GF(p) for a prime p, residues stored as ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise NotPrimeError(f"{self.p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    @property
    def order(self):
        return self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZeroError(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.p

    def dots(self, xss, yss):
        p, mul = self.p, operator.mul
        return [tuple([sum(map(mul, xs, ys)) % p for ys in yss]) for xs in xss]

    def element_payloads(self):
        return iter(range(self.p))

    def from_int(self, k: int):
        return k % self.p

    def render(self, a) -> str:
        return str(a)

    def parse(self, s: str):
        try:
            k = int(s)
        except ValueError as e:
            raise ParseError(f"bad GF({self.p}) element {s!r}") from e
        if not 0 <= k < self.p:
            raise ParseError(f"{s!r} out of range for GF({self.p})")
        return k

    def __str__(self):
        return f"GF({self.p})"

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}


class _ZechTables(NamedTuple):
    """Log tables of a finite field F over a generator g of F^x, q = |F|.

    Every table has q - 1 entries (O(q) memory, no q x q addition table):
    a + b for nonzero a = g^i, b = g^j is g^i (1 + g^(j - i)), so one row
    of Zech logarithms zech[k] = log(1 + g^k) serves all sums.
    """

    exp: tuple  # exp[k] = g^k as a payload tuple
    log: dict  # nonzero payload -> k; the zero payload is absent
    zech: tuple  # zech[k] = log(1 + g^k), or None when 1 + g^k = 0
    log_minus_one: int  # log(-1): (q - 1)/2, or 0 in characteristic 2


@dataclass(frozen=True)
class QuotientExtension(FieldSpec):
    """base[x]/(m(x)) for a monic irreducible m of degree >= 2.

    The modulus is stored low-to-high including the leading 1, as base
    payloads.  The base fixes the payload form, the arithmetic and the
    certificate of irreducibility once, at construction:
    QuotientExtension(base, modulus, gen) returns a FiniteExtension over a
    finite base (GF(p), or a FiniteExtension: a tower) and a
    RationalExtension over QQ.  Over any other base (an extension of QQ)
    no modulus can be certified, and it raises ReducibleModulusError.
    Every modulus is certified: there is no option to skip it.

    This class holds what the two share: the modulus with its reduction
    rows, the generator, and the boundary (from_int, embed, render, parse,
    to_json), which reaches payloads through each subclass's
    from_coefficients and coefficients.
    """

    base: FieldSpec
    modulus: tuple
    gen: str = "t"

    def __new__(cls, base=None, modulus=None, gen="t"):
        # copy and pickle call the subclass's __new__ with no arguments
        if cls is QuotientExtension:
            if isinstance(base, Rationals):
                cls = RationalExtension
            elif base.order is not None:
                cls = FiniteExtension
            else:
                raise ReducibleModulusError(
                    "cannot certify irreducibility over this base field"
                )
        return super().__new__(cls)

    def __post_init__(self):
        # elements render and parse by this name
        if not (isinstance(self.gen, str) and self.gen.isidentifier()):
            raise ParseError(f"extension generator must be an identifier, got {self.gen!r}")
        if self.deg < 2:
            raise ReducibleModulusError("modulus degree must be >= 2")
        if self.modulus[-1] != self.base.one:
            raise ReducibleModulusError("modulus must be monic")
        self._check_irreducible()

    @property
    def deg(self) -> int:
        return len(self.modulus) - 1

    @property
    def characteristic(self) -> int:
        return self.base.characteristic

    @cached_property
    def zero(self):
        return self.from_coefficients((self.base.zero,) * self.deg)

    @cached_property
    def one(self):
        return self.embed(self.base.one)

    @cached_property
    def generator_payload(self):
        return self.from_coefficients(tuple(
            self.base.one if i == 1 else self.base.zero for i in range(self.deg)
        ))

    def generator(self) -> "FieldElement":
        return FieldElement(self, self.generator_payload)

    # reduction of x^(deg+e) mod modulus, precomputed
    @cached_property
    def _red_rows(self):
        b = self.base
        k = self.deg
        rows = []
        # x^k = -(m_0 + m_1 x + ... + m_{k-1} x^{k-1})
        cur = [b.neg(c) for c in self.modulus[:k]]
        rows.append(tuple(cur))
        for _ in range(k - 2):
            top = cur[-1]
            cur = [b.zero] + cur[:-1]
            if not b.is_zero(top):
                cur = [b.add(c, b.mul(top, r)) for c, r in zip(cur, rows[0])]
            rows.append(tuple(cur))
        return rows

    def from_int(self, k: int):
        return self.embed(self.base.from_int(k))

    def embed(self, base_payload):
        """Embed a base-field payload as a constant of the extension."""
        return self.from_coefficients((base_payload,) + (self.base.zero,) * (self.deg - 1))

    def render(self, a) -> str:
        parts = []
        wrap = isinstance(self.base, QuotientExtension)
        for i, c in enumerate(self.coefficients(a)):
            cs = self.base.render(c)
            if wrap:
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*{self.gen}")
            else:
                parts.append(f"{cs}*{self.gen}^{i}")
        return "+".join(parts)

    def parse(self, s: str):
        terms = _split_top_level(s)
        if len(terms) != self.deg:
            raise ParseError(
                f"expected {self.deg} coefficients for {self}, got {len(terms)}"
            )
        coeffs = []
        for i, t in enumerate(terms):
            if i == 0:
                cs = t
            else:
                suffix = f"*{self.gen}" if i == 1 else f"*{self.gen}^{i}"
                if not t.endswith(suffix):
                    raise ParseError(f"term {t!r} lacks suffix {suffix!r}")
                cs = t[: -len(suffix)]
            if cs.startswith("(") and cs.endswith(")"):
                cs = cs[1:-1]
            coeffs.append(self.base.parse(cs))
        return self.from_coefficients(coeffs)

    def _modulus_str(self) -> str:
        return "[" + ",".join(self.base.render(c) for c in self.modulus) + "]"

    def __str__(self):
        return f"{self.base}[{self.gen}]/{self._modulus_str()}"

    def to_json(self) -> dict:
        return {
            "kind": "extension",
            "base": self.base.to_json(),
            "modulus": [self.base.render(c) for c in self.modulus],
            "generator": self.gen,
        }


# each certified finite extension -> its Zech tables, or None until built
_FINITE_FIELDS: dict = {}


class FiniteExtension(QuotientExtension):
    """base[x]/(m) over a finite base: GF(q) with q = |base|^deg(m), towers
    included.  A payload is the tuple of its deg(m) coefficients, low to
    high, as base payloads.  The modulus is certified by Rabin's test
    (_check_irreducible), in O(deg(m) log |base|) products modulo m, so no
    size of base or degree is refused.

    Arithmetic has two paths with the same payloads and results.  The
    coefficient path defines it: sums coefficient by coefficient, products
    and dots by `_coeff_dot` (one convolution, then reduction by the
    modulus rows), and inverses by `_coeff_inv`, extended Euclid on base[x]
    remainders with the cofactor kept as a payload.  The (q - 1)-th
    operation builds `_tables`, Zech logarithms over a primitive element,
    and from then on mul and inv are exponent arithmetic mod q - 1, add,
    sub and neg are one Zech lookup each, and dot and dots sum in the log
    domain.
    The tables hold three rows of q - 1 entries, never a q x q grid: about
    250 bytes per element, 44 MB at q = 3^11.  A field with more than
    ZECH_TABLE_CAP elements never builds them, which caps the tables at
    about 50 MB.

    Equal fields (the same base, modulus and generator, however often
    parsed) share one certificate and one table build through the module
    memo `_FINITE_FIELDS`: a modulus that passes Rabin's test is recorded,
    and the first instance to reach its (q - 1)-th operation builds the
    tables that every equal instance then takes on its own (q - 1)-th
    operation.  A refused modulus is not recorded.  The memo holds at most
    one table per distinct field value, each capped by ZECH_TABLE_CAP.
    """

    @property
    def order(self):
        return self.base.order ** self.deg

    def from_coefficients(self, coeffs):
        """The payload whose coefficients, low to high, are the base
        payloads `coeffs`: their tuple."""
        return tuple(coeffs)

    def coefficients(self, a) -> tuple:
        """The coefficients of payload `a`, low to high: `a` itself."""
        return a

    def element_payloads(self):
        # fixed lexicographic order so searches are deterministic
        return itertools.product(list(self.base.element_payloads()), repeat=self.deg)

    # table path: Zech logarithms over a primitive element -----------------
    def __getattr__(self, name):
        """Resolve `_tables` (None means the coefficient path) until it is
        fixed in the instance dict.

        None is fixed at once for q > ZECH_TABLE_CAP.  Otherwise each
        lookup is one operation about to run on the coefficient path, and
        the (q - 1)-th fixes the tables, built unless an equal field has
        built them (`_FINITE_FIELDS`).  The build is q - 1 table rows,
        each (from q of a few hundred up) cheaper than one coefficient
        product, so a field pays for its tables only after it has spent
        about as much without them, and a short computation in a large
        field never builds them.
        """
        if name != "_tables":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        d, q = self.__dict__, self.order
        if q > ZECH_TABLE_CAP:
            d["_tables"] = None
            return None
        used = d.get("_coeff_ops", 0) + 1
        if used < q - 1:
            d["_coeff_ops"] = used
            return None
        d["_tables"] = None  # the build's own operations take the coefficient path
        t = _FINITE_FIELDS.get(self)
        if t is None:
            t = _FINITE_FIELDS[self] = self._build_tables()
        d["_tables"] = t
        return t

    def _build_tables(self) -> _ZechTables:
        """Zech-logarithm tables over g = primitive_root_of_unity(self, q - 1),
        the first payload in element order that generates the cyclic group
        F^x.  `_tables` is None while this runs, so that search, like the
        build, takes the coefficient path.

        Built from the coefficient arithmetic: a -> g a is base-linear, so
        each of the q - 1 powers of g is k base dots against rows read off
        k products, and each Zech entry is one sum with 1.
        """
        n, one, zero = self.order - 1, self.one, self.zero
        g = primitive_root_of_unity(self, n).payload
        # row j holds coefficient j of g x^i, i < k
        b, k = self.base, self.deg
        xs = [zero[:i] + (b.one,) + zero[i + 1:] for i in range(k)]
        rows = list(zip(*(self.mul(g, x) for x in xs)))
        exp = [one]
        for _ in range(n - 1):
            a = exp[-1]
            exp.append(tuple(b.dot(r, a) for r in rows))
        log = {a: e for e, a in enumerate(exp)}
        zech = tuple(log.get(self.add(one, a)) for a in exp)
        return _ZechTables(tuple(exp), log, zech, log[self.neg(one)])

    def add(self, a, b):
        t = self._tables
        if t is None:
            return tuple([self.base.add(x, y) for x, y in zip(a, b)])
        exp, log, zech, _ = t
        i = log.get(a)
        if i is None:
            return b
        j = log.get(b)
        if j is None:
            return a
        # g^i + g^j = g^i (1 + g^(j - i))
        n = len(exp)
        z = zech[(j - i) % n]
        return self.zero if z is None else exp[(i + z) % n]

    def sub(self, a, b):
        t = self._tables
        if t is None:
            return self._coeff_sub(a, b)
        exp, log, zech, log_minus_one = t
        n = len(exp)
        j = log.get(b)
        if j is None:
            return a
        j = (j + log_minus_one) % n
        i = log.get(a)
        if i is None:
            return exp[j]
        z = zech[(j - i) % n]
        return self.zero if z is None else exp[(i + z) % n]

    def neg(self, a):
        t = self._tables
        if t is None:
            return tuple([self.base.neg(x) for x in a])
        exp, log, _, log_minus_one = t
        i = log.get(a)
        return a if i is None else exp[(i + log_minus_one) % len(exp)]

    def mul(self, a, b):
        t = self._tables
        if t is None:
            return self._coeff_dot((a,), (b,))
        exp, log, _, _ = t
        i = log.get(a)
        j = log.get(b)
        if i is None or j is None:
            return self.zero
        return exp[(i + j) % len(exp)]

    def dot(self, xs, ys):
        """One pair, looking up only the logs it needs.  It is not the
        one-pair case of `dots`, which costs about twice as much per call:
        the search probe makes one such call per pattern entry."""
        t = self._tables
        if t is None:
            return self._coeff_dot(xs, ys)
        exp, log, zech, _ = t
        n = len(exp)
        acc = None  # log of the running sum; None while it is zero
        for x, y in zip(xs, ys):
            i = log.get(x)
            if i is None:
                continue
            j = log.get(y)
            if j is None:
                continue
            if acc is None:
                acc = (i + j) % n
            else:
                z = zech[(i + j - acc) % n]
                acc = None if z is None else (acc + z) % n
        return self.zero if acc is None else exp[acc]

    def dots(self, xss, yss):
        """On the tables each entry is dot's log-domain sum, with each
        vector's logs looked up once for the whole table and the zero
        entries of each xs skipped; before they exist, one coefficient-path
        dot per entry, each counted towards their build."""
        t = vars(self).get("_tables")
        if t is None:
            return super().dots(xss, yss)
        exp, log, zech, _ = t
        n, zero, log = len(exp), self.zero, log.get
        lyss = [list(map(log, ys)) for ys in yss]
        table = []
        for xs in xss:
            # (position, log) of each nonzero entry of xs
            lxs = [(k, i) for k, i in enumerate(map(log, xs)) if i is not None]
            row = []
            for lys in lyss:
                acc = None  # log of the running sum; None while it is zero
                for k, i in lxs:
                    j = lys[k]
                    if j is None:
                        continue
                    if acc is None:
                        acc = (i + j) % n
                    else:
                        z = zech[(i + j - acc) % n]
                        acc = None if z is None else (acc + z) % n
                row.append(zero if acc is None else exp[acc])
            table.append(tuple(row))
        return table

    def inv(self, a):
        t = self._tables
        if t is None:
            return self._coeff_inv(a)
        i = t.log.get(a)
        if i is None:
            raise DivisionByZeroError(f"inverse of 0 in {self}")
        return t.exp[-i]  # g^(q - 1 - i); exp[-0] is exp[0] = 1

    # coefficient path: the definition of the arithmetic ------------------
    def _coeff_sub(self, a, b):
        ba = self.base
        return tuple([ba.sub(x, y) for x, y in zip(a, b)])

    def _coeff_dot(self, xs, ys):
        """Sum of x * y over the pairs: one convolution of them all, then one
        reduction by the modulus rows.  A product is the dot of one pair."""
        k = self.deg
        ba, rows = self.base, self._red_rows
        add, mul, zero = ba.add, ba.mul, ba.zero
        conv = [zero] * (2 * k - 1)
        for x, y in zip(xs, ys):
            y = [(j, yj) for j, yj in enumerate(y) if yj != zero]
            for i, xi in enumerate(x):
                if xi != zero:
                    for j, yj in y:
                        conv[i + j] = add(conv[i + j], mul(xi, yj))
        # x^(k + e) = rows[e]
        out = conv[:k]
        for c, row in zip(conv[k:], rows):
            if c != zero:
                out = [add(o, mul(c, r)) for o, r in zip(out, row)]
        return tuple(out)

    def _coeff_inv(self, a):
        if self.is_zero(a):
            raise DivisionByZeroError(f"inverse of 0 in {self}")
        # extended Euclid over base[x]: g = s*a + t*m with g constant.  The
        # cofactor s is only needed mod m, so it is held as a payload; once
        # deg r1 >= 1 every quotient has degree < deg m, so `_coeff_dot`
        # takes its trimmed coefficients as they are.
        b = self.base
        r0, r1 = list(self.modulus), _poly_trim(list(a), b)
        s0, s1 = self.zero, self.one
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1, b)
            r0, r1 = r1, r
            s0, s1 = s1, self._coeff_sub(s0, self._coeff_dot((q,), (s1,)))
        if not r1:
            raise ReducibleModulusError(
                f"zero divisor mod {self._modulus_str()}: modulus not irreducible"
            )
        c = b.inv(r1[0])
        return tuple([b.mul(c, x) for x in s1])

    def _check_irreducible(self):
        """Rabin's test, with q = |base| and k = deg(m): m is irreducible iff
        x^(q^k) = x mod m and gcd(m, x^(q^(k/r)) - x) = 1 for each prime r
        dividing k.  Each x^(q^j) is the q-th power of the one before.
        An equal field certified before is not tested again."""
        if self in _FINITE_FIELDS:
            return
        b, m, k = self.base, list(self.modulus), self.deg
        frobenius = [[b.zero, b.one]]
        for _ in range(k):
            frobenius.append(_poly_powmod(frobenius[-1], b.order, m, b))
        x = frobenius[0]
        if frobenius[k] != x or any(
                len(_poly_gcd(m, _poly_sub(frobenius[k // r], x, b), b)) > 1
                for r in _prime_divisors(k)):
            raise ReducibleModulusError(
                f"modulus {self._modulus_str()} is reducible (Rabin's test)"
            )
        _FINITE_FIELDS[self] = None


class RationalExtension(QuotientExtension):
    """QQ[x]/(m), such as a cyclotomic field QQ(q).  A payload is
    (n_0, ..., n_{k-1}, D), k = deg(m): integer numerators over one
    denominator D >= 1 with gcd(n_0, ..., D) = 1, so zero is (0, ..., 0, 1)
    and equal elements have equal payloads.  The modulus is certified by a
    rational-root test up to degree 3 (_rational_root_exists); from degree
    4 on it must be a cyclotomic polynomial Phi_m (_cyclotomic_index),
    which is irreducible.

    The arithmetic runs on the integer payloads alone and builds no
    Fraction: a sum or difference works on the numerators over the product
    of the two denominators; mul convolves the numerators of its one pair,
    and dots (dot is its one-pair case) those of vectors brought over one
    denominator each; both reduce by `_int_red_rows` and normalize each
    result with one gcd.  An inverse is fraction-free (Bareiss)
    Gauss-Jordan elimination on the integer multiplication matrix.  Only
    the coefficient boundary (from_coefficients, coefficients, parse,
    render) builds a Fraction.
    """

    order = None

    def from_coefficients(self, coeffs):
        """The payload whose coefficients, low to high, are the Fractions
        `coeffs`: the numerators over the lcm of the denominators, which is
        canonical."""
        den = math.lcm(*[c.denominator for c in coeffs])
        return tuple([c.numerator * (den // c.denominator) for c in coeffs] + [den])

    def coefficients(self, a) -> tuple:
        """The coefficients of payload `a`, low to high, as Fractions."""
        return tuple([Fraction(n, a[-1]) for n in a[:-1]])

    @cached_property
    def _int_red_rows(self):
        """_red_rows as integers: (D, rows) with each row scaled by D, the
        lcm of all their denominators (1 for Phi_n)."""
        dm = math.lcm(*(c.denominator for r in self._red_rows for c in r))
        return dm, [[c.numerator * (dm // c.denominator) for c in r]
                    for r in self._red_rows]

    def add(self, a, b):
        da, db = a[-1], b[-1]
        return _qq_normal([x * db + y * da for x, y in zip(a, b[:-1])], da * db)

    def sub(self, a, b):
        da, db = a[-1], b[-1]
        return _qq_normal([x * db - y * da for x, y in zip(a, b[:-1])], da * db)

    def neg(self, a):
        return tuple([-x for x in a[:-1]] + [a[-1]])

    def mul(self, a, b):
        """dot of the one pair, with no lcm or scaling: over D_a D_b dm."""
        k = self.deg
        conv = [0] * (2 * k - 1)
        y = b[:k]
        for i in range(k):
            xi = a[i]
            if xi:
                for j, yj in enumerate(y):
                    conv[i + j] += xi * yj
        return _qq_normal(self._int_reduce(conv), a[k] * b[k] * self._int_red_rows[0])

    def dot(self, xs, ys):
        return self.dots((xs,), (ys,))[0][0]

    def dots(self, xss, yss):
        """Each vector is brought over its own common denominator D once
        for the whole table: its nonzero entries' numerators scaled to D,
        the lcm of their denominators, and its zero entries marked None and
        skipped.  Each entry is then one convolution of the numerators and,
        unless it is zero, one reduction by _int_red_rows (rows scaled by
        dm) and one normalization of the sum over D_x D_y dm."""
        k, zero = self.deg, self.zero
        dm = self._int_red_rows[0]

        def over_lcm(xs):
            d = math.lcm(*[x[k] for x in xs])
            return [None if x == zero else x[:k] if x[k] == d
                    else [c * (d // x[k]) for c in x[:k]] for x in xs], d

        yss = [over_lcm(ys) for ys in yss]
        table = []
        for xs in xss:
            xs, dx = over_lcm(xs)
            xs = [(pos, x) for pos, x in enumerate(xs) if x is not None]
            row = []
            for ys, dy in yss:
                conv = [0] * (2 * k - 1)
                for pos, x in xs:
                    y = ys[pos]
                    if y is None:
                        continue
                    for i, xi in enumerate(x):
                        if xi:
                            for j, yj in enumerate(y):
                                conv[i + j] += xi * yj
                row.append(_qq_normal(self._int_reduce(conv), dx * dy * dm)
                           if any(conv) else zero)
            table.append(tuple(row))
        return table

    def inv(self, a):
        """1 / a, fraction-free.  With a = n(t) / D, the columns of the
        integer matrix M are dm n(t) t^j reduced (dm from _int_red_rows),
        and M v = dm D e_0 gives 1 / a = v.  Gauss-Jordan elimination of
        [M | dm D e_0] in Bareiss's form (row r becomes (p row_r - f row_c)
        / previous pivot, an exact division) ends with every diagonal entry
        equal to the last pivot p and the last column equal to p v."""
        if self.is_zero(a):
            raise DivisionByZeroError(f"inverse of 0 in {self}")
        k, n = self.deg, list(a[:-1])
        cols = [self._int_reduce([0] * j + n + [0] * (k - 1 - j)) for j in range(k)]
        m = [list(r) + [0] for r in zip(*cols)]
        m[0][k] = self._int_red_rows[0] * a[k]
        prev = 1
        for c in range(k):
            # M is invertible (the modulus is certified irreducible), so
            # some row at or below c has a nonzero entry in column c
            piv = next(r for r in range(c, k) if m[r][c])
            m[c], m[piv] = m[piv], m[c]
            p, pivot_row = m[c][c], m[c]
            for r in range(k):
                if r != c:
                    f = m[r][c]
                    m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], pivot_row)]
            prev = p
        sign = 1 if prev > 0 else -1
        return _qq_normal([sign * r[k] for r in m], sign * prev)

    def _int_reduce(self, conv) -> list:
        """The numerators, over dm (from _int_red_rows), of the integer
        polynomial conv (2k - 1 coefficients) reduced by the modulus."""
        k = self.deg
        dm, rows = self._int_red_rows
        out = [c * dm for c in conv[:k]] if dm != 1 else conv[:k]
        # x^(k + e) = rows[e] / dm
        for c, row in zip(conv[k:], rows):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def _check_irreducible(self):
        if self.deg <= 3:
            if _rational_root_exists(self.modulus):
                raise ReducibleModulusError(
                    f"modulus {self._modulus_str()} has a rational root"
                )
        # cyclotomic polynomials are irreducible over QQ
        elif _cyclotomic_index(self.modulus) is None:
            raise ReducibleModulusError(
                "cannot certify irreducibility of degree > 3 over QQ "
                "unless the modulus is cyclotomic"
            )


# --- polynomial helpers on low-to-high payload lists -------------------------

def _qq_normal(nums, den):
    """The canonical payload of the coefficients nums[i] / den, den >= 1:
    one gcd divides out the common factor.  Payload tuples are built from
    lists, never generators: a tuple built from a generator is allocated at
    one size and freed at another, so CPython's per-size tuple free lists
    would keep a block per call (0.6 MB more peak RSS in perfbench's
    pipeline)."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    nums.append(den)
    return tuple(nums)


def _poly_trim(p, b):
    zero = b.zero
    while p and p[-1] == zero:
        p.pop()
    return p


def _poly_divmod(p, q, b):
    rem = _poly_trim(list(p), b)
    q = _poly_trim(list(q), b)
    if not q:
        raise DivisionByZeroError("polynomial division by zero")
    mul, sub, zero, n = b.mul, b.sub, b.zero, len(q) - 1
    inv_lead = b.inv(q[-1])
    quot = [zero] * max(0, len(rem) - n)
    # clear rem's coefficients from the top down to degree n
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = mul(rem[k + n], inv_lead)
        if c != zero:
            for i in range(n):
                rem[k + i] = sub(rem[k + i], mul(c, q[i]))
    return _poly_trim(quot, b), _poly_trim(rem[:n], b)


def _poly_sub(p, q, b):
    pairs = itertools.zip_longest(p, q, fillvalue=b.zero)
    return _poly_trim([b.sub(x, y) for x, y in pairs], b)


def _poly_mulmod(p, q, f, b):
    """p q mod f, the product by schoolbook (for the small degrees here it
    is faster than one dot per coefficient)."""
    add, mul = b.add, b.mul
    prod = [b.zero] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            prod[i + j] = add(prod[i + j], mul(x, y))
    return _poly_divmod(prod, f, b)[1]


def _poly_powmod(p, e, f, b):
    """p^e mod f, e >= 1 and f nonzero, by repeated squaring."""
    if e == 1:
        return _poly_divmod(p, f, b)[1]
    half = _poly_powmod(p, e // 2, f, b)
    square = _poly_mulmod(half, half, f, b)
    return _poly_mulmod(square, p, f, b) if e & 1 else square


def _poly_gcd(p, q, b):
    """The monic gcd of p and q, not both zero."""
    p, q = _poly_trim(list(p), b), _poly_trim(list(q), b)
    while q:
        p, q = q, _poly_divmod(p, q, b)[1]
    c = b.inv(p[-1])
    return [b.mul(c, x) for x in p]


def _poly_roots(f, b) -> list:
    """The distinct roots in the finite field b of the nonzero polynomial f,
    as payloads sorted by payload (which is element_payloads order).

    g = gcd(f, x^q - x), q = |b|, is the product of x - r over those roots.
    When deg g > q / 2, so that q < 2 deg f, the roots are the elements,
    listed, less the roots of (x^q - x) / g, whose degree is below q / 2:
    in the small fields where a matrix has most elements as eigenvalues
    that costs a few products, not a split per root.  Otherwise each a of
    b, in element_payloads order (never listed), splits every factor h of g
    of degree >= 2 into gcd(h, s_a) and its cofactor, where in odd
    characteristic s_a = (x + a)^((q - 1) / 2) - 1 (zero at the roots r
    with r + a a nonzero square) and in characteristic 2
    s_a = sum of (a x)^(2^i), i < log2 q (the trace of a r at each root r).
    Some a separates any two roots r1 != r2: in odd characteristic
    (r1 + a) / (r2 + a) = 1 + (r1 - r2) / (r2 + a) takes every value but 1,
    a nonsquare among them, and in characteristic 2 a (r1 - r2) runs over b,
    whose trace is 1 on half of it.  So the factors are linear after at most
    q values of a, usually a few."""
    x = [b.zero, b.one]
    g = _poly_gcd(f, _poly_sub(_poly_powmod(x, b.order, f, b), x, b), b)
    if 2 * (len(g) - 1) > b.order:
        x_q_minus_x = _poly_sub([b.zero] * b.order + [b.one], x, b)
        others = set(_poly_roots(_poly_divmod(x_q_minus_x, g, b)[0], b))
        return [r for r in b.element_payloads() if r not in others]
    roots, todo, elems = [], [g], b.element_payloads()
    while True:
        roots += [b.neg(h[0]) for h in todo if len(h) == 2]
        todo = [h for h in todo if len(h) > 2]
        if not todo:
            return sorted(roots)
        a = next(elems)
        todo = [part for h in todo for part in _poly_split(h, a, b)]


def _poly_split(h, a, b) -> list:
    """[gcd(h, s_a), its cofactor] for _poly_roots, or [h] when that gcd
    is 1 or h."""
    q = b.order
    if q % 2:
        s = _poly_sub(_poly_powmod([a, b.one], q // 2, h, b), [b.one], b)
    else:
        y = s = [b.zero, a]
        for _ in range(q.bit_length() - 2):
            y = _poly_mulmod(y, y, h, b)
            s = _poly_sub(s, y, b)  # in characteristic 2, - is +
    d = _poly_gcd(h, s, b)
    return [d, _poly_divmod(h, d, b)[0]] if 1 < len(d) < len(h) else [h]


def _rational_root_exists(m) -> bool:
    """Whether the monic QQ polynomial m (low to high) of degree 2 or 3 has
    a rational root, in a number of steps linear in its coefficients' bit
    lengths (listing divisors of the constant term would not finish for a
    large one).

    Degree 2: the discriminant is a rational square.  Degree 3: with L the
    lcm of the denominators, x = L t turns m into the monic integer cubic
    f(x) = x^3 + a2 x^2 + a1 x + a0, whose rational roots are integers
    (the rational root theorem) of absolute value at most
    1 + max(|a0|, |a1|, |a2|) (Cauchy's bound).  f is monotone between the
    critical points c1 <= c2, (-a2 -+ sqrt(D)) / 3 with D = a2^2 - 3 a1,
    so each monotone piece is bisected for an integer root.  With
    s = isqrt(D), s <= sqrt(D) < s + 1 gives
    (-a2 - s - 1) / 3 < c1 <= (-a2 - s) / 3, and as 3x is an integer for
    an integer x, the integers up to e1 = floor((-a2 - s - 1) / 3) lie
    below c1 and those from e1 + 1 on at or above it; likewise
    e2 = floor((-a2 + s) / 3) <= c2 < e2 + 1.  So f increases on the
    integers up to e1, decreases from e1 + 1 to e2 and increases from
    e2 + 1.  When D <= 0, f increases everywhere, and s = 0 leaves at most
    one integer from e1 + 1 to e2.
    """
    if len(m) == 3:
        disc = m[1] * m[1] - 4 * m[0]
        return disc >= 0 and all(math.isqrt(n) ** 2 == n
                                 for n in (disc.numerator, disc.denominator))
    lcm = math.lcm(*[c.denominator for c in m])
    a0, a1, a2 = [int(c * lcm ** (3 - i)) for i, c in enumerate(m[:3])]

    def f(x):
        return ((x + a2) * x + a1) * x + a0

    bound = 1 + max(abs(a0), abs(a1), abs(a2))
    s = math.isqrt(max(a2 * a2 - 3 * a1, 0))
    e1, e2 = (-a2 - s - 1) // 3, (-a2 + s) // 3
    return (_bisect_root(f, -bound, e1, 1) or _bisect_root(f, e1 + 1, e2, -1)
            or _bisect_root(f, e2 + 1, bound, 1))


def _bisect_root(f, lo, hi, sign) -> bool:
    """Whether f, increasing (sign 1) or decreasing (sign -1) on the
    integers lo .. hi, has a root among them."""
    while lo < hi:
        mid = (lo + hi) // 2
        if sign * f(mid) < 0:
            lo = mid + 1
        else:
            hi = mid
    return lo == hi and f(lo) == 0


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0 and cur:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


# --- elements ----------------------------------------------------------------

class FieldElement:
    """An exact element of a field, compared structurally."""

    __slots__ = ("spec", "payload")

    def __init__(self, spec: FieldSpec, payload):
        self.spec = spec
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            # identity first: fields are compared by value only when distinct
            if other.spec is not self.spec and other.spec != self.spec:
                raise MixedFieldsError(
                    f"cannot mix elements of {self.spec} and {other.spec}"
                )
            return other.payload
        if isinstance(other, int) and not isinstance(other, bool):
            return self.spec.from_int(other)
        return NotImplemented

    def __add__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(self.payload, p))

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub(p, self.payload))

    def __mul__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul(self.payload, p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.div(self.payload, p))

    def __rtruediv__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.div(p, self.payload))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.payload))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        spec = self.spec
        base = self.payload
        if n < 0:
            base = spec.inv(base)
            n = -n
        acc = spec.one
        while n:
            if n & 1:
                acc = spec.mul(acc, base)
            base = spec.mul(base, base)
            n >>= 1
        return FieldElement(spec, acc)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.payload))

    def is_zero(self) -> bool:
        return self.spec.is_zero(self.payload)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (
                self.spec is other.spec or self.spec == other.spec
            ) and self.payload == other.payload
        if isinstance(other, int) and not isinstance(other, bool):
            return self.payload == self.spec.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.payload))

    def __str__(self):
        return self.spec.render(self.payload)

    def __repr__(self):
        return f"<{self.spec.render(self.payload)} in {self.spec}>"

    def lift(self, ext: FieldSpec) -> "FieldElement":
        """Embed this element into `ext`, which is its own field (the element
        is returned unchanged) or a quotient extension of it."""
        if ext is self.spec or ext == self.spec:
            return self
        if not isinstance(ext, QuotientExtension) or ext.base != self.spec:
            raise MixedFieldsError(f"{ext} does not extend {self.spec}")
        return FieldElement(ext, ext.embed(self.payload))


class JsonFields:
    """Mixin for a result dataclass whose JSON document maps each field
    name to the field's rendered value.  Rendering is recursive: a
    FieldElement becomes its string, an Enum its value, a list or tuple the
    list of its rendered items, and an object with to_json that document;
    anything else (str, int, bool, None, dict) stays as is.  Keys follow
    the dataclass's field order, so a writer that needs stable bytes sorts
    keys, as every writer in circhess does."""

    def to_json(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(x):
    if isinstance(x, FieldElement):
        return str(x)
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    return x.to_json() if hasattr(x, "to_json") else x


def dump_json(doc) -> str:
    """What `json.dumps` writes with an indent of 2 and sorted keys, byte
    for byte, for a document with str keys; the one indented writer in
    circhess.  CPython's json leaves its C encoder whenever an indent is
    set; this writer types each value in json's own order, escapes strings
    with json's C escaper and writes a list of strings only (a matrix row)
    in one join.  A non-str key, or a value of any other type, is a
    TypeError."""
    out: list[str] = []
    _dump(doc, out, "\n")
    return "".join(out)


def _dump(o, out: list, nl: str):
    # nl is the newline and indent that close o's own level
    if isinstance(o, str):
        out.append(_escape(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(json.dumps(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        for x in o:
            if not isinstance(x, str):
                break
        else:  # strings only
            out.append("[" + inner + ("," + inner).join(map(_escape, o)) + nl + "]")
            return
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _dump(x, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _escape(k) + ": ")  # TypeError unless k is a str
            _dump(o[k], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# --- constructors and roots of unity -----------------------------------------

def rationals() -> Rationals:
    return Rationals()


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def quotient_extension(base: FieldSpec, modulus, gen: str = "t") -> QuotientExtension:
    """Build base[x]/(m).  `modulus` is a low-to-high list of ints, Fractions,
    payloads, or base elements, with leading coefficient 1."""
    coeffs = [base.element(c).payload if isinstance(c, (FieldElement, int, Fraction, str))
              else c for c in modulus]
    return QuotientExtension(base, tuple(coeffs), gen)


def euler_phi(n: int) -> int:
    out = n
    for p in _prime_divisors(n):
        out -= out // p
    return out


def cyclotomic_polynomial(n: int) -> list[Fraction]:
    """Coefficients (low-to-high) of the n-th cyclotomic polynomial.

    Built from Phi_1 = x - 1 by Phi_kp(x) = Phi_k(x^p) / Phi_k(x) for each
    prime p dividing n (p not dividing k), which gives Phi_r for the
    product r of those primes; then Phi_n(x) = Phi_r(x^(n/r)).
    """
    b = Rationals()
    poly = [Fraction(-1), Fraction(1)]
    r = 1
    for p in _prime_divisors(n):
        stretched = [Fraction(0)] * ((len(poly) - 1) * p + 1)
        stretched[::p] = poly
        poly, _ = _poly_divmod(stretched, poly, b)
        r *= p
    out = [Fraction(0)] * ((len(poly) - 1) * (n // r) + 1)
    out[:: n // r] = poly
    return out


def _cyclotomic_index(modulus) -> int | None:
    """The m with modulus = Phi_m (coefficients low to high), or None.

    Phi_m has degree euler_phi(m), so only the m with euler_phi(m) = deg
    are tested; euler_phi(m) >= sqrt(m / 2) bounds them by 2 deg^2.

    For an extension of QQ this is also the order of the generator as a
    root of unity: a generator of order m has Phi_m as its minimal
    polynomial, which is the modulus, and conversely.
    """
    n = len(modulus) - 1
    for m in range(1, 2 * n * n + 1):
        if euler_phi(m) == n and tuple(cyclotomic_polynomial(m)) == tuple(modulus):
            return m
    return None


def cyclotomic_field(n: int, gen: str = "t") -> QuotientExtension:
    """QQ[t]/(Phi_n); the generator is a primitive n-th root of unity.

    The degree is cross-checked against Euler's totient; the modulus is
    then certified like any other over QQ (a rational root test, and from
    degree 4 on its recognition as Phi_m by _cyclotomic_index).
    """
    if n < 3:
        raise NoSuchRootError("cyclotomic extensions need n >= 3")
    phi = cyclotomic_polynomial(n)
    if len(phi) - 1 != euler_phi(n):
        raise ReducibleModulusError(f"Phi_{n} degree != euler_phi({n})")
    return QuotientExtension(Rationals(), tuple(phi), gen)


def primitive_root_of_unity(
    spec: FieldSpec, n: int, allow_extension: bool = False
) -> FieldElement:
    """Return q with q^n = 1 and q^k != 1 for 1 <= k < n.

    Over a finite field of q elements with n | q - 1 the answer is the
    least element of order n by payload, which is element_payloads order.
    Those elements are exactly the roots of Phi_n, since p divides no
    divisor of q - 1.  Which way finds it is a cost choice between two
    estimates.  Scanning the group meets the first of its phi(n) elements
    of order n after about (q - 1) / phi(n) elements, at O(log n) products
    each.  _poly_roots of Phi_n costs O(phi(n)^2) products per squaring,
    over O(log q) squarings.  With the log factors taken alike, the roots
    are cheaper when phi(n)^3 < q - 1: order-4 roots in GF(10^9 + 9) take
    a few products, not a scan of the field.  The Zech-table generator
    (n = q - 1 > 2, elements of order n dense) always scans, because
    phi(n)^3 >= n there.  Over QQ a fresh cyclotomic
    extension is constructed and its generator returned.  When n does not
    divide the group order and allow_extension is set, the smallest quotient
    extension containing such a root is constructed (prime-field base only)
    and the least root of Phi_n in it, by payload, is returned: found by
    _poly_roots among the roots of Phi_n, not by scanning the extension.
    """
    if n < 2:
        raise NoSuchRootError("n must be >= 2")
    if isinstance(spec, Rationals):
        return cyclotomic_field(n).generator()
    if isinstance(spec, RationalExtension):
        # an infinite field (cyclotomic over QQ): look among generator powers
        m = _cyclotomic_index(spec.modulus)
        if m is not None and m % n == 0:
            return spec.generator() ** (m // n)
        raise NoSuchRootError(f"no primitive {n}-th root found in {spec}")
    group = spec.order - 1
    if group % n == 0:
        # the cheaper way, by the cost estimates in the docstring
        if euler_phi(n) ** 3 < group:
            phi = [spec.from_int(int(c)) for c in cyclotomic_polynomial(n)]
            return FieldElement(spec, _poly_roots(phi, spec)[0])
        pds = _prime_divisors(n)
        for p in spec.element_payloads():
            if spec.is_zero(p):
                continue
            e = FieldElement(spec, p)
            if (e**n).payload != spec.one:
                continue
            if all((e ** (n // pd)).payload != spec.one for pd in pds):
                return e
        raise NoSuchRootError(f"no element of order {n} in {spec}")
    if not allow_extension:
        raise NoSuchRootError(
            f"{n} does not divide |{spec}^x| = {group} "
            "(extension construction disabled)"
        )
    if not isinstance(spec, PrimeField):
        raise NoSuchRootError("extension search supported over prime fields only")
    p = spec.p
    if n % p == 0:
        raise NoSuchRootError(
            f"no extension of GF({p}) has an element of order {n}: "
            f"the characteristic {p} divides {n}"
        )
    # GF(p^k)^x is cyclic of order p^k - 1, so the least such k is the
    # multiplicative order of p modulo n
    k, power = 1, p % n
    while power != 1:
        k, power = k + 1, power * p % n
    # p does not divide n, so the elements of order n are the roots of Phi_n
    ext = _find_extension_field(spec, k)
    phi = [ext.from_int(int(c)) for c in cyclotomic_polynomial(n)]
    return FieldElement(ext, _poly_roots(phi, ext)[0])


def _find_extension_field(base: PrimeField, k: int) -> QuotientExtension:
    """Smallest-lexicographic monic irreducible of degree k >= 2 over GF(p),
    with the constant term varying slowest.  Every candidate with constant
    term 0 is divisible by x, so the enumeration starts at c0 = 1; each
    candidate is certified by Rabin's test, so no (p, k) is refused."""
    for tail in itertools.product(range(1, base.p), *[range(base.p)] * (k - 1)):
        coeffs = tuple(tail) + (1,)
        try:
            return QuotientExtension(base, coeffs, gen="s")
        except ReducibleModulusError:
            continue
    raise NoSuchRootError(f"no irreducible of degree {k} over {base}")


# --- descriptors --------------------------------------------------------------

def field_from_string(s: str) -> FieldSpec:
    """Parse the CLI field grammar: rat | gf:p | ext:gf:p:c0,c1,... | cyclo:n."""
    parts = s.strip().split(":")
    try:
        if parts == ["rat"]:
            return Rationals()
        if parts[0] == "gf" and len(parts) == 2:
            return PrimeField(int(parts[1]))
        if parts[0] == "ext" and len(parts) == 4 and parts[1] == "gf":
            base = PrimeField(int(parts[2]))
            coeffs = [int(c) for c in parts[3].split(",")]
            return quotient_extension(base, coeffs, gen="w")
        if parts[0] == "cyclo" and len(parts) == 2:
            return cyclotomic_field(int(parts[1]))
    except (ValueError, NotPrimeError, ReducibleModulusError, NoSuchRootError) as e:
        raise ParseError(f"bad field descriptor {s!r}: {e}") from e
    raise ParseError(f"bad field descriptor {s!r}")


def field_to_string(spec: FieldSpec) -> str:
    if isinstance(spec, Rationals):
        return "rat"
    if isinstance(spec, PrimeField):
        return f"gf:{spec.p}"
    if isinstance(spec, QuotientExtension):
        if isinstance(spec.base, PrimeField):
            coeffs = ",".join(spec.base.render(c) for c in spec.modulus)
            return f"ext:gf:{spec.base.p}:{coeffs}"
        if isinstance(spec.base, Rationals):
            m = _cyclotomic_index(spec.modulus)
            if m is not None:
                return f"cyclo:{m}"
    raise ParseError(f"no string form for {spec}")


def _json_fields(d, *keys) -> list:
    """The values under `keys` of the JSON object `d`, or ParseError when
    `d` is not an object or lacks one of them."""
    if not isinstance(d, dict):
        raise ParseError(f"expected a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ParseError(f"JSON object lacks {', '.join(map(repr, missing))}")
    return [d[k] for k in keys]


def field_from_json(d: dict) -> FieldSpec:
    (kind,) = _json_fields(d, "kind")
    try:
        if kind == "rationals":
            return Rationals()
        if kind == "prime":
            (p,) = _json_fields(d, "p")
            if type(p) is not int:
                raise ParseError(f"prime field p must be a JSON integer, got {p!r}")
            return PrimeField(p)
        if kind == "extension":
            base_json, modulus = _json_fields(d, "base", "modulus")
            base = field_from_json(base_json)
            coeffs = tuple(base.parse(c) for c in modulus)
            return QuotientExtension(base, coeffs, d.get("generator", "t"))
    except (TypeError, ValueError, NotPrimeError, ReducibleModulusError) as e:
        raise ParseError(f"bad field JSON {d!r}: {e}") from e
    raise ParseError(f"bad field JSON {d!r}")
