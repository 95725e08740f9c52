"""Table arithmetic of finite quotient extensions (Zech logarithms) and the
integer kernel of extensions of QQ against a test-local schoolbook
reference, and when the tables are built."""

import itertools
import random
from fractions import Fraction

import pytest

from circhess import field_from_string, prime_field, quotient_extension, rationals
from circhess.errors import DivisionByZeroError, MixedFieldsError
from circhess.fields import FACTOR_SEARCH_BUDGET, PrimeField, Rationals


class Schoolbook:
    """Reference payload arithmetic, recursive on the base field down to
    GF(p) (residues mod p) or QQ (exact Fraction +, - and x): sums
    coefficient by coefficient, the full polynomial product reduced by long
    division by the monic modulus, and inverses as a^(q - 2)."""

    def __init__(self, spec):
        self.spec = spec
        self.zero, self.one = spec.zero, spec.one
        leaf = isinstance(spec, (PrimeField, Rationals))
        self.base = None if leaf else Schoolbook(spec.base)

    def _leaf(self, x):
        return x % self.spec.p if isinstance(self.spec, PrimeField) else x

    def add(self, a, b):
        if self.base is None:
            return self._leaf(a + b)
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        if self.base is None:
            return self._leaf(-a)
        return tuple(self.base.neg(x) for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.base is None:
            return self._leaf(a * b)
        bs, m, k = self.base, self.spec.modulus, self.spec.deg
        prod = [bs.zero] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = bs.add(prod[i + j], bs.mul(x, y))
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            for i, mi in enumerate(m):
                prod[top - k + i] = bs.sub(prod[top - k + i], bs.mul(c, mi))
        return tuple(prod[:k])

    def inv(self, a):
        acc, e = self.one, self.spec.order - 2
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a, e = self.mul(a, a), e >> 1
        return acc

    def dot(self, xs, ys):
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, y))
        return acc


def _gf16_tower():
    """The quadratic extension of GF(4) from test_fields.test_tower_roundtrip."""
    gf4 = field_from_string("ext:gf:2:1,1,1")
    one = gf4.one_element()
    return quotient_extension(gf4, [gf4.generator(), one, one], gen="s")


def _check_unary(spec, ref, a):
    assert spec.neg(a) == ref.neg(a)
    assert spec.is_zero(a) == (a == ref.zero)
    if a != ref.zero:
        assert spec.inv(a) == ref.inv(a)


def _check_pair(spec, ref, a, b):
    assert spec.add(a, b) == ref.add(a, b)
    assert spec.sub(a, b) == ref.sub(a, b)
    assert spec.mul(a, b) == ref.mul(a, b)


def _check_dots(spec, ref, payloads, rng):
    zero = ref.zero
    for _ in range(200):
        n = rng.randrange(8)
        # every third entry zero, so the log-domain sum meets zero terms
        xs = [rng.choice(payloads) if rng.randrange(3) else zero for _ in range(n)]
        ys = [rng.choice(payloads) for _ in range(n)]
        assert spec.dot(xs, ys) == ref.dot(xs, ys)
    # a sum that cancels to zero and then grows again: a - a + b
    a, b = payloads[-1], payloads[-2]
    one, minus_one = ref.one, ref.neg(ref.one)
    assert spec.dot([a, a, b], [one, minus_one, one]) == b


FULL_PAIR_FIELDS = {
    "GF(4)": "ext:gf:2:1,1,1",
    "GF(8)": "ext:gf:2:1,1,0,1",
    "GF(9)": "ext:gf:3:1,0,1",
    "GF(25)": "ext:gf:5:2,0,1",
}


@pytest.mark.parametrize("desc", FULL_PAIR_FIELDS.values(), ids=FULL_PAIR_FIELDS.keys())
def test_table_ops_match_schoolbook_on_every_pair(desc):
    spec = field_from_string(desc)
    ref = Schoolbook(spec)
    payloads = list(spec.element_payloads())
    for a in payloads:
        _check_unary(spec, ref, a)
    for a, b in itertools.product(payloads, repeat=2):
        _check_pair(spec, ref, a, b)
    _check_dots(spec, ref, payloads, random.Random(1201))
    assert vars(spec)["_tables"] is not None  # the ops above ran on the tables


SAMPLED_FIELDS = {
    "GF(3^5)": lambda: quotient_extension(prime_field(3), [1, 2, 0, 0, 0, 1]),
    "GF(16) over GF(4)": _gf16_tower,
}


@pytest.mark.parametrize("make", SAMPLED_FIELDS.values(), ids=SAMPLED_FIELDS.keys())
def test_table_ops_match_schoolbook_on_a_sample(make):
    spec = make()
    ref = Schoolbook(spec)
    payloads = list(spec.element_payloads())
    rng = random.Random(1202)
    for a in rng.sample(payloads, min(60, len(payloads))) + [spec.zero, spec.one]:
        _check_unary(spec, ref, a)
    for _ in range(1500):
        _check_pair(spec, ref, rng.choice(payloads), rng.choice(payloads))
    _check_dots(spec, ref, payloads, rng)
    assert vars(spec)["_tables"] is not None


@pytest.mark.parametrize("desc", FULL_PAIR_FIELDS.values(), ids=FULL_PAIR_FIELDS.keys())
def test_inverse_of_zero_still_raises(desc):
    spec = field_from_string(desc)
    for _ in range(spec.order - 1):  # build the tables first
        spec.mul(spec.one, spec.one)
    assert vars(spec)["_tables"] is not None
    with pytest.raises(DivisionByZeroError):
        spec.inv(spec.zero)
    with pytest.raises(DivisionByZeroError):
        spec.one_element() / spec.zero_element()
    with pytest.raises(DivisionByZeroError):
        spec.zero_element() ** -1


def test_tables_are_built_on_the_q_minus_1st_operation():
    spec = field_from_string("ext:gf:3:1,0,1")  # q = 9
    assert "_tables" not in vars(spec)
    w = spec.generator()
    assert "_tables" not in vars(spec)
    for _ in range(7):
        assert w * w == -1
    assert "_tables" not in vars(spec)  # 7 products on the coefficient path
    assert w * w == -1
    assert vars(spec)["_tables"] is not None


def test_short_computation_in_a_large_field_builds_no_tables():
    # x^17 + x^3 + 1 over GF(2): q = 2^17 is within the budget, but a few
    # hundred operations cost far less than the 2^17 - 1 table rows
    spec = quotient_extension(prime_field(2), [1, 0, 0, 1] + [0] * 13 + [1])
    assert spec.order == 131_072 <= FACTOR_SEARCH_BUDGET
    ref = Schoolbook(spec)
    rng = random.Random(1204)

    def draw():
        return tuple(rng.randrange(2) for _ in range(spec.deg))

    for _ in range(10):
        _check_unary(spec, ref, draw())
    for _ in range(100):
        _check_pair(spec, ref, draw(), draw())
    assert "_tables" not in vars(spec)
    assert 0 < vars(spec)["_coeff_ops"] < spec.order - 1


def test_cyclotomic_field_never_builds_tables():
    spec = field_from_string("cyclo:4")
    t = spec.generator()
    assert t * t + 1 == 0 and (t + 1).inverse() * (t + 1) == 1
    assert vars(spec)["_tables"] is None


def test_field_above_budget_stays_on_coefficient_path():
    # x^18 + x^15 + 1 over GF(2): q = 2^18 exceeds the budget
    spec = quotient_extension(prime_field(2), [1] + [0] * 14 + [1, 0, 0, 1])
    assert spec.order == 262_144 > FACTOR_SEARCH_BUDGET
    ref = Schoolbook(spec)
    rng = random.Random(1203)

    def draw():
        return tuple(rng.randrange(2) for _ in range(spec.deg))

    for _ in range(10):
        _check_unary(spec, ref, draw())
    for _ in range(100):
        _check_pair(spec, ref, draw(), draw())
    xs, ys = [draw() for _ in range(6)], [draw() for _ in range(6)]
    assert spec.dot(xs, ys) == ref.dot(xs, ys)
    assert vars(spec)["_tables"] is None


def test_equal_fields_built_twice_mix_and_still_refuse_others():
    f, g = field_from_string("ext:gf:3:1,0,1"), field_from_string("ext:gf:3:1,0,1")
    assert f is not g and f == g
    a, b = f.generator(), g.generator()
    assert a * b == f.element(-1) and a == b and hash(a) == hash(b)
    assert b.lift(f) is b
    other = field_from_string("ext:gf:2:1,1,1")
    with pytest.raises(MixedFieldsError):
        a + other.generator()
    assert a != other.generator()


QQ_EXTENSIONS = {
    "cyclo:4": lambda: field_from_string("cyclo:4"),
    "cyclo:12": lambda: field_from_string("cyclo:12"),
    # a modulus with a non-integer coefficient: x^2 = 1/2
    "QQ[t]/(t^2 - 1/2)": lambda: quotient_extension(
        rationals(), [Fraction(-1, 2), 0, 1]),
    # odd degree and not cyclotomic: certified by the rational-root test
    "QQ[t]/(t^3 - 2)": lambda: quotient_extension(rationals(), [-2, 0, 0, 1]),
}


def _all_fractions(payload):
    return all(type(c) is Fraction for c in payload)


@pytest.mark.parametrize("make", QQ_EXTENSIONS.values(), ids=QQ_EXTENSIONS.keys())
def test_rational_extension_ops_match_schoolbook(make):
    """The integer kernel (one common denominator per side, integer
    convolution and reduction, one Fraction per output coefficient) against
    exact Fraction schoolbook arithmetic, on seeded payloads with mixed
    denominators and zero entries."""
    spec = make()
    ref = Schoolbook(spec)
    rng = random.Random(1401)
    dens = (1, 1, 2, 3, 4, 5, 7, 12)

    def draw():
        if not rng.randrange(8):
            return spec.zero
        return tuple(Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.randrange(4)
                     else Fraction(0) for _ in range(spec.deg))

    for _ in range(300):
        a, b = draw(), draw()
        for op in ("add", "sub", "mul"):
            got = getattr(spec, op)(a, b)
            assert got == getattr(ref, op)(a, b) and _all_fractions(got)
        assert spec.neg(a) == ref.neg(a) and _all_fractions(spec.neg(a))
        if a != spec.zero:
            inv = spec.inv(a)
            assert spec.mul(a, inv) == spec.one and _all_fractions(inv)
    for _ in range(200):
        n = rng.randrange(8)
        xs, ys = [draw() for _ in range(n)], [draw() for _ in range(n)]
        got = spec.dot(xs, ys)
        assert got == ref.dot(xs, ys) and _all_fractions(got)
    # a sum that cancels to zero, then one that cancels to an integer
    a, b = draw(), (Fraction(1, 3),) + (Fraction(0),) * (spec.deg - 1)
    one, minus_one = ref.one, ref.neg(ref.one)
    got = spec.dot([a, a, b, b, b], [one, minus_one, one, one, one])
    assert got == spec.one and _all_fractions(got)
    got = spec.dot([a, a], [one, minus_one])
    assert got == spec.zero and _all_fractions(got)
    assert vars(spec)["_tables"] is None
