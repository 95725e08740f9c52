"""Table arithmetic of finite quotient extensions (Zech logarithms) and the
integer kernel of extensions of QQ against a test-local schoolbook
reference, and when the tables are built."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from circhess import field_from_string, prime_field, quotient_extension, rationals
from circhess.errors import DivisionByZeroError, MixedFieldsError, ReducibleModulusError
from circhess.fields import ZECH_TABLE_CAP, FieldElement, PrimeField, Rationals


class Schoolbook:
    """Reference arithmetic on coefficient tuples, recursive on the base
    field down to GF(p) (residues mod p) or QQ (exact Fraction +, - and x):
    sums coefficient by coefficient, the full polynomial product reduced by
    long division by the monic modulus, and inverses as a^(q - 2).  Over a
    finite base the tuples are the payloads; over QQ they are what
    `coefficients` returns."""

    def __init__(self, spec):
        self.spec = spec
        leaf = isinstance(spec, (PrimeField, Rationals))
        self.base = None if leaf else Schoolbook(spec.base)
        if leaf:
            self.zero, self.one = spec.zero, spec.one
        else:
            pad = (self.base.zero,) * (spec.deg - 1)
            self.zero, self.one = pad + (self.base.zero,), (self.base.one,) + pad

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
    _check_dot_tables(spec, ref, payloads, rng)


def _check_dot_tables(spec, ref, payloads, rng):
    """spec.dots against the reference's dot of each pair: zero entries,
    all-zero vectors, cancelling sums and empty sides."""
    zero = ref.zero

    def vec(n):
        return [rng.choice(payloads) if rng.randrange(3) else zero for _ in range(n)]

    def pairwise(xss, yss):
        return [tuple(ref.dot(xs, ys) for ys in yss) for xs in xss]

    for _ in range(30):
        n = rng.randrange(7)
        xss = [vec(n) for _ in range(rng.randrange(5))] + [[zero] * n]
        yss = [vec(n) for _ in range(rng.randrange(5))]
        assert spec.dots(xss, yss) == pairwise(xss, yss)
    a, b = payloads[-1], payloads[-2]
    one, minus_one = ref.one, ref.neg(ref.one)
    xss = [[a, a, b], [a, a, zero]]
    yss = [[one, minus_one, one], [minus_one, one, zero]]
    assert spec.dots(xss, yss) == [(b, zero), (zero, zero)] == pairwise(xss, yss)
    assert spec.dots([], yss) == [] and spec.dots(xss, []) == [(), ()]


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
    # x^17 + x^3 + 1 over GF(2): q = 2^17 is within the cap, but a few
    # hundred operations cost far less than the 2^17 - 1 table rows
    spec = quotient_extension(prime_field(2), [1, 0, 0, 1] + [0] * 13 + [1])
    assert spec.order == 131_072 <= ZECH_TABLE_CAP
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


def test_dots_before_the_tables_are_built():
    """Before GF(9)'s eighth operation dots takes the coefficient path, one
    dot per entry, each counted towards the build."""
    spec = field_from_string("ext:gf:3:1,0,1")  # q = 9
    ref = Schoolbook(spec)
    payloads = list(spec.element_payloads())
    xss, yss = [payloads[8:5:-1], payloads[1:4]], [payloads[2:5], payloads[4:7]]
    assert spec.dots(xss, yss) == [tuple(ref.dot(x, y) for y in yss) for x in xss]
    assert "_tables" not in vars(spec) and vars(spec)["_coeff_ops"] == 4
    assert spec.dots([[spec.zero] * 3], [payloads[1:4]]) == [(spec.zero,)]
    assert "_tables" not in vars(spec) and vars(spec)["_coeff_ops"] == 5


def test_cyclotomic_field_never_builds_tables():
    spec = field_from_string("cyclo:4")
    t = spec.generator()
    assert t * t + 1 == 0 and (t + 1).inverse() * (t + 1) == 1
    assert "_tables" not in vars(spec)


def test_field_above_budget_stays_on_coefficient_path():
    # x^18 + x^15 + 1 over GF(2): q = 2^18 exceeds the cap
    spec = quotient_extension(prime_field(2), [1] + [0] * 14 + [1, 0, 0, 1])
    assert spec.order == 262_144 > ZECH_TABLE_CAP
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
    _check_dot_tables(spec, ref, [draw() for _ in range(20)], rng)
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


def _canonical(payload):
    """The payload form of an extension of QQ: ints (n_0, ..., n_{k-1}, D)
    with D >= 1 and no factor common to all of them."""
    return (all(type(c) is int for c in payload) and payload[-1] >= 1
            and math.gcd(*payload) == 1)


@pytest.mark.parametrize("make", QQ_EXTENSIONS.values(), ids=QQ_EXTENSIONS.keys())
def test_rational_extension_ops_match_schoolbook(make):
    """The integer kernel (numerators over one denominator per payload,
    integer convolution and reduction, one normalization per result, a
    fraction-free inverse) against exact Fraction schoolbook arithmetic on
    the coefficients, on seeded payloads with mixed denominators and zero
    entries; every result is in canonical form."""
    spec = make()
    ref = Schoolbook(spec)
    rng = random.Random(1401)
    dens = (1, 1, 2, 3, 4, 5, 7, 12)
    pay, coeffs = spec.from_coefficients, spec.coefficients

    def draw():
        if not rng.randrange(8):
            return ref.zero
        return tuple(Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.randrange(4)
                     else Fraction(0) for _ in range(spec.deg))

    for _ in range(300):
        a, b = draw(), draw()
        pa, pb = pay(a), pay(b)
        assert _canonical(pa) and coeffs(pa) == a
        for op in ("add", "sub", "mul"):
            got = getattr(spec, op)(pa, pb)
            assert coeffs(got) == getattr(ref, op)(a, b) and _canonical(got)
        assert coeffs(spec.neg(pa)) == ref.neg(a) and _canonical(spec.neg(pa))
        if a != ref.zero:
            inv = spec.inv(pa)
            assert spec.mul(pa, inv) == spec.one and _canonical(inv)
            assert ref.mul(a, coeffs(inv)) == ref.one
    for _ in range(200):
        n = rng.randrange(8)
        xs, ys = [draw() for _ in range(n)], [draw() for _ in range(n)]
        got = spec.dot([pay(x) for x in xs], [pay(y) for y in ys])
        assert coeffs(got) == ref.dot(xs, ys) and _canonical(got)
    # a sum that cancels to zero, then one that cancels to an integer
    a, b = draw(), (Fraction(1, 3),) + (Fraction(0),) * (spec.deg - 1)
    a, b, one, minus_one = pay(a), pay(b), spec.one, spec.neg(spec.one)
    got = spec.dot([a, a, b, b, b], [one, minus_one, one, one, one])
    assert got == spec.one and _canonical(got)
    got = spec.dot([a, a], [one, minus_one])
    assert got == spec.zero and _canonical(got)
    assert "_tables" not in vars(spec)


def _fractions(rng, n):
    """n seeded coefficients: zeros, integers and proper fractions of
    either sign."""
    return [Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3, 7, 30)))
            if rng.randrange(4) else Fraction(0) for _ in range(n)]


@pytest.mark.parametrize("make", QQ_EXTENSIONS.values(), ids=QQ_EXTENSIONS.keys())
def test_rational_extension_render_prints_each_fraction(make):
    """render prints coefficient i exactly as str(Fraction) does, so output
    bytes do not depend on the payload form."""
    spec = make()
    rng = random.Random(1402)
    for _ in range(300):
        cs = _fractions(rng, spec.deg)
        terms = [str(c) if i == 0 else f"{c}*{spec.gen}" if i == 1
                 else f"{c}*{spec.gen}^{i}" for i, c in enumerate(cs)]
        assert spec.render(spec.from_coefficients(cs)) == "+".join(terms)


@pytest.mark.parametrize("make", QQ_EXTENSIONS.values(), ids=QQ_EXTENSIONS.keys())
def test_rational_extension_boundary_round_trips(make):
    """from_coefficients / coefficients, parse / render, embed / lift and
    from_int agree with each other and keep payloads canonical."""
    spec = make()
    rng = random.Random(1403)
    qq = rationals()
    zeros = (Fraction(0),) * (spec.deg - 1)
    for _ in range(300):
        cs = tuple(_fractions(rng, spec.deg))
        a = spec.from_coefficients(cs)
        assert _canonical(a) and spec.coefficients(a) == cs
        assert spec.parse(spec.render(a)) == a
        assert spec.element(spec.render(a)).payload == a
        x = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
        lifted = qq.element(x).lift(spec)
        assert lifted.payload == spec.embed(x) and _canonical(lifted.payload)
        assert spec.coefficients(lifted.payload) == (x,) + zeros
        assert spec.element(x) == lifted
        k = rng.randint(-10**20, 10**20)
        assert spec.from_int(k) == spec.embed(Fraction(k)) == (k,) + (0,) * (spec.deg - 1) + (1,)
        assert spec.coefficients(spec.from_int(k)) == (Fraction(k),) + zeros
    assert spec.zero == (0,) * spec.deg + (1,)
    assert spec.one == spec.from_int(1) == spec.from_coefficients((Fraction(1),) + zeros)
    assert spec.coefficients(spec.generator_payload) == (Fraction(0), Fraction(1)) + zeros[1:]


@pytest.mark.parametrize("make", QQ_EXTENSIONS.values(), ids=QQ_EXTENSIONS.keys())
def test_rational_extension_equal_elements_hash_equal(make):
    """One element reached by sums, products, quotients, parsing, lifting
    and the coefficient boundary has one payload and one hash."""
    spec = make()
    rng = random.Random(1404)
    e, t = spec.element, spec.generator()
    for _ in range(100):
        cs = _fractions(rng, spec.deg)
        ways = [
            FieldElement(spec, spec.from_coefficients(cs)),
            sum((e(c) * t**i for i, c in enumerate(cs)), spec.zero_element()),
            e(spec.render(spec.from_coefficients(cs))),
            sum((rationals().element(c).lift(spec) * t**i for i, c in enumerate(cs)),
                spec.zero_element()),
        ]
        x = ways[0]
        ways += [(x * 6) / 6, (x + t) - t, x - x + x, -(-x), e(3) * x / e(3)]
        if not x.is_zero():
            ways += [x.inverse().inverse(), x * x / x]
        assert all(w == x for w in ways)
        assert len({w.payload for w in ways}) == 1 and len({hash(w) for w in ways}) == 1
        assert len(set(ways)) == 1
    zeros = [spec.zero_element(), e(0), t - t, e(Fraction(1, 3)) * 3 - 1,
             e("+".join(["0"] + [f"0*{spec.gen}"] + [f"0*{spec.gen}^{i}"
                                                    for i in range(2, spec.deg)]))]
    assert len(set(zeros)) == 1 and all(z.is_zero() for z in zeros)


@pytest.mark.parametrize("make", QQ_EXTENSIONS.values(), ids=QQ_EXTENSIONS.keys())
def test_rational_extension_arithmetic_builds_no_fraction(make):
    """add, sub, neg, mul, div, dot and inv on the integer payloads build no
    Fraction; only the coefficient boundary does."""
    spec = make()
    rng = random.Random(1405)
    payloads = [spec.from_coefficients(_fractions(rng, spec.deg)) for _ in range(40)]
    spec.one, spec.zero, spec._int_red_rows  # built once, from the modulus
    built = []
    original = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        for a, b in zip(payloads, payloads[1:]):
            spec.add(a, b), spec.sub(a, b), spec.neg(a), spec.mul(a, b)
            spec.dot(payloads[:6], payloads[6:12])
            if not spec.is_zero(a):
                spec.inv(a), spec.div(b, a)
    finally:
        Fraction.__new__ = original
    assert built == []
    assert Fraction(2, 4) == Fraction(1, 2)


def _run_ops(spec, n):
    for _ in range(n):
        spec.mul(spec.one, spec.one)


def test_equal_fields_share_one_table_build():
    """Two separately parsed GF(9) instances end up holding the same
    tables object, and the second still reaches it only on its own
    (q - 1)-th operation."""
    f, g = field_from_string("ext:gf:3:1,0,1"), field_from_string("ext:gf:3:1,0,1")
    assert f is not g and f == g
    _run_ops(f, 8)
    tables = vars(f)["_tables"]
    assert tables is not None
    _run_ops(g, 7)
    assert "_tables" not in vars(g) and vars(g)["_coeff_ops"] == 7
    _run_ops(g, 1)
    assert vars(g)["_tables"] is tables


def test_fields_with_different_moduli_keep_separate_tables():
    """GF(9) by x^2 + 1 and by x^2 + x + 2 (one generator name, one base)
    build their own tables, and each agrees with the schoolbook
    arithmetic on every pair."""
    specs = [field_from_string("ext:gf:3:1,0,1"), field_from_string("ext:gf:3:2,1,1")]
    for spec in specs:
        _run_ops(spec, spec.order - 1)
    assert vars(specs[0])["_tables"] is not vars(specs[1])["_tables"]
    for spec in specs:
        ref = Schoolbook(spec)
        payloads = list(spec.element_payloads())
        for a, b in itertools.product(payloads, repeat=2):
            _check_pair(spec, ref, a, b)
        assert vars(spec)["_tables"] is not None


def test_certificate_is_shared_and_refusal_is_not(monkeypatch):
    """An equal field parsed again runs no Rabin test; a reducible modulus
    is refused each time, even after a field over the same base with the
    same generator name was certified."""
    from circhess import fields

    calls = []
    powmod = fields._poly_powmod
    monkeypatch.setattr(fields, "_poly_powmod",
                        lambda *a: calls.append(a) or powmod(*a))
    field_from_string("ext:gf:3:1,0,1")
    calls.clear()
    field_from_string("ext:gf:3:1,0,1")
    assert calls == []
    for _ in range(2):  # x^2 - 1 = (x - 1)(x + 1)
        with pytest.raises(ReducibleModulusError):
            quotient_extension(prime_field(3), [2, 0, 1], gen="w")
    assert calls
