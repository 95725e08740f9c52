"""Field tower: exact arithmetic, axioms, roots of unity, serialization."""

import contextlib
import copy
import functools
import io
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circhess import (
    cyclotomic_field,
    field_from_json,
    field_from_string,
    field_to_string,
    prime_field,
    primitive_root_of_unity,
    quotient_extension,
    rationals,
)
from circhess.fields import dump_json
from circhess.errors import (
    DivisionByZeroError,
    MixedFieldsError,
    NoSuchRootError,
    NotPrimeError,
    ParseError,
    ReducibleModulusError,
)
from circhess.cli import main
from circhess.fields import (
    FieldElement,
    FiniteExtension,
    QuotientExtension,
    RationalExtension,
    _cyclotomic_index,
    _is_prime,
    _poly_divmod,
    _poly_roots,
    _prime_divisors,
    cyclotomic_polynomial,
    euler_phi,
)


def all_specs():
    return [
        rationals(),
        prime_field(5),
        prime_field(7),
        field_from_string("ext:gf:2:1,1,1"),
        cyclotomic_field(4),
    ]


# --- construction -----------------------------------------------------------

def test_prime_field_construction():
    assert prime_field(5).characteristic == 5
    with pytest.raises(NotPrimeError):
        prime_field(4)
    with pytest.raises(NotPrimeError):
        prime_field(1)


def test_miller_rabin_agrees_with_trial_division():
    """The deterministic Miller-Rabin test gives trial division's answer on
    every n below 10^5."""
    assert all(_is_prime(n) == (_prime_divisors(n) == [n]) for n in range(-2, 10**5))


def test_large_prime_certified_fast():
    """p = 10^20 + 39 is certified at once; trial division up to sqrt(p)
    would take about 20 minutes."""
    start = time.perf_counter()
    spec = prime_field(10**20 + 39)
    assert time.perf_counter() - start < 0.5
    assert spec.characteristic == 10**20 + 39


def test_prime_above_bound_refused_fast():
    """2^89 - 1 is prime, but above the Miller-Rabin bound no base can
    certify it, so it is refused at once as uncertifiable (trial division
    would need about 2.5e13 steps).  It runs in a subprocess with a timeout,
    so that a hang fails the test instead of the suite."""
    code = (
        "import time\n"
        "from circhess import prime_field\n"
        "from circhess.errors import NotPrimeError\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    prime_field(2**89 - 1)\n"
        "except NotPrimeError as e:\n"
        "    print(time.perf_counter() - start, e)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=10, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert "cannot be certified" in done.stdout, done.stdout + done.stderr
    assert float(done.stdout.split()[0]) < 0.5


@pytest.mark.parametrize("n", [561, 3215031751, (2**61 - 1) * (2**89 - 1)])
def test_composites_rejected(n):
    """The Carmichael number 561 = 3 * 11 * 17, the strong pseudoprime to
    bases 2, 3, 5 and 7, 3215031751 = 151 * 751 * 28351, and a product of
    two Mersenne primes above the Miller-Rabin bound, which a witness
    rejects at once (trial division would run for years)."""
    with pytest.raises(NotPrimeError):
        prime_field(n)


def test_gf4_construction():
    gf4 = quotient_extension(prime_field(2), [1, 1, 1], gen="w")
    assert gf4.characteristic == 2
    assert gf4.order == 4
    w = gf4.generator()
    assert w * w == w + 1  # defining relation of the quadratic


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulusError):
        quotient_extension(prime_field(2), [1, 0, 1])  # (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulusError):
        quotient_extension(rationals(), [-1, 0, 1])  # x^2 - 1
    with pytest.raises(ReducibleModulusError):
        quotient_extension(rationals(), [2, 3, 1])  # (x + 1)(x + 2)


def test_descriptor_idempotent():
    assert field_from_string("gf:5") == field_from_string("gf:5")
    assert field_from_string("cyclo:4") == field_from_string("cyclo:4")
    assert field_from_string("rat") == rationals()
    with pytest.raises(ParseError):
        field_from_string("gf:4")


def test_field_json_roundtrip():
    for spec in all_specs():
        assert field_from_json(spec.to_json()) == spec


@pytest.mark.parametrize("p", [5.9, 5.0, "5", True])
def test_field_json_prime_needs_integer(p):
    with pytest.raises(ParseError):
        field_from_json({"kind": "prime", "p": p})



@pytest.mark.parametrize("generator", ["a+b", 7, "", None])
def test_field_json_extension_generator_must_be_a_name(generator):
    """An extension's generator names it in every rendered element, so only
    an identifier reads back."""
    with pytest.raises(ParseError):
        field_from_json({"kind": "extension", "base": {"kind": "prime", "p": 5},
                         "modulus": ["2", "0", "1"], "generator": generator})


@pytest.mark.parametrize("generator", ["a+b", 7, "", None, "x y"])
def test_extension_generator_must_be_a_name_at_construction(generator):
    """Every route to an extension checks its generator's name once, at
    construction: quotient_extension(GF(5), x^2 + 2, gen="a+b") would
    render its one as 1+0*a+b, which its own parse rejects."""
    with pytest.raises(ParseError, match="generator must be an identifier"):
        quotient_extension(prime_field(5), [2, 0, 1], gen=generator)
    with pytest.raises(ParseError, match="generator must be an identifier"):
        cyclotomic_field(5, gen=generator)


def _gf16():
    """GF(16) as the tower GF(4)[s]/(s^2 + s + w)."""
    gf4 = field_from_string("ext:gf:2:1,1,1")
    one = gf4.one_element()
    return quotient_extension(gf4, [gf4.generator(), one, one], gen="s")


def test_construction_routes_pick_the_class_of_the_base():
    """Every route to an extension field gives the class of its base's
    payload form, FiniteExtension over a finite base and RationalExtension
    over QQ, each a QuotientExtension.  Fields built by different routes
    are equal and hash equal, so their elements mix."""
    gf2, qq = prime_field(2), rationals()
    finite = [
        QuotientExtension(gf2, (1, 1, 1), "w"),
        QuotientExtension(base=gf2, modulus=(1, 1, 1), gen="w"),
        quotient_extension(gf2, [1, 1, 1], gen="w"),
        field_from_string("ext:gf:2:1,1,1"),
        field_from_json({"kind": "extension", "base": {"kind": "prime", "p": 2},
                         "modulus": ["1", "1", "1"], "generator": "w"}),
    ]
    rational = [
        QuotientExtension(qq, tuple(cyclotomic_polynomial(4))),
        quotient_extension(qq, [1, 0, 1]),
        cyclotomic_field(4),
        field_from_string("cyclo:4"),
        field_from_json({"kind": "extension", "base": {"kind": "rationals"},
                         "modulus": ["1", "0", "1"]}),
    ]
    for specs, cls in ((finite, FiniteExtension), (rational, RationalExtension)):
        assert all(type(s) is cls and isinstance(s, QuotientExtension) for s in specs)
        assert len(set(specs)) == 1 and len({hash(s) for s in specs}) == 1
        g = specs[0].generator()
        assert all(g * s.generator() == g * g for s in specs)
    gf16 = _gf16()
    assert type(gf16) is FiniteExtension and type(gf16.base) is FiniteExtension
    assert gf16.order == 16 and len(set(gf16.element_payloads())) == 16
    assert field_from_json(gf16.to_json()) == gf16
    assert type(field_from_json(gf16.to_json())) is FiniteExtension


def test_extension_of_a_rational_extension_is_refused(tmp_path, w5_array):
    """No modulus over an extension of QQ can be certified: every
    construction route raises ReducibleModulusError, and verify on an array
    whose field JSON is such an extension exits 2."""
    cyclo4 = cyclotomic_field(4)
    t, one = cyclo4.generator(), cyclo4.one_element()
    with pytest.raises(ReducibleModulusError):
        quotient_extension(cyclo4, [t, one, one])
    with pytest.raises(ReducibleModulusError):
        QuotientExtension(cyclo4, (t.payload, one.payload, one.payload))
    tower = {"kind": "extension", "base": cyclo4.to_json(),
             "modulus": [str(t), str(one), str(one)], "generator": "s"}
    with pytest.raises(ParseError):
        field_from_json(tower)
    path = tmp_path / "array.json"
    path.write_text(json.dumps({**w5_array.to_json(), "field": tower}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--in", str(path)])
    assert code == 2 and err.getvalue().startswith("error:")


@pytest.mark.parametrize("make", [
    lambda: field_from_string("ext:gf:2:1,1,1"), _gf16, lambda: cyclotomic_field(4),
], ids=["GF(4)", "GF(16) over GF(4)", "cyclo:4"])
def test_extension_fields_copy_and_pickle(make):
    """copy.copy, copy.deepcopy and pickle give an equal field of the same
    class, both before its arithmetic has run and after (GF(4) and GF(16)
    have then built their tables), and its elements mix with the
    original's."""
    spec = make()
    g = spec.generator()
    for _ in range(2):
        for back in (copy.copy(spec), copy.deepcopy(spec),
                     pickle.loads(pickle.dumps(spec))):
            assert type(back) is type(spec)
            assert back == spec and hash(back) == hash(spec)
            h = back.generator()
            assert h * g == g * g and (h + 1).inverse() * (g + 1) == 1
        x = g
        for _ in range(40):
            x = x * g + 1
    if spec.order is not None:
        assert vars(spec)["_tables"] is not None


def _divisor_root_test(m) -> bool:
    """Test-only reference: the rational-root test as it was, which tries
    +-(divisor of a0) / (divisor of an) with the denominators cleared."""
    lcm = math.lcm(*[Fraction(c).denominator for c in m])
    a0, an = abs(int(m[0] * lcm)), abs(int(m[-1] * lcm))
    if a0 == 0:
        return True

    def divisors(n):
        return [f for f in range(1, n + 1) if n % f == 0]

    return any(sum(c * x**i for i, c in enumerate(m)) == 0
               for num in divisors(a0) for den in divisors(an)
               for x in (Fraction(num, den), Fraction(-num, den)))


def _accepted(m) -> bool:
    try:
        quotient_extension(rationals(), m)
    except ReducibleModulusError:
        return False
    return True


def test_qq_moduli_keep_their_outcome():
    """Every small QQ modulus is accepted or refused as the divisor-listing
    rational-root test (plus, from degree 4, Phi_m recognition) decided:
    all monic quadratics with coefficients n / d, |n| <= 4, d <= 3, all
    monic cubics with such a constant term and x^2, x coefficients in
    {-1, 0, 1/2, 1}, and moduli of degree 4 to 6, cyclotomic or not."""
    values = sorted({Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)})
    small = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]
    moduli = [[c0, c1, 1] for c0 in values for c1 in values]
    moduli += [[c0, c1, c2, 1] for c0 in values for c1 in small for c2 in small]
    moduli += [list(cyclotomic_polynomial(n)) for n in (5, 7, 8, 9, 10, 12)]
    moduli += [[-1, 0, 0, 0, 1], [-2, 0, 0, 0, 1], [0, -1, 0, 0, 1],
               [1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 0, 0, 1], [1, -1, 1, -1, 1]]
    outcomes = set()
    for m in moduli:
        refused = _divisor_root_test(m) or (
            len(m) > 4 and _cyclotomic_index([Fraction(c) for c in m]) is None)
        assert _accepted(m) == (not refused), m
        outcomes.add((len(m), refused))
    # both outcomes in every degree but 5, where no Phi_m exists
    assert outcomes == {(n, r) for n in (3, 4, 5, 7) for r in (False, True)} | {(6, True)}


def test_qq_cubics_with_known_roots():
    """Cubics with a rational root anywhere on f's monotone pieces or at a
    critical point, with large and fractional roots, are refused; cubics
    x^3 - c with c not a cube are accepted."""
    rng = random.Random(3001)

    def times_linear(r, b, c):  # (x - r)(x^2 + b x + c), low to high
        return [-r * c, c - r * b, b - r, 1]

    refused = [times_linear(3, -6, 9), times_linear(-3, 6, 9),  # double roots
               times_linear(10**15, 0, 1), times_linear(Fraction(-7, 3), 1, 1),
               times_linear(Fraction(10**12 + 1, 7), -2 * 10**12, 10**24 - 5)]
    for _ in range(200):
        r = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 50))
        refused.append(times_linear(r, rng.randint(-10**4, 10**4),
                                    rng.randint(-10**8, 10**8)))
    for _ in range(300):  # roots often next to a critical point
        refused.append(times_linear(rng.randint(-40, 40), rng.randint(-60, 60),
                                    rng.randint(-300, 300)))
    assert not any(_accepted(m) for m in refused)
    accepted = [[-c, 0, 0, 1] for c in (2, 10**20 + 39, 3 * 10**30, 7 * 8**15)]
    assert all(_accepted(m) for m in accepted)


def test_large_qq_moduli_are_certified_promptly(tmp_path):
    """A QQ modulus with a large constant term is decided at once:
    x^2 - (10^20 + 39)^2 and x^4 - 2 * 10^20 are refused, and verify on an
    array over QQ[t]/(t^2 - (10^20 + 39)), given as field JSON, answers
    within 1 s with the same exit code each time.  Listing the divisors of
    the constant term by trial division did not finish.  It runs in a
    subprocess with a timeout, so that a hang fails the test instead of
    the suite."""
    code = """
import contextlib, io, json, sys, time
from circhess import ParameterArray, quotient_extension, rationals
from circhess.cli import main
from circhess.errors import ReducibleModulusError
big = 10**20 + 39
times = []
for m in ([-big**2, 0, 1], [-2 * 10**20, 0, 0, 0, 1]):
    start = time.perf_counter()
    try:
        quotient_extension(rationals(), m)
    except ReducibleModulusError:
        times.append(time.perf_counter() - start)
spec = quotient_extension(rationals(), [-big, 0, 1])
e, t = spec.element, spec.generator()
pool = [e(a) + e(b) * t for a in range(-3, 4) for b in (1, 2)]
array = ParameterArray(spec, 3, tuple(pool[:4]), tuple(pool[4:8]), tuple(pool[8:11]))
with open(sys.argv[1], "w") as f:
    json.dump(array.to_json(), f)
runs = []
for _ in range(3):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["verify", "--in", sys.argv[1]])
    runs.append([rc, time.perf_counter() - start])
print(json.dumps([times, runs]))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "array.json")],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    times, runs = json.loads(done.stdout.splitlines()[-1])
    assert len(times) == 2 and max(times) < 0.5
    assert len({rc for rc, _ in runs}) == 1 and runs[0][0] in (0, 1)
    assert max(seconds for _, seconds in runs) < 1.0


# --- arithmetic -------------------------------------------------------------

def test_arith_examples():
    g5 = prime_field(5)
    assert g5.element(2) / g5.element(3) == g5.element(4)  # 3*4 = 12 = 2 (mod 5)
    q = rationals()
    assert q.element(Fraction(1, 3)) + q.element(Fraction(1, 6)) == q.element(
        Fraction(1, 2)
    )


def test_mixed_fields_hard_error():
    a = prime_field(5).element(1)
    b = prime_field(7).element(1)
    with pytest.raises(MixedFieldsError):
        a + b


def test_division_by_zero():
    g5 = prime_field(5)
    with pytest.raises(DivisionByZeroError):
        g5.element(1) / g5.element(0)
    with pytest.raises(DivisionByZeroError):
        g5.element(0) ** -1


def _table_path_gf4():
    """GF(4) after enough operations that it computes by Zech tables."""
    spec = field_from_string("ext:gf:2:1,1,1")
    g = spec.generator()
    for _ in range(spec.order):
        g = g * spec.generator()
    assert spec.__dict__["_tables"] is not None
    return spec


@pytest.mark.parametrize("spec", all_specs() + [_table_path_gf4()], ids=str)
def test_division_leaves_zero_check_to_inv(spec):
    """x / y, n / y and y ** -k take the zero check from the field's inv,
    on every kind of field and on both paths of a finite extension."""
    gen = spec.generator() if isinstance(spec, QuotientExtension) else spec.element(3)
    zero = spec.zero_element()
    for x in (spec.one_element(), gen):
        assert 2 / x == spec.element(2) * x.inverse()
        assert (2 / x) * x == 2
        assert x / x == 1 and x ** -2 * x * x == 1
        for fails in (lambda: x / zero, lambda: 2 / zero, lambda: zero ** -1):
            with pytest.raises(DivisionByZeroError):
                fails()


def _axiom_check(spec, a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + spec.zero_element() == a
    assert a * spec.one_element() == a
    if not a.is_zero():
        assert a * a.inverse() == spec.one_element()


@settings(max_examples=60, deadline=None)
@given(st.integers(), st.integers(), st.integers())
def test_axioms_gf5(x, y, z):
    g5 = prime_field(5)
    _axiom_check(g5, g5.element(x), g5.element(y), g5.element(z))


@settings(max_examples=60, deadline=None)
@given(st.fractions(), st.fractions(), st.fractions())
def test_axioms_rationals(x, y, z):
    q = rationals()
    _axiom_check(q, q.element(x), q.element(y), q.element(z))


@settings(max_examples=60, deadline=None)
@given(*(st.integers(0, 3) for _ in range(6)))
def test_axioms_gf4(x0, x1, y0, y1, z0, z1):
    gf4 = field_from_string("ext:gf:2:1,1,1")
    w = gf4.generator()
    a, b, c = x0 + x1 * w, y0 + y1 * w, z0 + z1 * w
    _axiom_check(gf4, a, b, c)


@settings(max_examples=40, deadline=None)
@given(*(st.integers(-5, 5) for _ in range(6)))
def test_axioms_cyclo4(x0, x1, y0, y1, z0, z1):
    cy = cyclotomic_field(4)
    t = cy.generator()
    a, b, c = x0 + x1 * t, y0 + y1 * t, z0 + z1 * t
    _axiom_check(cy, a, b, c)


def test_gf4_exhaustive_inverses():
    gf4 = field_from_string("ext:gf:2:1,1,1")
    for e in gf4.elements():
        if not e.is_zero():
            assert e * e.inverse() == gf4.one_element()


def test_pow_negative():
    g7 = prime_field(7)
    assert g7.element(3) ** -1 == g7.element(5)  # 3*5 = 15 = 1 (mod 7)
    assert g7.element(3) ** -2 == g7.element(4)  # 5^2 = 25 = 4


# --- roots of unity -----------------------------------------------------------

def test_root_of_unity_gf5():
    q = primitive_root_of_unity(prime_field(5), 4)
    assert q == prime_field(5).element(2)  # 2, 4, 3, 1: order exactly 4


def test_root_of_unity_gf7():
    q = primitive_root_of_unity(prime_field(7), 3)
    assert q == prime_field(7).element(2)  # 2^3 = 8 = 1, 2^1 and 2^2 != 1


def test_root_of_unity_missing():
    with pytest.raises(NoSuchRootError):
        primitive_root_of_unity(prime_field(5), 3)  # 3 does not divide 4


def test_root_of_unity_extension_search():
    q = primitive_root_of_unity(prime_field(5), 3, allow_extension=True)
    assert q.spec.order == 25
    assert q**3 == 1 and q != 1 and q**2 != 1


def test_root_of_unity_extension_degree_is_the_multiplicative_order():
    """The extension has degree k = the least k with n | p^k - 1: for
    (p, n) = (2, 11) that is 10, so GF(2^10) holds the root.  The smallest
    extensions for (2, 7) and (5, 6), and the roots found in them, are as
    before."""
    q = primitive_root_of_unity(prime_field(2), 11, allow_extension=True)
    assert q.spec.order == 2**10
    assert q**11 == 1 and q != 1
    q = primitive_root_of_unity(prime_field(2), 7, allow_extension=True)
    assert (q.spec.modulus, q.payload) == ((1, 0, 1, 1), (0, 0, 1))
    q = primitive_root_of_unity(prime_field(5), 6, allow_extension=True)
    assert (q.spec.modulus, q.payload) == ((1, 1, 1), (0, 4))


@pytest.mark.parametrize("p, n", [(3, 3), (2, 6), (5, 10)])
def test_root_of_unity_refused_when_the_characteristic_divides_n(p, n):
    """x^n - 1 = (x^(n/p) - 1)^p in characteristic p, so no extension of
    GF(p) has an element of order n."""
    with pytest.raises(NoSuchRootError, match="characteristic"):
        primitive_root_of_unity(prime_field(p), n, allow_extension=True)


def test_root_of_unity_lifted_into_a_quartic_extension_promptly():
    """(457, 5) needs GF(457^4).  Its modulus is certified by Rabin's test
    (the factor enumeration refused it: 457^2 candidates), and the root is
    the least of the four order-5 roots of x^5 - 1, found by splitting it,
    not by a scan of the 4.4e10 elements, all within a second."""
    start = time.perf_counter()
    q = primitive_root_of_unity(prime_field(457), 5, allow_extension=True)
    assert time.perf_counter() - start < 1
    assert q.spec.modulus == (1, 0, 0, 3, 1) and q.spec.order == 457**4
    assert q**5 == 1 and q != 1
    assert q.payload < min((q**i).payload for i in (2, 3, 4))


def test_root_of_unity_in_a_billion_element_field_is_prompt():
    """An order-4 root in GF(10^9 + 9) is the least root of x^2 + 1, found
    by a gcd with x^q - x, within a second (the element scan had not
    finished after 20 s).  It runs in a subprocess with a timeout, so that
    a hang fails the test instead of the suite."""
    code = (
        "import time\n"
        "from circhess import prime_field, primitive_root_of_unity\n"
        "start = time.perf_counter()\n"
        "q = primitive_root_of_unity(prime_field(10**9 + 9), 4)\n"
        "print(time.perf_counter() - start, q)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=20, env={**os.environ, "PYTHONPATH": str(src)},
    )
    seconds, q = done.stdout.split()
    assert float(seconds) < 1, done.stdout + done.stderr
    p = 10**9 + 9
    # the two order-4 roots are q and -q; the answer is the lesser
    assert pow(int(q), 2, p) == p - 1 and int(q) < p - int(q)


def _scanned_root_of_unity(spec, n):
    """The first payload of order n in element_payloads order."""
    for x in spec.element_payloads():
        e = FieldElement(spec, x)
        if not spec.is_zero(x) and e**n == 1 and all(
                e**k != 1 for k in range(1, n)):
            return e
    return None


def test_root_of_unity_equals_the_scan(small_finite_field):
    """For every n | q - 1 the answer is the scan's first element of order
    n, whichever way primitive_root_of_unity takes (the least root of Phi_n
    where phi(n)^3 < q - 1, the scan otherwise), and the least root of
    Phi_n is that element for every n, so both ways agree everywhere."""
    spec = small_finite_field
    group = spec.order - 1
    roots_taken = 0  # the n that take the roots of Phi_n
    for n in range(2, group + 1):
        if group % n:
            continue
        want = _scanned_root_of_unity(spec, n)
        assert primitive_root_of_unity(spec, n) == want
        phi = [spec.from_int(int(c)) for c in cyclotomic_polynomial(n)]
        assert _poly_roots(phi, spec)[0] == want.payload
        roots_taken += euler_phi(n) ** 3 < group
    # n = 2 over GF(5), GF(7) and GF(9), n = 3 over GF(16); none over GF(4)
    # or GF(8), whose q - 1 is prime
    assert roots_taken == {5: 1, 7: 1, 4: 0, 8: 0, 9: 1, 16: 1}[spec.order]


def _has_monic_factor(m, b):
    """The certificate Rabin's test replaced, as a reference: a monic
    factor of m of degree 1 (a root) up to deg(m) // 2 over the finite
    field b, found by trying every one."""
    for degf in range(1, (len(m) - 1) // 2 + 1):
        for tail in itertools.product(list(b.element_payloads()), repeat=degf):
            if not _poly_divmod(m, list(tail) + [b.one], b)[1]:
                return True
    return False


# base, degrees, and the number of monic irreducibles of those degrees
# (Gauss's formula (1/k) sum over d | k of mu(d) q^(k/d))
@pytest.mark.parametrize("base, degrees, irreducible", [
    ("gf:2", (2, 3, 4), 1 + 2 + 3), ("gf:3", (2, 3, 4), 3 + 8 + 18),
    ("gf:5", (2, 3), 10 + 40), ("ext:gf:2:1,1,1", (2,), 6)])
def test_rabin_certificate_matches_factor_enumeration(base, degrees, irreducible):
    """Every monic polynomial of these degrees is accepted as a modulus
    exactly when it has no monic factor of degree 1 .. deg // 2."""
    b = field_from_string(base)
    accepted = 0
    for k in degrees:
        for tail in itertools.product(list(b.element_payloads()), repeat=k):
            m = tuple(tail) + (b.one,)
            try:
                QuotientExtension(b, m)
                ok = True
            except ReducibleModulusError:
                ok = False
            assert ok == (not _has_monic_factor(m, b)), m
            accepted += ok
    assert accepted == irreducible


def test_rootless_quartics_over_gf701():
    """701 = 1 mod 4 and 2 is not a square mod 701, so x^4 - 2 is
    irreducible; (x^2 - 2)(x^2 - 8) = x^4 - 10 x^2 + 16 has no root (8 is
    not a square either) but two quadratic factors.  The factor
    enumeration refused both (701^2 candidates); Rabin's test decides."""
    p = 701
    gf = prime_field(p)
    assert pow(2, p // 2, p) == pow(8, p // 2, p) == p - 1
    assert all((x**4 - 10 * x * x + 16) % p for x in range(p))
    start = time.perf_counter()
    assert quotient_extension(gf, [-2, 0, 0, 0, 1]).order == p**4
    with pytest.raises(ReducibleModulusError):
        quotient_extension(gf, [16, 0, -10, 0, 1])
    assert time.perf_counter() - start < 1


def test_element_payloads_are_in_sorted_order():
    """Roots are returned sorted by payload; that reproduces the field
    order of a scan because element_payloads is itself sorted, for prime
    fields, extensions and towers."""
    for spec in (prime_field(7), field_from_string("ext:gf:3:1,0,1"),
                 field_from_string("ext:gf:2:1,1,0,1"), _gf16()):
        payloads = list(spec.element_payloads())
        assert payloads == sorted(payloads)


def test_root_of_unity_order_property():
    for spec, n in ((prime_field(5), 4), (prime_field(7), 6),
                    (field_from_string("ext:gf:2:1,1,1"), 3)):
        q = primitive_root_of_unity(spec, n)
        assert (q**n) == 1
        for k in range(1, n):
            assert (q**k) != 1


def test_cyclotomic_root():
    q = primitive_root_of_unity(rationals(), 5)
    assert (q**5) == 1
    for k in range(1, 5):
        assert (q**k) != 1
    assert q.spec.deg == euler_phi(5) == 4


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic_polynomial(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic_polynomial(6) == [Fraction(1), Fraction(-1), Fraction(1)]
    # degree always matches the totient
    for n in range(2, 16):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


# --- rendering ----------------------------------------------------------------

def test_render_parse_roundtrip_exhaustive_finite():
    for spec in (prime_field(5), field_from_string("ext:gf:2:1,1,1")):
        for e in spec.elements():
            assert spec.element(str(e)) == e


@settings(max_examples=50, deadline=None)
@given(st.fractions())
def test_render_parse_roundtrip_rationals(x):
    q = rationals()
    e = q.element(x)
    assert q.element(str(e)) == e


@settings(max_examples=50, deadline=None)
@given(st.fractions(), st.fractions())
def test_render_parse_roundtrip_cyclo(x, y):
    cy = cyclotomic_field(4)
    e = cy.element(x) + cy.element(y) * cy.generator()
    assert cy.element(str(e)) == e


@st.composite
def finite_quotients(draw):
    """GF(p^k) for p <= 7 and k = 2, 3, as `ext:gf:p:...` builds it: the
    first irreducible monic modulus at or after a drawn one."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(2, 3))
    start = draw(st.integers(0, p**k - 1))
    for step in range(p**k):
        n = (start + step) % p**k
        coeffs = [n // p**i % p for i in range(k)] + [1]
        try:
            return field_from_string(f"ext:gf:{p}:{','.join(map(str, coeffs))}")
        except ParseError:
            continue
    raise AssertionError(f"no irreducible monic modulus of degree {k} over GF({p})")


# the four kinds of field: prime, GF(p^k) quotient, QQ and cyclotomic
field_specs = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 101, 65537]).map(prime_field),
    finite_quotients(),
    st.just(rationals()),
    st.integers(3, 40).map(cyclotomic_field),
)


@st.composite
def field_payloads(draw):
    """A field of any kind and one payload of it."""
    spec = draw(field_specs)
    if isinstance(spec, QuotientExtension):
        if spec.order is None:
            coeff = st.fractions()
        else:
            coeff = st.integers(0, spec.base.order - 1)
        coeffs = draw(st.lists(coeff, min_size=spec.deg, max_size=spec.deg))
        return spec, spec.from_coefficients(coeffs)
    if spec.order is None:
        return spec, draw(st.fractions())
    return spec, draw(st.integers(0, spec.order - 1))


@settings(max_examples=200, deadline=None)
@given(field_payloads())
def test_render_parse_roundtrip_all_kinds(spec_payload):
    spec, a = spec_payload
    assert spec.parse(spec.render(a)) == a
    e = spec.element(spec.render(a))
    assert e.payload == a and spec.element(str(e)) == e


@settings(max_examples=100, deadline=None)
@given(field_specs)
def test_field_string_and_json_roundtrip_all_kinds(spec):
    text = field_to_string(spec)
    assert field_from_string(text) == spec
    assert field_to_string(field_from_string(text)) == text
    assert field_from_json(json.loads(json.dumps(spec.to_json()))) == spec


def test_render_forms():
    q = rationals()
    assert str(q.element(Fraction(-2, 6))) == "-1/3"
    assert str(q.element(7)) == "7"
    gf4 = field_from_string("ext:gf:2:1,1,1")
    assert str(gf4.generator()) == "0+1*w"


def test_tower_roundtrip():
    # quadratic extension of GF(4): render wraps base coefficients in parens
    gf4 = field_from_string("ext:gf:2:1,1,1")
    w = gf4.generator()
    # x^2 + x + w is irreducible over GF(4) (no roots among the 4 elements)
    gf16 = quotient_extension(gf4, [w, gf4.one_element(), gf4.one_element()], gen="s")
    assert gf16.order == 16
    for e in list(gf16.elements())[:8]:
        assert gf16.element(str(e)) == e


def test_root_of_unity_inside_cyclotomic_extension():
    cy8 = cyclotomic_field(8)
    q = primitive_root_of_unity(cy8, 4)
    assert (q**4) == 1
    for k in range(1, 4):
        assert (q**k) != 1


@pytest.mark.parametrize("n", [105, 120, 210, 420])
def test_cyclotomic_descriptor_roundtrip_large(n):
    """The generator's order is found from euler_phi(n) = deg, not from a
    fixed step count (cyclo:210 has order 210 and degree 48)."""
    spec = field_from_string(f"cyclo:{n}")
    assert field_to_string(spec) == f"cyclo:{n}"
    assert field_from_string(field_to_string(spec)) == spec


@pytest.mark.parametrize("n", [105, 120, 210, 420])
def test_cyclotomic_json_roundtrip_large(n):
    """A cyclotomic modulus is recognized among the m with euler_phi(m) =
    deg, and that recognition certifies its irreducibility (cyclo:420 has
    degree 96, beyond any fixed scan of 4 deg + 20 indices)."""
    spec = cyclotomic_field(n)
    back = field_from_json(spec.to_json())
    assert back == spec
    assert field_to_string(back) == f"cyclo:{n}"


def test_cyclotomic_modulus_is_certified_by_recognition():
    """Every QQ modulus passes the same certification: Phi_12 (degree 4)
    given directly is accepted because it is cyclotomic, and is the field
    cyclotomic_field builds; x^4 - 2, irreducible but not cyclotomic, is
    still refused."""
    direct = QuotientExtension(rationals(), tuple(cyclotomic_polynomial(12)))
    assert direct == cyclotomic_field(12)
    assert hash(direct) == hash(cyclotomic_field(12))
    assert field_to_string(direct) == "cyclo:12"
    with pytest.raises(ReducibleModulusError):
        quotient_extension(rationals(), [-2, 0, 0, 0, 1])
    with pytest.raises(ParseError):
        field_from_json({"kind": "extension", "base": {"kind": "rationals"},
                         "modulus": ["-2", "0", "0", "0", "1"]})


def _generator_power_order(spec):
    """Test-only reference: the least k <= 2 deg^2 with g^k = 1, by
    successive powers of the generator, or None."""
    g = spec.generator()
    power = g
    for k in range(1, 2 * spec.deg**2 + 1):
        if power == 1:
            return k
        power = power * g
    return None


def test_cyclotomic_index_is_the_generator_order():
    """Over QQ the generator has order m exactly when the modulus is Phi_m;
    other moduli give None."""
    specs = [cyclotomic_field(m) for m in range(3, 31)]
    specs += [quotient_extension(rationals(), c) for c in
              ([-2, 0, 1], [2, 0, 1], [3, -1, 0, 1])]
    found = 0
    for spec in specs:
        m = _generator_power_order(spec)
        assert _cyclotomic_index(spec.modulus) == m
        found += m is not None
    assert found == 28


def test_root_of_unity_of_large_cyclotomic_order():
    spec = cyclotomic_field(420)
    assert primitive_root_of_unity(spec, 420) == spec.generator()
    q = primitive_root_of_unity(spec, 105)
    assert q == spec.generator() ** 4


def test_lift_into_own_field_or_extension_only(gf5, gf7, w5_array):
    """Lifting into the element's own field is the identity; lifting into a
    quadratic extension embeds; any other target is a MixedFieldsError,
    never a bare AttributeError."""
    one = gf5.element(1)
    assert one.lift(gf5) is one
    assert w5_array.lift(gf5) is w5_array
    ext = primitive_root_of_unity(gf5, 8, allow_extension=True).spec
    assert one.lift(ext) == ext.one_element()
    assert w5_array.lift(ext).theta[2] == ext.element(4)
    gf9 = quotient_extension(prime_field(3), [1, 0, 1], gen="w")
    for target in (gf7, gf9, rationals()):
        with pytest.raises(MixedFieldsError):
            one.lift(target)
        with pytest.raises(MixedFieldsError):
            w5_array.lift(target)
    with pytest.raises(MixedFieldsError):
        ext.one_element().lift(gf5)


def test_rational_mul_equals_the_dot_of_one_pair():
    """RationalExtension.mul, which convolves its one pair directly, gives
    the payload of dot((a,), (b,)) on seeded payloads, over cyclotomic
    fields and over moduli whose reduction rows have denominators."""
    rng = random.Random(38)
    specs = [cyclotomic_field(4), cyclotomic_field(5), cyclotomic_field(12),
             quotient_extension(rationals(), [Fraction(-1, 2), 0, 1]),
             quotient_extension(rationals(), [-2, 0, 0, 1])]
    for spec in specs:
        assert isinstance(spec, RationalExtension)

        def payload():
            return spec.from_coefficients(
                [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) * rng.randint(0, 1)
                 for _ in range(spec.deg)])

        for _ in range(100):
            a, b = payload(), payload()
            assert spec.mul(a, b) == spec.dot((a,), (b,))


DOT_TABLE_FIELDS = {
    "gf:7": lambda: field_from_string("gf:7"),
    "rat": lambda: field_from_string("rat"),
    "cyclo:4": lambda: cyclotomic_field(4),
    "cyclo:5": lambda: cyclotomic_field(5),
    "cyclo:12": lambda: cyclotomic_field(12),
    # reduction rows with denominator 2
    "QQ[t]/(t^2 - 1/2)": lambda: quotient_extension(rationals(), [Fraction(-1, 2), 0, 1]),
    "QQ[t]/(t^3 - 2)": lambda: quotient_extension(rationals(), [-2, 0, 0, 1]),
}


@pytest.mark.parametrize("make", DOT_TABLE_FIELDS.values(), ids=DOT_TABLE_FIELDS.keys())
def test_dots_equal_the_dot_of_each_pair(make):
    """spec.dots(xss, yss) is the table of spec.dot(xs, ys), one tuple per
    xs, and each entry is the sum of the products by mul and add, on seeded
    vectors whose entries have mixed denominators, with zero entries, an
    all-zero vector, a cancelling sum and empty sides.  (Over an extension
    of QQ dot is dots of one pair, so mul and add are the reference.)"""
    spec = make()
    rng = random.Random(39)

    def entry():
        def c():
            return Fraction(rng.randint(-30, 30), rng.randint(1, 6)) * rng.randint(0, 1)
        if isinstance(spec, RationalExtension):
            return spec.from_coefficients([c() for _ in range(spec.deg)])
        return spec.element(c()).payload

    def pairwise(xss, yss):
        table = [tuple([spec.dot(xs, ys) for ys in yss]) for xs in xss]
        assert table == [tuple([functools.reduce(spec.add, map(spec.mul, xs, ys), spec.zero)
                                for ys in yss]) for xs in xss]
        return table

    for _ in range(40):
        n = rng.randrange(6)
        xss = [[entry() for _ in range(n)] for _ in range(rng.randrange(4))]
        yss = [[entry() for _ in range(n)] for _ in range(rng.randrange(4))]
        yss.append([spec.zero] * n)
        assert spec.dots(xss, yss) == pairwise(xss, yss)
    a = spec.element(Fraction(5, 3)).payload
    one, minus_one = spec.one, spec.neg(spec.one)
    xss, yss = [[a, a, a]], [[one, minus_one, one], [one, minus_one, spec.zero]]
    assert spec.dots(xss, yss) == [(a, spec.zero)] == pairwise(xss, yss)
    assert spec.dots([], yss) == [] and spec.dots(xss, []) == [()]


# --- the indented JSON writer ------------------------------------------------

def _indented(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


_CLI_ARRAYS = {
    "W5": ("gf:5", "F1", "--q", "2"),
    "GF(9)": ("ext:gf:3:1,0,1", "F1"),
    "GF(4)": ("ext:gf:2:1,1,1", "F4", "--c", "w", "--cstar", "w", "--z", "1"),
    "cyclo:4": ("cyclo:4", "F1"),
}


@pytest.mark.parametrize("args", _CLI_ARRAYS.values(), ids=_CLI_ARRAYS.keys())
def test_dump_json_is_json_dumps_on_every_cli_document(tmp_path, capsys, monkeypatch, args):
    """Every document that gen, verify, raw-pair verify (finite fields
    only: ingest needs one), classify, bases --check-all and replay write,
    to stdout and to --out, is json.dumps with an indent of 2 and sorted
    keys, byte for byte."""
    from circhess import cli

    written = []
    monkeypatch.setattr(cli, "dump_json", lambda doc: written.append(
        (doc, dump_json(doc))) or written[-1][1])
    field, family, *extra = args
    src = tmp_path / "gen.json"
    assert cli.main(["gen", "--family", family, "--field", field, "--d", "3",
                     "--b", "1", "--bstar", "1", "--y", "1", *extra,
                     "--out", str(src)]) == 0
    pair = tmp_path / "pair.json"
    gen_doc = json.loads(src.read_text())
    pair.write_text(json.dumps({"A": gen_doc["A"], "A_star": gen_doc["A_star"]}))
    commands = [("verify", src), ("classify", src), ("bases", src, "--check-all"),
                ("replay", src)] + [("verify", pair)] * (field != "cyclo:4")
    capsys.readouterr()
    for k, (cmd, infile, *flags) in enumerate(commands):
        out = tmp_path / f"{k}.json"
        assert cli.main([cmd, "--in", str(infile), *flags, "--out", str(out)]) == 0
        assert out.read_text() == written[-1][1] + "\n"
        assert cli.main([cmd, "--in", str(infile), *flags]) == 0
        assert capsys.readouterr().out == written[-1][1] + "\n"
    assert len(written) == 1 + 2 * len(commands)
    for doc, text in written:
        assert text == _indented(doc)


def test_dump_json_is_json_dumps_on_search_reports(tmp_path, monkeypatch):
    """SearchReport bytes, and the counterexamples file, which the search
    writes after each non-recurrent hit (every hit is made one here)."""
    import importlib
    import types

    from circhess import SearchConfig, search

    search_mod = importlib.import_module("circhess.search")

    for field, mode in (("gf:5", "random"), ("ext:gf:2:1,1,1", "random")):
        report = search(SearchConfig(field_from_string(field), 3, mode, seed=1, trials=400))
        assert report.ch_systems_found > 0
        assert report.to_bytes() == _indented(report.to_json()).encode()
    monkeypatch.setattr(search_mod, "recurrence_status",
                        lambda params: types.SimpleNamespace(recurrent=False, betas=()))
    path = tmp_path / "rep.json"
    report = search(SearchConfig(field_from_string("gf:5"), 3, "random", seed=1,
                                 trials=400, report_path=str(path)))
    assert report.counterexamples
    assert path.read_bytes() == _indented(report.to_json()).encode()
    found = path.with_suffix(".counterexamples.json").read_text()
    assert found == _indented(report.counterexamples)


def test_dump_json_is_json_dumps_on_the_golden_documents():
    text = (Path(__file__).parent / "golden" / "result_json.json").read_text()
    golden = json.loads(text)
    assert dump_json(golden) == _indented(golden)
    for value in golden.values():
        doc = json.loads(value)
        assert dump_json(doc) == _indented(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, None, True, 1.5,
    {"a": {}, "b": [], "c": [[], [{}], {"d": ()}], "": {"": []}},
    (1, (2, ("x", "y")), []),
    ["é", "☃", "\U0001f600", '"', "\\", "\x00\x01\x1f\x7f", "\n\t\r\b\f", "/"],
    {"é": "ü", '"q"': "\\", "\x02": ["\x03"]},
    [-1, -(10 ** 39) - 7, 10 ** 40, 0, -0],
    [True, 1, False, 0, None, "true", "1"],
    {"t": True, "one": 1, "f": False, "zero": 0, "n": None},
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1e300, 2.5e-320],
    {"b": 1, "a": 2, "B": 3, "_": 4, "aa": 5, "a ": 6, "á": 7},
    [["1", "0"], ["0", "1"], ["x", 1], ["y", None]],
], ids=lambda doc: repr(doc)[:40])
def test_dump_json_is_json_dumps_on_edge_cases(doc):
    assert dump_json(doc) == _indented(doc)


@pytest.mark.parametrize("doc", [{1, 2}, object(), {1: "a"}, {"a": {2: "b"}},
                                 [Fraction(1, 2)], {"a": b"x"}])
def test_dump_json_refuses_what_it_cannot_write(doc):
    with pytest.raises(TypeError):
        dump_json(doc)
