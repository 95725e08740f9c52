"""Recurrence windows, tridiagonal witness, closed-form fits, quotients."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circhess import (
    Family,
    FamilyParameters,
    Matrix,
    ParameterArray,
    RecurrenceCase,
    commutator,
    cyclotomic_field,
    fit_closed_form,
    is_beta_recurrent,
    classify_family,
    family_generate,
    prime_field,
    quotient_extension,
    rationals,
    recurrence_status,
    recurrent_quotient,
    split_form_build,
    td_witness,
    vartheta_from_array,
    verify_ch_axioms,
)
from circhess.errors import (
    MixedFieldsError,
    NotRecurrentAtBetaError,
    PreconditionViolatedError,
    SingularBasisError,
    SingularError,
    TooShortError,
)
from circhess.recurrence import RecurrenceStatus, solve_unit_root


def test_vartheta_w5(w5_array):
    vth = vartheta_from_array(w5_array)
    assert [str(v) for v in vth.values] == ["0", "1", "3", "2", "0"]
    assert vth[0].is_zero() and vth[4].is_zero()


def test_vartheta_inverts_to_phi(w5_array):
    """phi_i = vartheta_i + (theta*_i - theta*_0)(theta_{d-i+1} - theta_0)."""
    vth = vartheta_from_array(w5_array)
    d = w5_array.d
    for i in range(1, d + 1):
        phi_i = vth[i] + (w5_array.theta_star[i] - w5_array.theta_star[0]) * (
            w5_array.theta[d - i + 1] - w5_array.theta[0]
        )
        assert phi_i == w5_array.phi[i - 1]


def test_window_examples(gf5):
    q = rationals()
    assert is_beta_recurrent([gf5.element(x) for x in (1, 2, 4, 3)], gf5.element(0))
    assert is_beta_recurrent([q.element(x) for x in (0, 1, 2, 3, 4)], q.element(2))
    assert not is_beta_recurrent([q.element(x) for x in (0, 1, 3, 4)], q.element(2))
    with pytest.raises(TooShortError):
        is_beta_recurrent([q.element(0), q.element(1), q.element(2)], q.element(2))


def test_status_w5(w5_array, gf5):
    st = recurrence_status(w5_array)
    assert st.recurrent and st.betas == [gf5.element(0)]


def test_status_non_recurrent(gf5):
    # theta* not recurrent at the beta pinned by theta
    p = ParameterArray.make(gf5, [0, 1, 2, 3], [0, 1, 2, 4], [1, 1, 1])
    st = recurrence_status(p)
    assert not st.recurrent and st.betas == []


def test_status_matches_exhaustive_beta_scan(gf5):
    """The window-solve strategy agrees with scanning every beta in the
    field, for a batch of arrays over GF(5)."""
    import random

    rng = random.Random(5)
    checked = 0
    while checked < 40:
        th = tuple(rng.sample(range(5), 4))
        ths = tuple(rng.sample(range(5), 4))
        ph = tuple(rng.choice([1, 2, 3, 4]) for _ in range(3))
        p = ParameterArray.make(gf5, th, ths, ph)
        vth = vartheta_from_array(p)
        brute = [
            b for b in gf5.elements()
            if is_beta_recurrent(p.theta, b)
            and is_beta_recurrent(p.theta_star, b)
            and is_beta_recurrent(vth, b)
        ]
        assert recurrence_status(p).betas == brute
        checked += 1


def _status_by_elements(p):
    """recurrence_status's definition, written out on FieldElement operators
    apart from the payload forms that recurrence_status, is_beta_recurrent
    and vartheta_from_array share: beta from the first window of theta,
    vartheta_i = phi_i - (theta*_i - theta*_0)(theta_{d-i+1} - theta_0) with
    zero ends, and every window
    s_{i-2} - (beta + 1) s_{i-1} + (beta + 1) s_i - s_{i+1} of theta, theta*
    and vartheta zero.  Also checks vartheta_from_array and
    is_beta_recurrent against it."""
    th, ths, d = p.theta, p.theta_star, p.d
    zero = p.spec.zero_element()
    beta = (th[3] - th[2] + th[1] - th[0]) / (th[2] - th[1])
    vth = [zero] + [p.phi[i - 1] - (ths[i] - ths[0]) * (th[d - i + 1] - th[0])
                    for i in range(1, d + 1)] + [zero]
    assert list(vartheta_from_array(p)) == vth
    b1 = beta + 1
    oks = [all((s[i - 2] - b1 * s[i - 1] + b1 * s[i] - s[i + 1]).is_zero()
               for i in range(2, len(s) - 1)) for s in (th, ths, vth)]
    assert oks == [is_beta_recurrent(s, beta) for s in (th, ths, vth)]
    return all(oks), [beta] if all(oks) else []


def _recurrent_array(spec, d):
    """A recurrent array with d = 3 over a field whose generator g has order
    4 (theta_i = g^i, theta*_i = g^-i, vartheta_i = 2 (1 - g^i), beta = 0), and
    with any d over QQ (theta_i = i, theta*_i = i^2,
    vartheta_i = i (d + 1 - i), beta = 2); phi is solved from vartheta."""
    e = spec.element
    if spec.characteristic == 0 and not hasattr(spec, "deg"):
        th = [e(i) for i in range(d + 1)]
        ths = [e(i * i) for i in range(d + 1)]
        vth = [e(i * (d + 1 - i)) for i in range(d + 2)]
    else:
        g = spec.generator()
        th = [g**i for i in range(d + 1)]
        ths = [g**-i for i in range(d + 1)]
        vth = [2 * (1 - g**i) for i in range(d + 2)]
    phi = [vth[i] + (ths[i] - ths[0]) * (th[d - i + 1] - th[0])
           for i in range(1, d + 1)]
    return ParameterArray(spec, d, tuple(th), tuple(ths), tuple(phi))


@pytest.mark.parametrize("field", ["ext:gf:3:1,0,1", "cyclo:4", "rat"])
def test_status_matches_element_definition(field):
    """recurrence_status, which computes on payloads, gives the element
    definition's verdict, the same FieldElement beta and the same JSON
    bytes: on a recurrent array, on its phi perturbations, and on seeded
    random arrays."""
    import json
    import random

    from circhess import FieldElement, field_from_string

    spec = field_from_string(field)
    e = spec.element
    if spec.order is not None:
        pool = list(spec.elements())
    elif field == "rat":
        pool = [e(x) for x in range(-6, 7)]
    else:
        t = spec.generator()
        pool = [e(x) + e(y) * t for x in range(-2, 3) for y in range(-2, 3)]
    nonzero = [x for x in pool if not x.is_zero()]
    rng = random.Random(f"status/{field}")
    ds = (3, 4, 5) if field == "rat" else (3,)
    arrays = []
    for d in ds:
        p = _recurrent_array(spec, d)
        arrays.append(p)
        for i in range(d):
            phi = list(p.phi)
            phi[i] = phi[i] + 1 if not (phi[i] + 1).is_zero() else phi[i] + 2
            arrays.append(ParameterArray(spec, d, p.theta, p.theta_star, tuple(phi)))
        arrays += [ParameterArray(spec, d, tuple(rng.sample(pool, d + 1)),
                                  tuple(rng.sample(pool, d + 1)),
                                  tuple(rng.choice(nonzero) for _ in range(d)))
                   for _ in range(20)]
    recurrent = 0
    for p in arrays:
        got, want = recurrence_status(p), RecurrenceStatus(*_status_by_elements(p))
        assert (got.recurrent, got.betas) == (want.recurrent, want.betas)
        assert all(isinstance(b, FieldElement) and b.spec == spec for b in got.betas)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        recurrent += got.recurrent
    assert recurrent == len(ds)


def test_td_witness_w5(w5_system, gf5):
    w = td_witness(w5_system, 0)
    zero = gf5.zero_element()
    assert (w.gamma, w.gamma_star, w.rho, w.rho_star) == (zero, zero, zero, zero)


def test_td_commutators_explicit(w5_system, gf5):
    """The two relations evaluated on the matrices, fully expanded, with
    the witness scalars; exact zero."""
    w = td_witness(w5_system, 0)
    a, b = w5_system.A, w5_system.A_star
    for x, y, gamma, rho in ((a, b, w.gamma, w.rho), (b, a, w.gamma_star, w.rho_star)):
        inner = (
            x * x * y - (x * y * x).scale(w.beta) + y * x * x
            - (x * y + y * x).scale(gamma) - y.scale(rho)
        )
        assert commutator(x, inner).is_zero()


def test_td_commutator_equals_its_literal_expansion(gf5):
    """_td_commutator, which forms x y and y x once, equals the literal
    [x, x^2 y - beta x y x + y x^2 - gamma (x y + y x) - rho y] on seeded
    random pairs that do not commute."""
    import random

    from circhess.recurrence import _td_commutator

    rng = random.Random(38)
    tested = 0
    while tested < 20:
        x, y = (Matrix.from_elements(gf5, [[rng.randrange(5) for _ in range(4)]
                                           for _ in range(4)]) for _ in range(2))
        if commutator(x, y).is_zero():
            continue
        beta, gamma, rho = (gf5.element(rng.randrange(5)) for _ in range(3))
        inner = (x * x * y - (x * y * x).scale(beta) + y * x * x
                 - (x * y + y * x).scale(gamma) - y.scale(rho))
        assert _td_commutator(x, y, beta, gamma, rho) == commutator(x, inner)
        tested += 1


def test_td_witness_wrong_beta(w5_system):
    with pytest.raises(NotRecurrentAtBetaError):
        td_witness(w5_system, 1)


def test_td_trivial_commuting_case(gf5):
    """Anything commuting satisfies both relations with any scalars."""
    a = Matrix.diagonal(gf5, [1, 2, 4, 3])
    ident = Matrix.identity(gf5, 4)
    inner = a * a * ident + ident * a * a
    assert commutator(a, inner).is_zero()


def test_recurrence_iff_td_witness(gf5):
    """Both directions at desk scale: recurrent status iff the witness
    construction succeeds, over a batch of verified systems."""
    import random

    rng = random.Random(12)
    seen_recurrent = 0
    seen_non = 0
    while seen_recurrent < 5 or seen_non < 5:
        th = tuple(rng.sample(range(5), 4))
        ths = tuple(rng.sample(range(5), 4))
        ph = tuple(rng.choice([1, 2, 3, 4]) for _ in range(3))
        p = ParameterArray.make(gf5, th, ths, ph)
        s = split_form_build(p)
        st = recurrence_status(p)
        if st.recurrent:
            seen_recurrent += 1
            td_witness(s, st.betas[0])  # must not raise
        else:
            seen_non += 1
            for b in gf5.elements():
                with pytest.raises(NotRecurrentAtBetaError):
                    td_witness(s, b)


# --- closed-form fits --------------------------------------------------------

def test_fit_generic_q_gf5(gf5):
    th = [gf5.element(x) for x in (1, 2, 4, 3)]
    form = fit_closed_form(th, gf5.element(0))
    assert form.case is RecurrenceCase.GENERIC_Q
    assert not form.lifted
    assert form.q in (gf5.element(2), gf5.element(3))
    assert [str(a) for a in form.alpha] == ["0", "1", "0"]  # theta_i = q^i
    for i, v in enumerate(th):
        assert form.evaluate(i) == v


def test_fit_constant_sequence(gf5):
    seq = [gf5.element(2)] * 5
    form = fit_closed_form(seq, gf5.element(2))
    assert form.alpha[1].is_zero() and form.alpha[2].is_zero()
    assert form.alpha[0] == gf5.element(2)


def test_fit_beta2_rationals():
    q = rationals()
    seq = [q.element(x) for x in (7, 9, 13, 19, 27)]  # 7 + i + i(i-1)
    form = fit_closed_form(seq, q.element(2))
    assert form.case is RecurrenceCase.BETA2
    assert [str(a) for a in form.alpha] == ["7", "2", "2"]
    for i, v in enumerate(seq):
        assert form.evaluate(i) == v


def test_fit_beta_minus2_rationals():
    q = rationals()
    seq = [q.element(x) for x in (1, -2, 3, -4, 5, -6)]
    form = fit_closed_form(seq, q.element(-2))
    assert form.case is RecurrenceCase.BETA_MINUS2
    for i, v in enumerate(seq):
        assert form.evaluate(i) == v


def test_fit_beta0_char2(gf4):
    w = gf4.generator()
    one = gf4.one_element()
    seq = [gf4.zero_element(), one, w, one + w]
    form = fit_closed_form(seq, gf4.zero_element())
    assert form.case is RecurrenceCase.BETA0_CHAR2
    for i, v in enumerate(seq):
        assert form.evaluate(i) == v


def test_fit_lifts_to_quadratic_extension():
    q = rationals()
    vals = [q.element(0), q.element(1), q.element(3)]
    for _ in range(3):
        vals.append(2 * vals[-1] - 2 * vals[-2] + vals[-3])  # beta = 1
    form = fit_closed_form(vals, q.element(1))
    assert form.lifted
    assert (form.q ** 6) == 1  # roots of x^2 - x + 1 are primitive 6th roots
    for i, v in enumerate(vals):
        assert form.evaluate(i) == v.lift(form.spec)


def test_fit_vartheta_w5(w5_array, gf5):
    """The wrap sequence of the fixture fits with a zero q^{-i} coefficient:
    vartheta_i = q^i - 1."""
    vth = vartheta_from_array(w5_array)
    form = fit_closed_form(vth, gf5.element(0), q=gf5.element(2))
    assert form.alpha[0] == gf5.element(-1)
    assert form.alpha[1] == gf5.element(1)
    assert form.alpha[2].is_zero()


def test_verified_recurrent_wrap_scalars_differ(gf5, gf9, gf4):
    """Every verified recurrent system has vartheta_1 != vartheta_d (the
    corner product is nonzero exactly then)."""
    from circhess import Family, family_generate, iter_family_instances

    for fam, spec, d in (
        (Family.F1_GENERIC_Q, gf5, 3),
        (Family.F2_BETA2, gf5, 4),
        (Family.F3_BETA_MINUS2, gf9, 5),
        (Family.F4_BETA0_CHAR2, gf4, 3),
    ):
        for fp in iter_family_instances(fam, spec, d, 3):
            p = family_generate(fp)
            s = split_form_build(p)
            assert verify_ch_axioms(s).is_ch and recurrence_status(p).recurrent
            vth = vartheta_from_array(p)
            assert vth[1] != vth[d]


def test_fit_round_trip_family_data(gf5, gf9, gf4):
    """Round-trip on eigenvalue data of actual systems in all four cases."""
    from circhess import Family, family_beta, family_generate, iter_family_instances

    cases = [
        (Family.F1_GENERIC_Q, gf5, 3),
        (Family.F2_BETA2, gf5, 4),
        (Family.F3_BETA_MINUS2, gf9, 5),
        (Family.F4_BETA0_CHAR2, gf4, 3),
    ]
    for fam, spec, d in cases:
        fp = next(iter_family_instances(fam, spec, d, 1))
        p = family_generate(fp)
        beta = family_beta(fp)
        for seq in (p.theta, p.theta_star, vartheta_from_array(p)):
            form = fit_closed_form(seq, beta)
            vals = seq.values if hasattr(seq, "values") else seq
            for i, v in enumerate(vals):
                expect = v.lift(form.spec) if form.lifted else v
                assert form.evaluate(i) == expect


# --- quotient identities ----------------------------------------------------------

def test_quotient_examples(gf5):
    th = [gf5.element(x) for x in (1, 2, 4, 3)]
    assert recurrent_quotient(th, gf5.element(0), 3, 0, 2, 1) == gf5.element(1)
    q = rationals()
    ap = [q.element(x) for x in range(5)]
    assert recurrent_quotient(ap, q.element(2), 4, 0, 3, 1) == q.element(2)
    assert recurrent_quotient(ap, q.element(2), 2, 2, 3, 1).is_zero()


def test_quotient_preconditions(gf5):
    th = [gf5.element(x) for x in (1, 2, 4, 3)]
    with pytest.raises(PreconditionViolatedError):
        recurrent_quotient(th, gf5.element(0), 3, 0, 2, 2)  # r = s
    with pytest.raises(PreconditionViolatedError):
        recurrent_quotient(th, gf5.element(0), 3, 0, 3, 1)  # sums differ
    with pytest.raises(PreconditionViolatedError):
        recurrent_quotient(th, gf5.element(1), 3, 0, 2, 1)  # wrong beta


def _exhaustive_quotient(seq, beta, n):
    for i, j, r, s in itertools.product(range(n), repeat=4):
        if i + j == r + s and r != s:
            recurrent_quotient(seq, beta, i, j, r, s)


def test_quotient_exhaustive_all_cases(gf5, gf9, gf4, gf7):
    """Two-sided agreement for every admissible index tuple, d <= 6."""
    from circhess import (
        Family, family_beta, family_generate, iter_family_instances,
    )

    cases = [
        (Family.F1_GENERIC_Q, gf5, 3),
        (Family.F2_BETA2, gf5, 4),
        (Family.F3_BETA_MINUS2, gf9, 5),
        (Family.F4_BETA0_CHAR2, gf4, 3),
        (Family.F2_BETA2, gf7, 6),
    ]
    for fam, spec, d in cases:
        fp = next(iter_family_instances(fam, spec, d, 1))
        p = family_generate(fp)
        beta = family_beta(fp)
        _exhaustive_quotient(list(p.theta), beta, d + 1)
        _exhaustive_quotient(list(p.theta_star), beta, d + 1)


def test_status_inconsistent_windows_over_rationals():
    """theta pins beta = 1 but theta* needs beta = 4: not recurrent."""
    from circhess import ParameterArray, rationals

    q = rationals()
    p = ParameterArray.make(q, [0, 1, 3, 4], [0, 1, 2, 5], [1, 1, 1])
    st = recurrence_status(p)
    assert not st.recurrent and st.betas == []


@pytest.mark.parametrize("raised, expected", [
    (SingularError, SingularBasisError),
    (MixedFieldsError, MixedFieldsError),
])
def test_fit_maps_only_a_singular_basis(monkeypatch, gf5, raised, expected):
    """Only a singular fit basis becomes SingularBasisError; any other error
    from the solve keeps its own type."""
    import circhess.recurrence as rec

    def failing_inverse(m):
        raise raised("injected")

    monkeypatch.setattr(rec, "matrix_inverse", failing_inverse)
    th = [gf5.element(x) for x in (1, 2, 4, 3)]
    with pytest.raises(expected) as info:
        fit_closed_form(th, gf5.element(0))
    assert type(info.value) is expected


def _qq_quadratic(m0, m1):
    """QQ[t]/(t^2 + m1 t + m0)."""
    return quotient_extension(rationals(), [Fraction(m0), Fraction(m1), Fraction(1)])


def test_unit_root_over_a_finite_field_is_the_least_root(small_finite_field):
    """For every beta, solve_unit_root gives the first root of
    x^2 - beta x + 1 in a scan of the field, or, when the scan finds none,
    the generator of the quadratic extension by that polynomial."""
    spec = small_finite_field
    elems = list(spec.elements())
    lifted_count = 0
    for beta in elems:
        roots = [e for e in elems if (e * e - beta * e + 1).is_zero()]
        q, fit, lifted = solve_unit_root(spec, beta)
        if roots:
            assert (q, fit, lifted) == (roots[0], spec, False)
        else:
            lifted_count += 1
            assert lifted and fit.base == spec and fit.deg == 2
            assert q == fit.generator()
            assert (q * q - beta.lift(fit) * q + 1).is_zero()
    assert 0 < lifted_count < len(elems)


def test_unit_root_in_quadratic_field_off_the_generator_powers():
    """Over QQ[t]/(t^2 - 2), q = 1 + t has q + 1/q = 2t, and no +-t^k is a
    root; the root is found in the field, not in a further extension."""
    k = _qq_quadratic(-2, 0)
    t = k.generator()
    q, spec, lifted = solve_unit_root(k, 2 * t)
    assert spec == k and not lifted
    assert q in (1 + t, (1 + t).inverse())


def test_classify_f1_over_qq_sqrt_minus3():
    """A verified, recurrent F1 array with d = 5 over QQ[t]/(t^2 + 3), where
    q = (1 + t)/2 is a primitive 6th root of unity but no +-t^k is."""
    k = _qq_quadratic(3, 0)
    e = k.element
    q = (1 + k.generator()) / 2
    fp = FamilyParameters(Family.F1_GENERIC_Q, k, 5, e(0), e(1), e(0), e(0), e(1),
                          e(0), e(0), e(1), q)
    p = family_generate(fp)
    assert verify_ch_axioms(split_form_build(p)).is_ch
    assert recurrence_status(p).recurrent
    cls = classify_family(p)
    assert cls.family is Family.F1_GENERIC_Q and not cls.lifted
    assert cls.parameters.q in (q, q.inverse())


# (m0, m1) of irreducible t^2 + m1 t + m0: square roots of 2, 3, 5, -1, -3,
# -7, and moduli with a linear term (Phi_3 and two non-cyclotomic ones)
_QUADRATIC_MODULI = [(-2, 0), (-3, 0), (-5, 0), (1, 0), (3, 0), (7, 0),
                     (1, 1), (1, 3), (3, Fraction(1, 2))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_QUADRATIC_MODULI),
       st.fractions(-4, 4, max_denominator=5), st.fractions(-4, 4, max_denominator=5))
def test_unit_root_round_trip_quadratic_qq(modulus, x, y):
    """For q != 0, +-1 in QQ(sqrt r), solve_unit_root(K, q + 1/q) returns q or
    1/q in K itself."""
    k = _qq_quadratic(*modulus)
    q = k.element(x) + k.element(y) * k.generator()
    assume(not q.is_zero() and q != 1 and q != -1)
    root, spec, lifted = solve_unit_root(k, q + q.inverse())
    assert spec == k and not lifted
    assert root in (q, q.inverse())


@pytest.mark.parametrize("make", [
    # t^2 = 1/2: a fractional modulus coefficient, so the payload kernel's
    # reduction rows carry a scale of 2
    lambda: _qq_quadratic(Fraction(-1, 2), 0),
    # Phi_3 = t^2 + t + 1: a linear term, and the scan bound is the index 3
    lambda: cyclotomic_field(3),
], ids=["t^2 - 1/2", "cyclo:3"])
def test_unit_root_in_qq_quadratic_field_through_square_roots(make):
    """For q off the +-t^k, solve_unit_root(K, q + 1/q) solves the square
    root of beta^2 - 4 through the coefficient boundary and returns q or 1/q
    in K itself."""
    k = make()
    e, t = k.element, k.generator()
    for q in (1 + t, 2 + t, (1 + 3 * t) / 5, e(Fraction(-2, 3)) + e(Fraction(7, 4)) * t):
        beta = q + q.inverse()
        root, spec, lifted = solve_unit_root(k, beta)
        assert spec == k and not lifted
        assert root in (q, q.inverse())
        assert (root * root - beta * root + 1).is_zero()


def _gauss_sqrt5(k):
    """sqrt(5) = 1 + 2(t + t^4) in QQ(zeta_5)."""
    t = k.generator()
    return 1 + 2 * (t + t**4)


# (m, beta as a function of the field): beta^2 - 4 is rational in each,
# and its square roots lie in QQ(zeta_m) but are no +-t^k
_CYCLOTOMIC_ROOTS = {
    "cyclo:5 beta=3": (5, lambda k: k.element(3)),  # sqrt(5)
    "cyclo:5 beta=5/2": (5, lambda k: k.element(Fraction(5, 2))),  # q = 2
    "cyclo:12 beta=5/2": (12, lambda k: k.element(Fraction(5, 2))),
    "cyclo:12 delta=3*2^2": (12, lambda k: k.element(4)),  # sqrt(-1) sqrt(-3)
    "cyclo:8 delta=2*4^2": (8, lambda k: k.element(6)),  # zeta_8 + zeta_8^7
    "cyclo:8 delta=-2*(4/3)^2": (8, lambda k: k.element(Fraction(2, 3))),
    "cyclo:7 delta=-7/4": (7, lambda k: k.element(Fraction(3, 2))),  # Gauss sum
    "cyclo:15 beta=3": (15, lambda k: k.element(3)),
    "cyclo:24 delta=6*4^2": (24, lambda k: k.element(10)),  # sqrt(-2) sqrt(-3)
    # an irrational beta = 13 sqrt(3)/6 with beta^2 - 4 = 3 (11/6)^2
    "cyclo:12 beta=13sqrt(3)/6": (12, lambda k: (
        (2 * k.generator()**4 + 1) * k.generator()**3 * k.element(Fraction(13, 6)))),
}


@pytest.mark.parametrize("m, make_beta", _CYCLOTOMIC_ROOTS.values(),
                         ids=_CYCLOTOMIC_ROOTS.keys())
def test_unit_root_in_cyclotomic_field_from_a_rational_discriminant(m, make_beta):
    k = cyclotomic_field(m)
    beta = make_beta(k)
    q, spec, lifted = solve_unit_root(k, beta)
    assert spec is k and not lifted
    assert (q * q - beta * q + 1).is_zero()


@pytest.mark.parametrize("m, beta", [(5, 4), (12, 6), (4, 3), (7, Fraction(7, 2))],
                         ids=["sqrt3 in cyclo:5", "sqrt2 in cyclo:12",
                              "sqrt5 in cyclo:4", "sqrt33 in cyclo:7"])
def test_unit_root_absent_from_cyclotomic_field_is_refused(m, beta):
    from circhess.errors import NoSuchRootError

    k = cyclotomic_field(m)
    with pytest.raises(NoSuchRootError):
        solve_unit_root(k, k.element(beta))


def test_fit_3_recurrent_sequence_over_cyclo5():
    """theta_i = 1 + q^i + 2 q^-i with q = (3 + sqrt 5)/2 is 3-recurrent
    over QQ(zeta_5); the fit and the quotient identity run in the field
    itself."""
    k = cyclotomic_field(5)
    q = (3 + _gauss_sqrt5(k)) / 2
    assert q * q - 3 * q + 1 == 0
    seq = [1 + q**i + 2 * q**-i for i in range(6)]
    fit = fit_closed_form(seq, k.element(3))
    assert fit.spec is k and not fit.lifted
    assert [fit.evaluate(i) for i in range(6)] == seq
    lhs = recurrent_quotient(seq, k.element(3), 3, 0, 2, 1)
    assert lhs == (seq[3] - seq[0]) / (seq[2] - seq[1])
