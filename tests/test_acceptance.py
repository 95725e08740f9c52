"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All equality checks are exact (zero tolerance) in exact arithmetic; the
stated runtime budgets are asserted.  Run with `pytest -v tests/test_acceptance.py`
(add -s to see the criterion lines as they print).
"""

import functools
import itertools
import time

import pytest

from circhess import (
    BASIS_NAMES,
    Family,
    FamilyParameters,
    Matrix,
    ParameterArray,
    SearchConfig,
    build_basis_catalog,
    classify_family,
    cyclotomic_field,
    family_beta,
    family_generate,
    field_from_string,
    fit_closed_form,
    isomorphic,
    iter_family_instances,
    prime_field,
    primitive_root_of_unity,
    psi_check,
    quotient_extension,
    recurrence_status,
    recurrent_quotient,
    represent,
    search,
    split_form_build,
    standard_form_entries,
    td_witness,
    transition,
    vartheta_from_array,
    verify_ch_axioms,
)
from circhess.errors import InternalContradictionError, InvalidFamilyParametersError


def criterion(number, description, budget_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
        return run
    return wrap


GF5 = prime_field(5)
GF7 = prime_field(7)
GF4 = field_from_string("ext:gf:2:1,1,1")
GF9 = quotient_extension(prime_field(3), [1, 0, 1], gen="w")
CY4 = cyclotomic_field(4)

W5 = ParameterArray.make(GF5, [1, 2, 4, 3], [1, 2, 4, 3], [3, 2, 4])


def _cyclotomic_f1_instances(count):
    t = CY4.generator()
    out = []
    combos = [
        (1, 0, 1, 0, 1, 0), (1, 0, 1, 0, 2, 0), (1, 0, 1, 0, 3, 0),
        (2, 0, 1, 0, 1, 0), (1, 0, 2, 0, 1, 0), (1, 0, 1, 0, 1, 2),
        (2, 0, 2, 0, 3, 0), (1, 0, 1, 0, 5, 1), (3, 0, 1, 0, 2, 0),
        (1, 0, 3, 0, 4, 0),
    ]
    for b, c, bs, cs, y, z in combos:
        fp = FamilyParameters.make(
            Family.F1_GENERIC_Q, CY4, 3, q=t, b=b, c=c, b_star=bs, c_star=cs,
            y=y, z=z,
        )
        try:
            family_generate(fp)
        except InvalidFamilyParametersError:
            continue
        out.append(fp)
        if len(out) == count:
            return out
    raise AssertionError("not enough valid cyclotomic instances")


@functools.lru_cache(maxsize=None)
def _fixture_set():
    """(family parameters, generated array) pairs across fields and d."""
    q7 = primitive_root_of_unity(GF7, 6)
    fixtures = []
    fixtures += list(iter_family_instances(Family.F1_GENERIC_Q, GF5, 3, 12))
    fixtures += list(iter_family_instances(Family.F2_BETA2, GF5, 4, 10))
    fixtures += list(iter_family_instances(Family.F1_GENERIC_Q, GF7, 5, 8, q=q7))
    fixtures += list(iter_family_instances(Family.F2_BETA2, GF7, 6, 8))
    fixtures += list(iter_family_instances(Family.F4_BETA0_CHAR2, GF4, 3, 8))
    fixtures += _cyclotomic_f1_instances(6)
    return [(fp, family_generate(fp)) for fp in fixtures]


@criterion(1, "idempotent algebra on >= 50 fixtures across four fields", 10)
def test_criterion_1():
    fixtures = _fixture_set()
    assert len(fixtures) >= 50
    fields = {str(fp.spec) for fp, _ in fixtures}
    assert len(fields) == 4
    assert {fp.d for fp, _ in fixtures} == {3, 4, 5, 6}
    for _, p in fixtures:
        s = split_form_build(p)
        n = p.d + 1
        ident = Matrix.identity(p.spec, n)
        for mat, es, evs in ((s.A, s.E, p.theta), (s.A_star, s.E_star, p.theta_star)):
            total = None
            recon = None
            for e, t in zip(es, evs):
                total = e if total is None else total + e
                term = e.scale(t)
                recon = term if recon is None else recon + term
            assert total == ident
            assert recon == mat
            for i, ei in enumerate(es):
                for j, ej in enumerate(es):
                    prod = ei * ej
                    assert prod == ei if i == j else prod.is_zero()


@criterion(2, "every valid family instance verifies; violations fail as predicted", 30)
def test_criterion_2():
    per_family = [
        (Family.F1_GENERIC_Q, GF5, 3),
        (Family.F2_BETA2, GF5, 4),
        (Family.F3_BETA_MINUS2, GF9, 5),
        (Family.F4_BETA0_CHAR2, GF4, 3),
    ]
    for fam, spec, d in per_family:
        fps = list(iter_family_instances(fam, spec, d, 10))
        assert len(fps) == 10
        for fp in fps:
            p = family_generate(fp)
            assert verify_ch_axioms(split_form_build(p)).is_ch
    # violations of exactly one hypothesis
    with pytest.raises(InvalidFamilyParametersError) as e:
        family_generate(FamilyParameters.make(
            Family.F1_GENERIC_Q, GF5, 3, q=2, b=1, b_star=1, y=1, z=1))
    assert "y,z" in e.value.hypothesis
    with pytest.raises(InvalidFamilyParametersError) as e:
        family_generate(FamilyParameters.make(
            Family.F1_GENERIC_Q, GF5, 3, q=2, b=1, b_star=1, y=2, z=0))
    assert "phi" in e.value.hypothesis
    # wrap scalars forced equal (generic data with y = z escaping the family
    # route): the corner product must vanish, exactly at (iv, j - i = d)
    p = ParameterArray.make(GF5, [1, 2, 4, 3], [1, 2, 4, 3], [3, 1, 3])
    vth = vartheta_from_array(p)
    assert vth[1] == vth[3]
    out = verify_ch_axioms(split_form_build(p))
    assert not out.is_ch and ("iv", 0, 3) in out.failures


@criterion(3, "W5 golden numbers, all exact over GF(5)", 10)
def test_criterion_3():
    e = GF5.element
    assert W5.theta == W5.theta_star == tuple(e(x) for x in (1, 2, 4, 3))
    assert W5.phi == tuple(e(x) for x in (3, 2, 4))
    vth = vartheta_from_array(W5)
    assert vth.values == tuple(e(x) for x in (0, 1, 3, 2, 0))
    st = recurrence_status(W5)
    assert st.recurrent and st.betas == [e(0)]
    s = split_form_build(W5)
    assert verify_ch_axioms(s).is_ch
    w = td_witness(s, 0)
    assert w.beta == e(0)
    assert w.gamma == w.gamma_star == w.rho == w.rho_star == e(0)
    catalog, scalars = build_basis_catalog(s)
    assert scalars.epsilon * scalars.epsilon_star == e(4)
    assert (s.E[0] * s.E_star[0]).trace() == e(4)
    sfe = standard_form_entries(catalog)
    assert sfe.xi == e(1) and sfe.xi_star == e(4)
    psi, psi_star = psi_check(W5)
    assert psi == e(1) and psi_star == e(1)
    cls = classify_family(W5)
    assert cls.family is Family.F1_GENERIC_Q
    assert cls.parameters.q in (e(2), e(3))


@criterion(4, "six-bases coherence: closed forms, solves, cycles, row sums", 60)
def test_criterion_4():
    cases = [W5]
    for fam, spec, d in (
        (Family.F1_GENERIC_Q, GF5, 3),
        (Family.F2_BETA2, GF5, 4),
        (Family.F3_BETA_MINUS2, GF9, 5),
        (Family.F4_BETA0_CHAR2, GF4, 3),
    ):
        cases.append(family_generate(next(iter_family_instances(fam, spec, d, 1))))
    cases.append(family_generate(_cyclotomic_f1_instances(1)[0]))
    for p in cases:
        s = split_form_build(p)
        assert verify_ch_axioms(s).is_ch
        catalog, _ = build_basis_catalog(s)
        # adjacent pairs and all composes: cross-checked inside transition()
        mats = {}
        for a, b in itertools.product(BASIS_NAMES, repeat=2):
            mats[a, b] = transition(catalog, a, b).matrix
        ident = Matrix.identity(p.spec, p.d + 1)
        for a, b in itertools.product(BASIS_NAMES, repeat=2):
            assert mats[a, b] * mats[b, a] == ident
        for a, b, c in itertools.product(BASIS_NAMES, repeat=3):
            if len({a, b, c}) == 3:
                assert mats[a, b] * mats[b, c] * mats[c, a] == ident
        for name in BASIS_NAMES:
            represent(catalog, name)  # closed-form/shape assertions inside
        b_star = represent(catalog, "standard").B_star
        for i in range(p.d + 1):
            acc = p.spec.zero_element()
            for j in range(p.d + 1):
                acc = acc + b_star.entry(i, j)
            assert acc == p.theta_star[0]


@criterion(5, "three-way corner scalar agreement, nonzero, on recurrent fixtures", 60)
def test_criterion_5():
    cases = [W5]
    for fam, spec, d in (
        (Family.F1_GENERIC_Q, GF5, 3),
        (Family.F2_BETA2, GF5, 4),
        (Family.F3_BETA_MINUS2, GF9, 5),
        (Family.F4_BETA0_CHAR2, GF4, 3),
    ):
        for fp in iter_family_instances(fam, spec, d, 3):
            cases.append(family_generate(fp))
    for p in cases:
        assert recurrence_status(p).recurrent
        s = split_form_build(p)
        verify_ch_axioms(s)
        catalog, _ = build_basis_catalog(s)
        sfe = standard_form_entries(catalog)  # asserts the three-way agreement
        assert sfe.recurrent
        assert not sfe.xi.is_zero() and not sfe.xi_star.is_zero()


@criterion(6, "classification round-trip, >= 10 instances per family", 120)
def test_criterion_6():
    per_family = [
        (Family.F1_GENERIC_Q, GF5, 3),
        (Family.F2_BETA2, GF5, 4),
        (Family.F3_BETA_MINUS2, GF9, 5),
        (Family.F4_BETA0_CHAR2, GF4, 3),
    ]
    for fam, spec, d in per_family:
        fps = list(iter_family_instances(fam, spec, d, 10))
        assert len(fps) == 10
        for fp in fps:
            p = family_generate(fp)
            try:
                cls = classify_family(p)
            except InternalContradictionError as e:
                raise AssertionError(f"internal contradiction on {fp}: {e}") from e
            assert cls.family is fam
            regen = family_generate(cls.parameters)
            target = p.lift(cls.parameters.spec) if cls.lifted else p
            assert isomorphic(regen, target)
    # and the whole criterion-1 fixture set classifies without contradiction
    for fp, p in _fixture_set():
        cls = classify_family(p)
        assert cls.family is fp.family


@criterion(7, "conjecture fuzz: exhaustive GF(2)/GF(3) + random 1e5 over GF(5)", 60)
def test_criterion_7():
    for p in (2, 3):
        rep = search(SearchConfig(prime_field(p), 3, "exhaustive"))
        assert rep.candidates_examined == 0 and rep.counterexamples == []
    cfg = SearchConfig(GF5, 3, "random", seed=42, trials=100_000)
    rep1 = search(cfg)
    assert rep1.candidates_examined == 100_000
    assert rep1.counterexamples == []
    assert rep1.ch_systems_found == rep1.recurrent_count > 0
    rep2 = search(cfg)
    assert rep1.to_bytes() == rep2.to_bytes()


@criterion(8, "closed-form fits round-trip; quotient identities exhaustive d <= 6", 60)
def test_criterion_8():
    cases = [
        (Family.F1_GENERIC_Q, GF5, 3),
        (Family.F2_BETA2, GF5, 4),
        (Family.F3_BETA_MINUS2, GF9, 5),
        (Family.F4_BETA0_CHAR2, GF4, 3),
        (Family.F2_BETA2, GF7, 6),
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
        for seq in (list(p.theta), list(p.theta_star)):
            n = len(seq)
            for i, j, r, s in itertools.product(range(n), repeat=4):
                if i + j == r + s and r != s:
                    recurrent_quotient(seq, beta, i, j, r, s)
