"""System construction, axiom verification, extraction, duality, ingest."""

import pytest

from circhess import (
    Matrix,
    ParameterArray,
    Vector,
    cyclic_irreducibility_check,
    dual_system,
    extract_parameter_array,
    ingest_pair,
    isomorphic,
    isomorphism_witness,
    matrix_inverse,
    prime_field,
    split_form_build,
    verify_ch_axioms,
)
from circhess.errors import (
    CorruptIdempotentsError,
    DimensionMismatchError,
    MixedFieldsError,
    NotInE0StarVError,
    UnverifiedSystemError,
    ZeroVectorError,
)


def test_split_form_matrices(w5_array, gf5):
    s = split_form_build(w5_array)
    assert s.A == Matrix.from_elements(
        gf5, [[3, 0, 0, 0], [1, 4, 0, 0], [0, 1, 2, 0], [0, 0, 1, 1]]
    )
    assert s.A_star == Matrix.from_elements(
        gf5, [[1, 3, 0, 0], [0, 2, 2, 0], [0, 0, 4, 4], [0, 0, 0, 3]]
    )


def test_traces_are_eigenvalue_sums(w5_array):
    s = split_form_build(w5_array)
    total = w5_array.spec.zero_element()
    for t in w5_array.theta:
        total = total + t
    assert s.A.trace() == total
    assert s.A_star.trace() == total  # theta* = theta for this fixture


def test_idempotent_eigen_relation(w5_array):
    s = split_form_build(w5_array)
    for e, t in zip(s.E, w5_array.theta):
        assert s.A * e == e.scale(t)


def test_verify_w5(w5_array):
    s = split_form_build(w5_array)
    out = verify_ch_axioms(s)
    assert out.is_ch and out.failures == []
    assert s.verified


def test_verify_corner_failure_when_wrap_scalars_equal(gf5):
    """Generic-case data with y = z: the wrap scalars vartheta_1 = vartheta_d
    force the corner product E_0 A* E_d to vanish, so verification fails
    exactly there.  (q = 2, b = b* = 1, c = c* = 0, y = z = 2 gives
    phi = (3, 1, 3), all nonzero, so the array itself is valid.)"""
    p = ParameterArray.make(gf5, [1, 2, 4, 3], [1, 2, 4, 3], [3, 1, 3])
    s = split_form_build(p)
    out = verify_ch_axioms(s)
    assert not out.is_ch
    assert ("iv", 0, 3) in out.failures
    assert not s.verified


def test_extract_round_trip(w5_array, gf5):
    s = split_form_build(w5_array)
    verify_ch_axioms(s)
    seed = Vector.unit(gf5, 4, 0)
    params, dec = extract_parameter_array(s, seed)
    assert params == w5_array
    # v_0 is the projected seed; v_d spans the E_0 eigenspace
    assert (s.E_star[0] * dec.generators[0]) == dec.generators[0]
    vd = dec.generators[-1]
    assert (s.E[0] * vd) == vd


def test_extract_seed_independence(w5_array, gf5):
    s = split_form_build(w5_array)
    verify_ch_axioms(s)
    p1, _ = extract_parameter_array(s, Vector.unit(gf5, 4, 0))
    p2, _ = extract_parameter_array(s, Vector.from_elements(gf5, [2, 1, 3, 1]))
    assert p1 == p2 == w5_array


def test_extract_errors(w5_array, gf5):
    s = split_form_build(w5_array)
    verify_ch_axioms(s)
    with pytest.raises(ZeroVectorError):
        extract_parameter_array(s, Vector.zero(gf5, 4))
    # any eigenvector of A* other than the theta*_0 one projects to zero
    ev = None
    for j in range(4):
        col = s.E_star[2].column(j)
        if not col.is_zero():
            ev = col
            break
    with pytest.raises(NotInE0StarVError):
        extract_parameter_array(s, ev)


def test_unverified_gate(w5_array, gf5):
    s = split_form_build(w5_array)
    with pytest.raises(UnverifiedSystemError):
        extract_parameter_array(s, Vector.unit(gf5, 4, 0))


def test_dual_involution_and_table(w5_array, gf5):
    s = split_form_build(w5_array)
    verify_ch_axioms(s)
    d = dual_system(s)
    assert d.params.theta == w5_array.theta_star
    assert d.params.theta_star == w5_array.theta
    assert [str(x) for x in d.params.phi] == ["4", "2", "3"]
    dd = dual_system(d)
    assert dd.params == s.params


def test_isomorphic(w5_array, gf5):
    assert isomorphic(w5_array, w5_array)
    other = ParameterArray.make(gf5, [1, 2, 4, 3], [1, 2, 4, 3], [4, 2, 3])
    assert not isomorphic(w5_array, other)
    bumped = ParameterArray.make(gf5, [1, 2, 4, 3], [1, 2, 3, 4], [3, 2, 4])
    assert not isomorphic(w5_array, bumped)
    with pytest.raises(MixedFieldsError):
        isomorphic(w5_array, ParameterArray.make(
            prime_field(7), [1, 2, 4, 3], [1, 2, 4, 3], [3, 2, 4]))


def test_isomorphism_witness(w5_array, gf5):
    s1 = split_form_build(w5_array)
    verify_ch_axioms(s1)
    # conjugate the whole system by an invertible sigma, then recover one
    sigma = Matrix.from_elements(
        gf5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 1, 1]]
    )
    sigma_inv = matrix_inverse(sigma)
    from circhess.systems import CHSystem

    s2 = CHSystem(
        gf5, 3,
        sigma * s1.A * sigma_inv, sigma * s1.A_star * sigma_inv,
        [sigma * e * sigma_inv for e in s1.E],
        [sigma * e * sigma_inv for e in s1.E_star],
        s1.theta, s1.theta_star, params=w5_array,
    )
    verify_ch_axioms(s2)
    tau = isomorphism_witness(s1, s2)
    assert tau is not None
    tau_inv = matrix_inverse(tau)
    assert tau * s1.A * tau_inv == s2.A
    assert tau * s1.A_star * tau_inv == s2.A_star


def test_cyclic_irreducibility(w5_array, gf5):
    s = split_form_build(w5_array)
    verify_ch_axioms(s)
    for k in range(4):
        assert cyclic_irreducibility_check(s, Vector.unit(gf5, 4, k))
    with pytest.raises(ZeroVectorError):
        cyclic_irreducibility_check(s, Vector.zero(gf5, 4))


def test_block_diagonal_pair_is_reducible(gf5):
    """A commuting diagonal pair is not a circular system; the closure of a
    coordinate vector stays one-dimensional."""
    from circhess.systems import CHSystem
    from circhess.linalg import primitive_idempotents

    a = Matrix.diagonal(gf5, [1, 2, 4, 3])
    b = Matrix.diagonal(gf5, [1, 2, 4, 3])
    evs = [gf5.element(x) for x in (1, 2, 4, 3)]
    sys = CHSystem(
        gf5, 3, a, b,
        primitive_idempotents(a, evs), primitive_idempotents(b, evs), evs, evs,
    )
    out = verify_ch_axioms(sys)
    assert not out.is_ch
    sys.verified = True  # force the gate to exercise the closure computation
    assert not cyclic_irreducibility_check(sys, Vector.unit(gf5, 4, 0))


def test_ingest_pair_recovers_system(w5_array, gf5):
    """Conjugate the split pair by a change of basis, forget everything, and
    ingest the bare matrices."""
    s = split_form_build(w5_array)
    verify_ch_axioms(s)
    sigma = Matrix.from_elements(
        gf5, [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, 4], [1, 0, 0, 1]]
    )
    sigma_inv = matrix_inverse(sigma)
    a = sigma * s.A * sigma_inv
    b = sigma * s.A_star * sigma_inv
    got = ingest_pair(a, b)
    assert got is not None and got.verified
    # the admissible ordering is unique here, so the array is recovered exactly
    assert isomorphic(got.params, w5_array)


def test_ingest_rejects_non_ch(gf5):
    a = Matrix.diagonal(gf5, [1, 2, 4, 3])
    b = Matrix.diagonal(gf5, [1, 3, 2, 4])
    assert ingest_pair(a, b) is None


def test_parameter_array_validation(gf5):
    with pytest.raises(ValueError):
        ParameterArray.make(gf5, [1, 1, 2, 3], [1, 2, 4, 3], [1, 1, 1])
    with pytest.raises(ValueError):
        ParameterArray.make(gf5, [1, 2, 4, 3], [1, 2, 4, 3], [0, 1, 1])
    with pytest.raises(DimensionMismatchError):
        ParameterArray.make(gf5, [1, 2, 4], [1, 2, 4], [1, 1])


def test_parameter_array_json_roundtrip(w5_array):
    assert ParameterArray.from_json(w5_array.to_json()) == w5_array


def test_trace_product_identity(w5_array):
    """tr(E_0 E*_0) equals the closed product of phi over the eigenvalue
    difference products."""
    s = split_form_build(w5_array)
    spec = w5_array.spec
    num = spec.one_element()
    for x in w5_array.phi:
        num = num * x
    den = spec.one_element()
    for i in range(1, 4):
        den = den * (w5_array.theta[0] - w5_array.theta[i])
        den = den * (w5_array.theta_star[0] - w5_array.theta_star[i])
    assert (s.E[0] * s.E_star[0]).trace() == num / den
    assert (s.E[0] * s.E_star[0]).trace() == spec.element(4)


def test_identity_in_place_of_a_fails(w5_array, gf5):
    """Swapping A for the identity leaves valid idempotent families but no
    ordering can satisfy the pattern: the subdiagonal products vanish."""
    from circhess.systems import CHSystem
    from circhess.linalg import primitive_idempotents

    s = split_form_build(w5_array)
    ident = Matrix.identity(gf5, 4)
    sys = CHSystem(gf5, 3, ident, s.A_star, s.E, s.E_star, s.theta, s.theta_star)
    out = verify_ch_axioms(sys)
    assert not out.is_ch
    assert any(cond == "v" for cond, _, _ in out.failures)


@pytest.mark.parametrize("side", ["E", "E_star"])
def test_tampered_idempotents_raise(w5_array, side):
    """verify_ch_axioms is where the idempotent algebra is checked: a family
    with E_0 replaced by E_0 + E_1 no longer sums to I and is rejected."""
    s = split_form_build(w5_array)
    family = list(getattr(s, side))
    family[0] = family[0] + family[1]
    setattr(s, side, tuple(family))
    with pytest.raises(CorruptIdempotentsError):
        verify_ch_axioms(s)
    assert not s.verified
