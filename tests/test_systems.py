"""System construction, axiom verification, extraction, duality, ingest."""

import functools
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from circhess import (
    Family,
    FamilyParameters,
    FieldElement,
    Matrix,
    ParameterArray,
    Vector,
    cyclic_irreducibility_check,
    cyclotomic_field,
    determinant,
    dual_system,
    extract_parameter_array,
    family_generate,
    field_from_string,
    ingest_pair,
    isomorphic,
    isomorphism_witness,
    iter_family_instances,
    matrix_inverse,
    prime_field,
    split_form_build,
    verify_ch_axioms,
)
from circhess.errors import (
    CircHessError,
    CorruptIdempotentsError,
    DimensionMismatchError,
    InvalidFamilyParametersError,
    InvalidParameterArrayError,
    MixedFieldsError,
    NotInE0StarVError,
    UnverifiedSystemError,
    ZeroVectorError,
)
from circhess.linalg import ShapeClass, _shape_pattern, rank
from circhess.systems import (
    IdempotentFamily,
    _family_tables,
    _ordering,
    _rank_one_factors,
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


def _first_ordering_by_enumeration(zeros, n):
    """The ordering ingest chose by enumeration: every Hamiltonian cycle of
    succ anchored at 0, in permutation order, forward and then reversed,
    each rotation in turn; the first that passes the pattern."""
    pattern = _shape_pattern(ShapeClass.CIRCULAR_HESSENBERG, n)
    for rest in itertools.permutations(range(1, n)):
        cycle = [0, *rest]
        if any(zeros[w, v] for v, w in zip(cycle, cycle[1:] + cycle[:1])):
            continue
        for direction in (cycle, cycle[::-1]):
            for r in range(n):
                o = direction[r:] + direction[:r]
                if all(zeros[o[i], o[j]] == zero for i, j, zero in pattern):
                    return o
    return None


@pytest.mark.parametrize("succ", [
    [[1, 2], [3], [1], [2, 0]],  # the first branch 0, 1, 3, 2 cannot close
    [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
    [[1], [2], [0], [0]],  # no Hamiltonian cycle
])
def test_hamiltonian_cycles_match_brute_force(succ):
    """On a hand-made succ graph, given as the zero table with
    E_i X E_j != 0 exactly when i is in succ[j], the forced walk returns
    the ordering the enumeration returned first, and any ordering it
    returns runs along a Hamiltonian cycle that a brute force over
    permutations finds."""
    n = len(succ)
    brute = [
        [0, *rest] for rest in itertools.permutations(range(1, n))
        if all(w in succ[v] for v, w in zip((0, *rest), (*rest, 0)))
    ]
    zeros = {(i, j): i not in succ[j] for i in range(n) for j in range(n)}
    o = _ordering(zeros, n)
    assert o == _first_ordering_by_enumeration(zeros, n)
    if o is not None:
        anchored = o[o.index(0):] + o[:o.index(0)]
        assert anchored in brute
    if succ[0] == [1, 2]:
        assert brute == [[0, 2, 1, 3]]
    if not brute:
        assert o is None


def _ordering_tables():
    """2,000 seeded zero tables with n = 4..7: half dense random, half the
    pattern of a random ordering with its free entries drawn, some
    perturbed."""
    rng = random.Random(27)
    for t in range(2000):
        n = rng.randint(4, 7)
        cells = list(itertools.product(range(n), repeat=2))
        if t % 2:
            p = rng.choice((0.2, 0.5, 0.8))
            yield n, {c: rng.random() < p for c in cells}
            continue
        o = rng.sample(range(n), n)
        zeros = {c: rng.random() < 0.5 for c in cells}
        for i, j, zero in _shape_pattern(ShapeClass.CIRCULAR_HESSENBERG, n):
            zeros[o[i], o[j]] = zero
        for c in rng.sample(cells, rng.choice((0, 0, 1, 2))):
            zeros[c] = not zeros[c]
        yield n, zeros


def test_ordering_walk_matches_enumeration():
    """The forced walk returns the ordering that enumerating Hamiltonian
    cycles, their rotations and reflections returned first, or None with
    it; a fair share of the tables has a valid ordering."""
    found = 0
    for n, zeros in _ordering_tables():
        want = _first_ordering_by_enumeration(zeros, n)
        assert _ordering(zeros, n) == want
        found += want is not None
    assert found > 500


def test_parameter_array_validation(gf5):
    with pytest.raises(ValueError):
        ParameterArray.make(gf5, [1, 1, 2, 3], [1, 2, 4, 3], [1, 1, 1])
    with pytest.raises(ValueError):
        ParameterArray.make(gf5, [1, 2, 4, 3], [1, 2, 4, 3], [0, 1, 1])
    with pytest.raises(DimensionMismatchError):
        ParameterArray.make(gf5, [1, 2, 4], [1, 2, 4], [1, 1])


def test_parameter_array_errors_are_typed(gf5):
    """A repeated theta or theta* value and a zero phi entry raise one typed
    error, which is still a ValueError."""
    for theta, theta_star, phi in (
        ([1, 1, 2, 3], [1, 2, 4, 3], [1, 1, 1]),
        ([1, 2, 4, 3], [0, 2, 0, 3], [1, 1, 1]),
        ([1, 2, 4, 3], [1, 2, 4, 3], [1, 0, 1]),
    ):
        with pytest.raises(InvalidParameterArrayError) as info:
            ParameterArray.make(gf5, theta, theta_star, phi)
        assert isinstance(info.value, CircHessError)
        assert isinstance(info.value, ValueError)


def test_parameter_array_entries_lie_in_its_field(w5_array, gf5):
    """Every entry must be a FieldElement of the array's field: one over
    GF(7) or a bare payload in any position raises MixedFieldsError, and an
    entry over an equal but distinct GF(5) spec object is accepted."""
    parts = (w5_array.theta, w5_array.theta_star, w5_array.phi)
    for k, seq in enumerate(parts):
        for bad in (FieldElement(prime_field(7), seq[0].payload), seq[0].payload):
            args = list(parts)
            args[k] = (bad,) + seq[1:]
            with pytest.raises(MixedFieldsError):
                ParameterArray(gf5, w5_array.d, *args)
    twin = prime_field(5)
    assert twin == gf5 and twin is not gf5
    args = [tuple(FieldElement(twin, e.payload) for e in seq) for seq in parts]
    assert ParameterArray(gf5, w5_array.d, *args) == w5_array


def test_parameter_array_json_roundtrip(w5_array):
    assert ParameterArray.from_json(w5_array.to_json()) == w5_array


_FAMILY_CASES = [
    ("F1", "gf:5", 3),
    ("F1", "gf:7", 5),
    ("F2", "gf:5", 4),
    ("F2", "gf:7", 6),
    ("F3", "ext:gf:3:1,0,1", 5),
    ("F4", "ext:gf:2:1,1,1", 3),
]


@functools.cache
def _family_arrays(family, field, d):
    spec = field_from_string(field)
    return [family_generate(fp)
            for fp in iter_family_instances(Family(family), spec, d, 12)]


@st.composite
def family_arrays(draw):
    """A generated F1-F4 array: a family instance over a finite field
    under a drawn map theta -> s theta + t, theta* -> s* theta* + t*,
    phi -> s s* phi (which keeps the axioms), or an F1 array over cyclo:4
    from drawn rational family data with q = t."""
    if draw(st.booleans()):
        p = draw(st.sampled_from(_family_arrays(*draw(st.sampled_from(_FAMILY_CASES)))))
        elems = list(p.spec.elements())
        nonzero = [e for e in elems if not e.is_zero()]
        s, s_star = draw(st.sampled_from(nonzero)), draw(st.sampled_from(nonzero))
        t, t_star = draw(st.sampled_from(elems)), draw(st.sampled_from(elems))
        return ParameterArray(p.spec, p.d, tuple(s * x + t for x in p.theta),
                              tuple(s_star * x + t_star for x in p.theta_star),
                              tuple(s * s_star * x for x in p.phi))
    cy4 = cyclotomic_field(4)
    rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    data = {k: draw(rational)
            for k in ("a", "b", "c", "a_star", "b_star", "c_star", "y", "z")}
    try:
        return family_generate(FamilyParameters.make(
            Family.F1_GENERIC_Q, cy4, 3, q=cy4.generator(), **data))
    except InvalidFamilyParametersError:
        reject()


@settings(max_examples=100, deadline=None)
@given(family_arrays())
def test_parameter_array_json_roundtrip_generated(p):
    assert ParameterArray.from_json(json.loads(json.dumps(p.to_json()))) == p


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


@pytest.mark.parametrize("side, cond", [("A", "ii"), ("A_star", "iii")])
def test_shifted_matrix_is_not_ch(w5_array, side, cond):
    """A family must belong to its matrix: with A + I in place of A, each
    E_j is an idempotent of A + I for theta_j + 1, not theta_j, so every
    member fails item (ii), and likewise (iii) for A* + I.  The shift moves
    only the diagonal products, which the pattern leaves free."""
    s = split_form_build(w5_array)
    setattr(s, side, getattr(s, side) + Matrix.identity(s.spec, 4))
    out = verify_ch_axioms(s)
    assert not out.is_ch
    assert out.failures == [(cond, j, j) for j in range(4)]
    assert not s.verified


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


@pytest.mark.parametrize("side", ["E", "E_star"])
def test_zero_idempotent_member_raises(w5_array, side):
    """E_0 -> E_0 + E_1 and E_1 -> 0 keeps sum E_i = I and every relation
    E_i E_j = delta_ij E_i, but a zero member is not a primitive idempotent."""
    s = split_form_build(w5_array)
    family = list(getattr(s, side))
    family[0] = family[0] + family[1]
    family[1] = Matrix.zero(s.spec, 4)
    setattr(s, side, tuple(family))
    with pytest.raises(CorruptIdempotentsError):
        verify_ch_axioms(s)
    assert not s.verified


@pytest.mark.parametrize("side", ["E", "E_star"])
def test_family_of_wrong_count_or_size_raises(w5_array, gf5, side):
    """The factor check w_i . u_j = delta_ij p_i is sum E_i = I only for
    n = d + 1 members of size n x n, so count and size are checked first.
    An empty family, the first three members of W5's family, the three
    3 x 3 diagonal units and four of the five 5 x 5 ones (all orthogonal
    rank-one idempotents) each raise, with as many distinct labels as
    members."""
    w5 = split_form_build(w5_array)
    labels = "theta_star" if side == "E_star" else "theta"

    def units(m, size):
        return [Matrix.diagonal(gf5, [int(k == i) for k in range(size)])
                for i in range(m)]

    for family in ([], getattr(w5, side)[:3], units(3, 3), units(4, 5)):
        s = split_form_build(w5_array)
        setattr(s, side, tuple(family))
        setattr(s, labels, getattr(s, labels)[:len(family)])
        with pytest.raises(CorruptIdempotentsError):
            verify_ch_axioms(s)
        assert not s.verified


@pytest.mark.parametrize("side", ["A", "A_star"])
def test_matrix_of_wrong_shape_raises(w5_array, gf5, side):
    """A or A* of W5 with a column of ones appended (4 x 5) or a row of
    ones appended (5 x 4) raises DimensionMismatchError.  A product with
    the 4 x 5 one reads only its leading columns, so it was reported CH."""
    m = getattr(split_form_build(w5_array), side)
    for bad in (Matrix(gf5, [r + (1,) for r in m.rows]),
                Matrix(gf5, m.rows + ((1,) * 4,))):
        s = split_form_build(w5_array)
        setattr(s, side, bad)
        with pytest.raises(DimensionMismatchError):
            verify_ch_axioms(s)
        assert not s.verified


def test_oracle_builds_no_matrix(monkeypatch, w5_array):
    """verify_ch_axioms on a prebuilt W5 system constructs no Matrix: the
    family checks, membership and the pattern all work on the factors."""
    s = split_form_build(w5_array)
    init = Matrix.__init__
    count = 0

    def counted(self, *args):
        nonlocal count
        count += 1
        init(self, *args)

    monkeypatch.setattr(Matrix, "__init__", counted)
    assert verify_ch_axioms(s).is_ch
    assert count == 0


def test_oracle_kernel_calls(monkeypatch, w5_array, gf5):
    """One W5 verify_ch_axioms makes 4 `dots` calls, two tables per family,
    and no `dot` call.  Ingest's ordering search builds each side's zero
    table with `dots` alone: past the Lagrange idempotents, 2 `dots` calls
    per side and no `dot`."""
    from circhess import systems
    from circhess.fields import PrimeField

    calls = []
    for name in ("dot", "dots"):
        kernel = getattr(PrimeField, name)
        monkeypatch.setattr(PrimeField, name, lambda self, *args, _k=kernel, _n=name:
                            calls.append(_n) or _k(self, *args))
    s = split_form_build(w5_array)
    calls.clear()
    assert verify_ch_axioms(s).is_ch
    assert calls == ["dots"] * 4

    idempotents, find, sides = systems.primitive_idempotents, systems._find_ordering, []

    def lagrange(*args):
        mark = len(calls)
        out = idempotents(*args)
        del calls[mark:]
        return out

    def ordering(*args):
        mark = len(calls)
        out = find(*args)
        sides.append(calls[mark:])
        return out

    monkeypatch.setattr(systems, "primitive_idempotents", lagrange)
    monkeypatch.setattr(systems, "_find_ordering", ordering)
    sigma = Matrix.from_elements(
        gf5, [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, 4], [1, 0, 0, 1]]
    )
    sigma_inv = matrix_inverse(sigma)
    got = ingest_pair(sigma * s.A * sigma_inv, sigma * s.A_star * sigma_inv)
    assert got is not None and got.verified and isomorphic(got.params, w5_array)
    assert sides == [["dots", "dots"]] * 2


def _count_matrix_inits(monkeypatch) -> list:
    """Wrap Matrix.__init__; the returned one-item list holds the count."""
    init = Matrix.__init__
    count = [0]

    def counted(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(Matrix, "__init__", counted)
    return count


def test_build_and_verify_construct_only_a_and_a_star(monkeypatch, w5_array):
    """One W5 split_form_build + verify_ch_axioms constructs two matrices,
    A and A*: the families go to the oracle as factors, and A*'s
    eigenvectors are read off A* without forming its transpose.  The
    matrices of E and E* are formed once, on first read."""
    count = _count_matrix_inits(monkeypatch)
    s = split_form_build(w5_array)
    assert verify_ch_axioms(s).is_ch
    assert count[0] == 2
    assert s.E is s.E and s.E_star is s.E_star
    assert count[0] == 2 + 2 * 4


def test_dual_system_swaps_factors(monkeypatch, w5_array):
    """dual_system hands the stored families over swapped: it constructs no
    matrix, and its E is the original E*."""
    s = split_form_build(w5_array)
    assert verify_ch_axioms(s).is_ch
    count = _count_matrix_inits(monkeypatch)
    t = dual_system(s)
    assert t.verified and count[0] == 0
    assert t.family is s.family_star and t.family_star is s.family
    assert t.E == s.E_star


def test_ingest_factors_each_idempotent_once(monkeypatch, w5_array, gf5):
    """ingest_pair factors each Lagrange idempotent once, in the ordering
    search, and verify_ch_axioms reads the factors it carries."""
    from circhess import systems

    s = split_form_build(w5_array)
    sigma = Matrix.from_elements(
        gf5, [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, 4], [1, 0, 0, 1]]
    )
    sigma_inv = matrix_inverse(sigma)
    factor = systems._rank_one_factors
    calls = []
    monkeypatch.setattr(systems, "_rank_one_factors",
                        lambda e: calls.append(e) or factor(e))
    got = ingest_pair(sigma * s.A * sigma_inv, sigma * s.A_star * sigma_inv)
    assert got is not None and got.verified and isomorphic(got.params, w5_array)
    assert len(calls) == 2 * 4


@pytest.mark.parametrize("side", ["E", "E_star"])
def test_corrupt_factor_family_raises(w5_array, side):
    """verify_ch_axioms trusts no factors it is handed.  From W5's family:
    p_0 = 0 (also with w_0 = 0, which leaves every w_0 . u_j = 0 = p_0),
    u_0 or w_0 one entry too long, and w_0 -> w_0 + w_1, which makes
    w_0 . u_1 != 0."""
    spec = w5_array.spec
    zero = spec.zero
    good = getattr(split_form_build(w5_array),
                   "family" if side == "E" else "family_star").factors()
    (u0, w0, p0), (_, w1, _) = good[0], good[1]
    for member in ((u0, w0, zero), (u0, [zero] * 4, zero),
                   (list(u0) + [zero], w0, p0), (u0, list(w0) + [zero], p0),
                   (u0, [spec.add(x, y) for x, y in zip(w0, w1)], p0)):
        s = split_form_build(w5_array)
        setattr(s, side, IdempotentFamily(spec, factors=[member] + good[1:]))
        with pytest.raises(CorruptIdempotentsError):
            verify_ch_axioms(s)
        assert not s.verified
    s = split_form_build(w5_array)
    setattr(s, side, IdempotentFamily(spec, factors=good))
    assert verify_ch_axioms(s).is_ch


def test_scaled_factors_give_the_same_family(w5_array):
    """(u, c w, c) is the member u w^T for every c != 0: the system
    verifies, and its matrices are the split form's."""
    base = split_form_build(w5_array)
    spec = w5_array.spec
    for c in (2, 3, 4):
        s = split_form_build(w5_array)
        for side in ("E", "E_star"):
            family = getattr(base, "family" if side == "E" else "family_star")
            scaled = [(u, [spec.mul(c, x) for x in w], spec.mul(c, p))
                      for u, w, p in family.factors()]
            setattr(s, side, IdempotentFamily(spec, factors=scaled))
        assert verify_ch_axioms(s).is_ch
        assert s.E == base.E and s.E_star == base.E_star


def test_split_vectors_build_no_matrix(monkeypatch, w5_array):
    """The split vectors step v -> A v - theta v on vectors, so they build no
    Matrix (no A - theta I), and extracting the array builds only the matrix
    of its rank check."""
    from circhess.systems import _default_seed, _split_vectors

    s = split_form_build(w5_array)
    assert verify_ch_axioms(s).is_ch
    seed = _default_seed(s)
    init = Matrix.__init__
    count = 0

    def counted(self, *args):
        nonlocal count
        count += 1
        init(self, *args)

    monkeypatch.setattr(Matrix, "__init__", counted)
    vs = _split_vectors(s.A, s.theta, s.E_star[0], seed)
    assert count == 0
    params, split = extract_parameter_array(s, seed)
    assert count == 1
    assert params == w5_array and split.generators == vs


# --- the oracle against its definition ---------------------------------------

def _random_element(spec, rng):
    if spec.order is not None:
        return FieldElement(spec, rng.choice(list(spec.element_payloads())))
    t = spec.generator()
    return sum((spec.element(rng.randint(-3, 3)) * t**i for i in range(spec.deg)),
               spec.zero_element())


def _random_square(spec, n, rng):
    return Matrix.from_elements(
        spec, [[_random_element(spec, rng) for _ in range(n)] for _ in range(n)]
    )


def _pairwise_family_ok(E, ident) -> bool:
    """The definition: sum E_i = I and E_i E_j = delta_ij E_i, every pair."""
    total = E[0]
    for e in E[1:]:
        total = total + e
    if total != ident:
        return False
    for i, ei in enumerate(E):
        for j, ej in enumerate(E):
            prod = ei * ej
            if prod != (ei if i == j else Matrix.zero(ei.spec, ei.nrows)):
                return False
    return True


def _spectral_family_ok(E, labels, ident) -> bool:
    try:
        _family_tables(IdempotentFamily(ident.spec, matrices=E), labels, ident, ident)
    except CorruptIdempotentsError:
        return False
    return True


def _cases(fields, ds):
    """(field, d) pairs whose field has at least d + 1 elements."""
    out = []
    for f in fields:
        order = field_from_string(f).order
        out += [(f, d) for d in ds if order is None or order > d]
    return out


@pytest.mark.parametrize(
    "field, d", _cases(("gf:5", "gf:7", "ext:gf:3:1,0,1", "cyclo:4"), (3, 4, 5))
)
def test_spectral_family_check_matches_pairwise_definition(field, d):
    """A valid family is P diag(e_i) P^-1 for a random invertible P, with
    random distinct labels (GF(5) has no 6 distinct labels, so d = 5 is
    skipped there).  Sum-preserving tamperings E_0 + X, E_1 - X are invalid
    for a generic X and valid for X = E_0 N E_1; both checks must agree on
    all three.  The spectral check alone also rejects a zero member and a
    repeated label, which the pairwise definition does not look at."""
    spec = field_from_string(field)
    n = d + 1
    rng = random.Random(f"{field}/{d}")
    ident = Matrix.identity(spec, n)
    for _ in range(2):
        while True:
            p = _random_square(spec, n, rng)
            if not determinant(p).is_zero():
                break
        p_inv = matrix_inverse(p)
        E = [p * Matrix.diagonal(spec, [int(k == i) for k in range(n)]) * p_inv
             for i in range(n)]
        labels = []
        while len(labels) < n:
            x = _random_element(spec, rng)
            if x not in labels:
                labels.append(x)
        assert _pairwise_family_ok(E, ident)
        assert _spectral_family_ok(E, labels, ident)

        x = _random_square(spec, n, rng)
        generic = [E[0] + x, E[1] - x] + E[2:]
        assert not _pairwise_family_ok(generic, ident)
        assert not _spectral_family_ok(generic, labels, ident)

        x = Matrix.zero(spec, n)
        while x.is_zero():
            x = E[0] * _random_square(spec, n, rng) * E[1]
        shifted = [E[0] + x, E[1] - x] + E[2:]
        assert _pairwise_family_ok(shifted, ident)
        assert _spectral_family_ok(shifted, labels, ident)

        zero_member = [E[0] + E[1], Matrix.zero(spec, n)] + E[2:]
        assert _pairwise_family_ok(zero_member, ident)
        assert not _spectral_family_ok(zero_member, labels, ident)

        repeated = [labels[0]] + labels[1:-1] + [labels[0]]
        assert not _spectral_family_ok(E, repeated, ident)


@pytest.mark.parametrize("side", ["E", "E_star"])
def test_rank_one_family_that_is_not_idempotent_raises(w5_array, side):
    """Families whose members all have rank one but which are not families
    of idempotents: E_0 doubled, E_0 in place of E_1, and E_0 replaced by
    u_0 w_1^T (a column of E_0 times a row of E_1).  None sums to I."""
    s = split_form_build(w5_array)
    family = list(getattr(s, side))
    ident = Matrix.identity(s.spec, 4)
    column = Matrix(s.spec, [[x] for x in family[0].column(0).payloads])
    row = Matrix(s.spec, [next(r for r in family[1].rows if any(r))])
    for tampered in ([family[0].scale(2)] + family[1:],
                     family[:1] + family[:1] + family[2:],
                     [column * row] + family[1:]):
        assert all(rank(e) == 1 for e in tampered)
        assert not _pairwise_family_ok(tampered, ident)
        setattr(s, side, tuple(tampered))
        with pytest.raises(CorruptIdempotentsError):
            verify_ch_axioms(s)
        assert not s.verified


def _rank_r_matrix(spec, n, r, rng, lead=0):
    """A seeded n x n matrix of rank r, a sum of r outer products x y^T
    whose first `lead` coordinates are zero; redrawn until the rank is r."""
    pool = _pool(spec)

    def vec():
        return [spec.zero_element()] * lead + [rng.choice(pool)
                                               for _ in range(n - lead)]

    while True:
        m = Matrix.zero(spec, n)
        for _ in range(r):
            x = Matrix.from_elements(spec, [[c] for c in vec()])
            m = m + x * Matrix.from_elements(spec, [vec()])
        if rank(m) == r:
            return m


@pytest.mark.parametrize("field", ["gf:5", "ext:gf:3:1,0,1", "cyclo:4", "rat"])
def test_rank_one_factors_exactly_on_rank_one_matrices(field):
    """_rank_one_factors returns factors exactly when the rank is one, and
    then u w^T / pivot is the matrix.  Seeded matrices of rank 0, 1, 2 and
    full; the rank-one ones include zero leading rows and columns."""
    spec = field_from_string(field)
    n = 4
    rng = random.Random(f"factors/{field}")
    for r in (0, 1, 2, n):
        for lead in range(n - 1):
            m = _rank_r_matrix(spec, n, r, rng, lead if r == 1 else 0)
            got = _rank_one_factors(m)
            assert (got is not None) == (rank(m) == 1)
            if got is not None:
                u, w, pivot = got
                outer = Matrix(spec, [[spec.mul(a, b) for b in w] for a in u])
                assert outer.scale(FieldElement(spec, spec.inv(pivot))) == m


def _all_products_failures(s):
    """Reference check that forms every product: M E_j against theta_j E_j
    for membership (M = A, or A* with theta*), then all (d + 1)^2 products
    E_i M E_j per side for the pattern."""
    d = s.d
    failures = []
    for cond, family, own, labels in (("ii", s.E, s.A, s.theta),
                                      ("iii", s.E_star, s.A_star, s.theta_star)):
        failures += [(cond, j, j) for j in range(d + 1)
                     if own * family[j] != family[j].scale(labels[j])]
    for cond, family, middle in (("iv", s.E, s.A_star), ("v", s.E_star, s.A)):
        for i in range(d + 1):
            for j in range(d + 1):
                zero = (family[i] * middle * family[j]).is_zero()
                if ((i - j > 1) or (1 < j - i < d)) and not zero:
                    failures.append((cond, i, j))
                elif ((i - j == 1) or (j - i == d)) and zero:
                    failures.append((cond, i, j))
    return failures


@pytest.mark.parametrize(
    "field, d",
    _cases(("gf:5", "gf:7", "ext:gf:2:1,1,1", "cyclo:4", "rat"), (3, 4, 5)),
)
def test_failures_match_all_products_reference(field, d):
    """Skipping the pairs the pattern leaves free changes no failure list.
    The fields run every `dots` kernel: GF(p)'s, the Zech tables', the
    integer one of QQ(i) and the generic one of QQ, the last two on arrays
    drawn from a small element pool."""
    spec = field_from_string(field)
    rng = random.Random(f"{field}/{d}")
    non_ch = 0
    for _ in range(6):
        p = _random_array(spec, d, rng)
        s = split_form_build(p)
        out = verify_ch_axioms(s)
        assert out.failures == _all_products_failures(s)
        assert out.is_ch == (not out.failures)
        non_ch += not out.is_ch
    assert non_ch > 0


@pytest.mark.parametrize("theta, phi, expected", [
    ([1, 2, 4, 3], [3, 2, 4], 0),
    ([0, 1, 2, 3, 4], [1, 2, 3, 4], 0),
])
def test_oracle_matrix_product_count(monkeypatch, gf5, theta, phi, expected):
    """Matrix x Matrix products in one split_form_build + verify_ch_axioms
    on a GF(5) hit (theta* = theta): none.  The closed-form build, the
    rank-one family checks and the pattern test work on factors."""
    p = ParameterArray.make(gf5, theta, theta, phi)
    mul = Matrix.__mul__
    count = 0

    def counted(self, other):
        nonlocal count
        count += isinstance(other, Matrix)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert verify_ch_axioms(split_form_build(p)).is_ch
    assert count == expected


def _pool(spec):
    """Elements to sample arrays from: the whole field when it is finite."""
    if spec.order is not None:
        return list(spec.elements())
    e = spec.element
    if getattr(spec, "deg", 1) == 1:
        return [e(x) for x in range(-6, 7)]
    t = spec.generator()
    return [e(x) + e(y) * t for x in range(-2, 3) for y in range(-2, 3)]


def _random_array(spec, d, rng):
    pool = _pool(spec)
    nonzero = [x for x in pool if not x.is_zero()]
    return ParameterArray(spec, d, tuple(rng.sample(pool, d + 1)),
                          tuple(rng.sample(pool, d + 1)),
                          tuple(rng.choice(nonzero) for _ in range(d)))


@pytest.mark.parametrize("field, d", _cases(
    ("gf:5", "gf:7", "ext:gf:2:1,1,1", "ext:gf:3:1,0,1", "cyclo:4", "rat"),
    (3, 4, 5, 6),
))
def test_closed_form_idempotents_match_lagrange(field, d):
    """split_form_build's closed-form rank-one families are exactly the
    Lagrange projectors of A and A*, on seeded arrays, systems or not."""
    from circhess.linalg import primitive_idempotents

    spec = field_from_string(field)
    rng = random.Random(f"closed/{field}/{d}")
    non_ch = 0
    for _ in range(10):
        p = _random_array(spec, d, rng)
        s = split_form_build(p)
        assert list(s.E) == primitive_idempotents(s.A, p.theta)
        assert list(s.E_star) == primitive_idempotents(s.A_star, p.theta_star)
        non_ch += not verify_ch_axioms(s).is_ch
    assert non_ch > 0


@pytest.mark.parametrize("call", [0, 1])
@pytest.mark.parametrize("corrupt", ["swap", "shift"])
def test_corrupt_closed_form_rejected(monkeypatch, w5_array, call, corrupt):
    """Closed-form eigenvectors whose family does not belong to its matrix
    are built without complaint and rejected by verify_ch_axioms.  The
    builder takes E from the unit-chain table of A's diagonal (call 0) and
    E* from the scaled triples of A*^T (call 1), so those are corrupted.
    Two (r, s, p) triples swapped leave a valid family with two members
    under each other's labels: items (ii) or (iii) fail at exactly those
    two indices.  r_0 replaced by r_0 + r_1 leaves a family that does not
    sum to I."""
    from circhess import systems

    name = ("_unit_chain_eigenvectors", "_scaled_eigenvectors")[call]
    helper = getattr(systems, name)
    calls = []

    def corrupted(spec, *args):
        pairs = list(helper(spec, *args))
        if not calls:
            if corrupt == "swap":
                pairs[0], pairs[1] = pairs[1], pairs[0]
            else:
                (r0, s0, p0), (r1, _, _) = pairs[0], pairs[1]
                pairs[0] = ([spec.add(x, y) for x, y in zip(r0, r1)], s0, p0)
        calls.append(args)
        return pairs

    monkeypatch.setattr(systems, name, corrupted)
    s = split_form_build(w5_array)
    if corrupt == "shift":
        with pytest.raises(CorruptIdempotentsError):
            verify_ch_axioms(s)
    else:
        out = verify_ch_axioms(s)
        assert not out.is_ch
        # A's diagonal lists theta reversed, so pairs 0 and 1 are E_3 and E_2
        swapped = [("ii", 2, 2), ("ii", 3, 3)] if call == 0 else \
            [("iii", 0, 0), ("iii", 1, 1)]
        assert [f for f in out.failures if f[0] in ("ii", "iii")] == swapped
        assert out.failures == _all_products_failures(s)
    assert not s.verified


def test_eigenvector_memo_survives_mutation(w5_array):
    """_bidiagonal_eigenvectors reads a memoized table, so the list it
    returns must be the caller's own: after the lists returned for W5's A
    and for W5's A*^T are mutated, a new W5 build still verifies, with the
    factors that a fresh process builds.  The vectors are tuples."""
    from circhess import systems

    for matrix in systems._split_form(w5_array):
        pairs = systems._bidiagonal_eigenvectors(matrix)
        with pytest.raises(TypeError):
            pairs[0][0][0] = w5_array.spec.one
        pairs[0], pairs[1] = pairs[1], pairs[0]
        pairs[2] = (pairs[3][1], pairs[3][0])
        pairs.append(pairs[0])
    s = split_form_build(w5_array)
    assert verify_ch_axioms(s).is_ch
    code = (
        "from circhess import ParameterArray, prime_field, split_form_build\n"
        "p = ParameterArray.make(prime_field(5), [1, 2, 4, 3], [1, 2, 4, 3],"
        " [3, 2, 4])\n"
        "s = split_form_build(p)\n"
        "print(repr([s.family.factors(), s.family_star.factors()]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == repr([s.family.factors(), s.family_star.factors()])


@pytest.mark.parametrize("field", ["gf:5", "cyclo:4"])
def test_split_form_build_inverts_nothing(monkeypatch, w5_array, field):
    """split_form_build hands over the division-free closed form: with the
    eigenvector memo cleared, building W5 (over GF(5)) or a seeded cyclo:4
    array, twice, calls the field's inv 0 times, and verify_ch_axioms on
    the result calls it 0 times too."""
    from circhess import systems

    spec = field_from_string(field)
    p = w5_array if field == "gf:5" else _random_array(spec, 4, random.Random(7))
    calls = []
    inv = type(spec).inv

    def counted(self, a):
        calls.append(a)
        return inv(self, a)

    monkeypatch.setattr(type(spec), "inv", counted)
    systems._unit_chain_eigenvectors.cache_clear()
    for _ in range(2):
        s = split_form_build(p)
        assert calls == []
        verify_ch_axioms(s)
        assert calls == []
    # forming the matrices divides by each p_k, so the counter is live
    assert len(s.E) == len(calls) == p.d + 1


@pytest.mark.parametrize("field, d", _cases(
    ("gf:5", "ext:gf:3:1,0,1", "cyclo:4", "rat"), (3, 4, 5, 6)
))
def test_bidiagonal_eigenvectors_and_displayed_transitions(field, d):
    """_bidiagonal_eigenvectors gives, for A and for A*^T, right and left
    eigenvectors with s_k . r_j = delta_kj p_k and p_k != 0, and the
    standard <-> inv_split transitions read off them equal their displayed
    entries on p and on p.dual(), on seeded arrays, systems or not."""
    from circhess.bases import _inv_split_edge
    from circhess.systems import _bidiagonal_eigenvectors, _split_form

    spec = field_from_string(field)
    rng = random.Random(f"eigenvectors/{field}/{d}")
    one, zero = spec.one_element(), spec.zero_element()
    n = d + 1

    def prod(elems):
        acc = one
        for e in elems:
            acc = acc * e
        return acc

    for _ in range(5):
        p = _random_array(spec, d, rng)
        a, a_star = _split_form(p)
        for low in (a, a_star.transpose()):
            pairs = _bidiagonal_eigenvectors(low)
            for k, (r_k, s_k, p_k) in enumerate(pairs):
                lk = low.entry(k, k)
                r, s = Vector(spec, r_k), Vector(spec, s_k)
                assert low * r == r.scale(lk)
                assert low.transpose() * s == s.scale(lk)
                assert FieldElement(spec, p_k) != zero
                for j, (r_j, _, _) in enumerate(pairs):
                    dot = FieldElement(spec, spec.dot(s_k, r_j))
                    assert dot == (FieldElement(spec, p_k) if j == k else zero)
        for q in (p, p.dual()):
            th = q.theta
            upper = [[prod(th[i] - th[l] for l in range(j + 1, n)) if i <= j
                      else zero for j in range(n)] for i in range(n)]
            inverse = [[prod(th[j] - th[l] for l in range(i, n) if l != j).inverse()
                        if i <= j else zero for j in range(n)] for i in range(n)]
            assert _inv_split_edge(q, None, "standard", "inv_split") == \
                Matrix.from_elements(spec, upper)
            assert _inv_split_edge(q, None, "inv_split", "standard") == \
                Matrix.from_elements(spec, inverse)


@pytest.mark.parametrize("field, d", _cases(
    ("gf:5", "gf:7", "ext:gf:2:1,1,1", "ext:gf:3:1,0,1"), (3, 4, 5)
) + [("cyclo:4", 3)])
def test_rank_one_pattern_test_matches_all_products_on_conjugated_pairs(field, d):
    """Systems whose idempotents are not the split form's: the pair
    conjugated by a seeded sigma, with both families from
    primitive_idempotents.  The rank-one pattern test of verify_ch_axioms
    gives the failure list of the all-products reference, hits or not."""
    from circhess.linalg import primitive_idempotents
    from circhess.systems import CHSystem

    spec = field_from_string(field)
    n = d + 1
    rng = random.Random(f"conjugated/{field}/{d}")
    outcomes = set()
    for k in range(6):
        if d == 3 and k < 2 and spec.order is not None:
            p = _random_split_hit(spec, d, rng).params
        else:
            p = _random_array(spec, d, rng)
        base = split_form_build(p)
        while True:
            sigma = _random_square(spec, n, rng)
            if not determinant(sigma).is_zero():
                break
        sigma_inv = matrix_inverse(sigma)
        a = sigma * base.A * sigma_inv
        b = sigma * base.A_star * sigma_inv
        s = CHSystem(spec, d, a, b, primitive_idempotents(a, p.theta),
                     primitive_idempotents(b, p.theta_star), p.theta, p.theta_star)
        assert s.E != base.E
        out = verify_ch_axioms(s)
        assert out.failures == _all_products_failures(s)
        assert out.is_ch == (not out.failures)
        outcomes.add(out.is_ch)
    assert False in outcomes
    if d == 3 and spec.order is not None:
        assert True in outcomes


@pytest.mark.parametrize(
    "field, d", [("gf:5", 3), ("gf:5", 4), ("ext:gf:2:1,1,1", 3), ("gf:7", 3)]
)
def test_membership_failures_match_all_products_reference(field, d):
    """Verified split systems made to fail membership: labels rotated
    against their families, A + I, and A* + I.  The oracle gives the
    all-products reference's failure list, and it has the membership
    failures of each."""
    from circhess.systems import CHSystem

    spec = field_from_string(field)
    s = _random_split_hit(spec, d, random.Random(f"members/{field}/{d}"))
    ident = Matrix.identity(spec, d + 1)
    every = list(range(d + 1))
    cases = [
        ((s.A, s.A_star, s.theta[1:] + s.theta[:1],
          s.theta_star[1:] + s.theta_star[:1]), every, every),
        ((s.A + ident, s.A_star, s.theta, s.theta_star), every, []),
        ((s.A, s.A_star + ident, s.theta, s.theta_star), [], every),
    ]
    for (a, a_star, theta, theta_star), ii, iii in cases:
        t = CHSystem(spec, d, a, a_star, s.E, s.E_star, theta, theta_star)
        out = verify_ch_axioms(t)
        assert out.failures == _all_products_failures(t)
        assert [f for f in out.failures if f[0] in ("ii", "iii")] == \
            [("ii", j, j) for j in ii] + [("iii", j, j) for j in iii]
        assert not out.is_ch and not t.verified


def _brute_closure_is_everything(spec, mats, seed):
    """Enumerate the closure of span{seed} under mats as a set of vectors,
    widening it by one vector at a time; independent of elimination."""
    scalars = [FieldElement(spec, c) for c in spec.element_payloads()]
    span = {Vector.zero(spec, seed.n)}
    todo = [seed]  # every vector of span has its images queued once
    while todo:
        u = todo.pop()
        if u in span:
            continue
        added = {v + u.scale(c) for v in span for c in scalars} - span
        span |= added
        todo += [m * v for v in added for m in mats]
    return len(span) == spec.order ** seed.n


def _random_split_hit(spec, d, rng):
    """A random verified split system: a sampled array at d = 3, where hits
    are common; at d = 4 an affine image theta -> a theta + b,
    theta* -> a* theta* + b*, phi -> a a* phi of a known GF(5) hit, which
    keeps the axioms."""
    elems = [FieldElement(spec, x) for x in spec.element_payloads()]
    nonzero = [e for e in elems if not e.is_zero()]
    for _ in range(1000):
        if d == 4:
            a, a_star = rng.choice(nonzero), rng.choice(nonzero)
            b, b_star = rng.choice(elems), rng.choice(elems)
            p = ParameterArray.make(
                spec, [a * spec.element(x) + b for x in range(5)],
                [a_star * spec.element(x) + b_star for x in range(5)],
                [a * a_star * spec.element(x) for x in range(1, 5)],
            )
        else:
            p = ParameterArray(
                spec, d, tuple(rng.sample(elems, d + 1)),
                tuple(rng.sample(elems, d + 1)),
                tuple(rng.choice(nonzero) for _ in range(d)),
            )
        s = split_form_build(p)
        if verify_ch_axioms(s).is_ch:
            return s
    raise AssertionError(f"no verified split system in 1000 draws over {spec}, d = {d}")


@pytest.mark.parametrize(
    "field, d", [("gf:5", 3), ("gf:5", 4), ("ext:gf:2:1,1,1", 3), ("gf:7", 3)]
)
def test_cyclic_irreducibility_matches_brute_closure(field, d):
    """Verified split systems: every nonzero seed generates everything."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    rng = random.Random(f"closure/{field}/{d}")
    for _ in range(2):
        s = _random_split_hit(spec, d, rng)
        for _ in range(2):
            w = Vector(spec, [rng.choice(elems) for _ in range(d + 1)])
            if w.is_zero():
                continue
            assert cyclic_irreducibility_check(s, w)
            assert _brute_closure_is_everything(spec, (s.A, s.A_star), w)


def test_cyclic_irreducibility_on_hidden_block_diagonal_pair(gf5):
    """A block-diagonal pair conjugated by a random sigma has the invariant
    subspaces sigma(F^2 + 0) and sigma(0 + F^2); seeds inside one stay in it,
    and the kernel agrees with the enumerated closure on every seed tried."""
    from circhess.systems import CHSystem

    rng = random.Random(17)
    while True:
        sigma = Matrix(gf5, [[rng.randrange(5) for _ in range(4)] for _ in range(4)])
        if not determinant(sigma).is_zero():
            break
    sigma_inv = matrix_inverse(sigma)
    blocks = []
    for _ in range(2):
        m = [[rng.randrange(5) for _ in range(4)] for _ in range(4)]
        for i in range(4):
            for j in range(4):
                if (i < 2) != (j < 2):
                    m[i][j] = 0
        blocks.append(sigma * Matrix(gf5, m) * sigma_inv)
    a, b = blocks
    sys = CHSystem(gf5, 3, a, b, [], [], [], [])
    sys.verified = True  # force the gate to exercise the closure computation
    outcomes = set()
    for k in range(12):
        coeffs = [rng.randrange(5) for _ in range(4)]
        if k % 3 == 0:
            coeffs[2:] = [0, 0]  # a seed in sigma(F^2 + 0)
        elif k % 3 == 1:
            coeffs[:2] = [0, 0]  # a seed in sigma(0 + F^2)
        w = sigma * Vector(gf5, coeffs)
        if w.is_zero():
            continue
        got = cyclic_irreducibility_check(sys, w)
        assert got == _brute_closure_is_everything(gf5, (a, b), w)
        outcomes.add(got)
        if k % 3 != 2:
            assert not got
    assert outcomes == {True, False}


def test_ingest_matrix_product_count(monkeypatch, w5_array, gf5):
    """Matrix x Matrix products in one d = 3 GF(5) ingest: per side, 7 for
    the idempotents; the table of zero products E_i M E_j and
    verify_ch_axioms form none."""
    s = split_form_build(w5_array)
    sigma = Matrix.from_elements(
        gf5, [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, 4], [1, 0, 0, 1]]
    )
    sigma_inv = matrix_inverse(sigma)
    a = sigma * s.A * sigma_inv
    b = sigma * s.A_star * sigma_inv
    mul = Matrix.__mul__
    count = 0

    def counted(self, other):
        nonlocal count
        count += isinstance(other, Matrix)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    got = ingest_pair(a, b)
    assert got is not None and got.verified and isomorphic(got.params, w5_array)
    assert count == 2 * 7 == 14


@pytest.mark.parametrize(
    "field, d",
    _cases(("gf:5", "gf:7", "ext:gf:2:1,1,1", "ext:gf:3:1,0,1"), (3, 4, 5)),
)
def test_dual_split_form_carries_the_e_star_pattern(field, d):
    """split(theta*, theta, phi reversed) is split(theta, theta*, phi) with
    A and A* swapped, conjugated by D J (J the reversal, D diagonal with
    D_{t+1} / D_t = 1 / phi_{d-t}); so every E*_i A E*_j of the array is
    zero exactly when E_i A* E_j of the dual array is.  Checked on random
    arrays, systems or not."""
    spec = field_from_string(field)
    elems = list(spec.element_payloads())
    nonzero = [e for e in elems if not spec.is_zero(e)]
    rng = random.Random(f"dual/{field}/{d}")
    patterns = set()
    for _ in range(8):
        th = tuple(FieldElement(spec, x) for x in rng.sample(elems, d + 1))
        ths = tuple(FieldElement(spec, x) for x in rng.sample(elems, d + 1))
        ph = tuple(FieldElement(spec, rng.choice(nonzero)) for _ in range(d))
        s = split_form_build(ParameterArray(spec, d, th, ths, ph))
        t = split_form_build(ParameterArray(spec, d, ths, th, ph[::-1]))
        diag = [spec.one_element()]
        for k in range(d):
            diag.append(diag[-1] / ph[d - 1 - k])
        dj = Matrix.diagonal(spec, diag) * Matrix.reversal(spec, d + 1)
        dj_inv = matrix_inverse(dj)
        assert dj * s.A_star * dj_inv == t.A
        assert dj * s.A * dj_inv == t.A_star
        pattern = []
        for i in range(d + 1):
            for j in range(d + 1):
                zero = (s.E_star[i] * s.A * s.E_star[j]).is_zero()
                assert zero == (t.E[i] * t.A_star * t.E[j]).is_zero()
                pattern.append(zero)
        patterns.add(tuple(pattern))
    assert len(patterns) > 1
