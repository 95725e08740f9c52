"""Six bases: transitions, representations, normalization, corner scalars."""

import itertools

import pytest

from circhess import (
    BASIS_NAMES,
    Matrix,
    ParameterArray,
    Vector,
    build_basis_catalog,
    dual_system,
    psi_check,
    represent,
    standard_basis_characterize,
    standard_form_entries,
    transition,
    vartheta_from_array,
)
from circhess.errors import IdentityCheckError, NotRecurrentError, UnknownBasisError


@pytest.fixture()
def w5_catalog(w5_system):
    catalog, scalars = build_basis_catalog(w5_system)
    return catalog, scalars


def test_corrupted_edge_in_the_catalog_fails_every_path_across_it(w5_system):
    """With one closed-form edge in catalog.edges changed after its first
    use, every transition whose diagram path crosses it raises
    IdentityCheckError, and every other one passes, over two passes: in
    the second every composed transition is read back from
    catalog.transitions, so the memo holds no form that a call trusts."""
    import circhess.bases as bases_mod

    for edge in bases_mod._DIAGRAM_EDGES + tuple(e[::-1] for e in bases_mod._DIAGRAM_EDGES):
        catalog, _ = build_basis_catalog(w5_system)
        transition(catalog, *edge)
        m = catalog.edges[edge]
        rows = [list(r) for r in m.rows]
        rows[-1][0] = m.spec.add(rows[-1][0], m.spec.one)
        catalog.edges[edge] = Matrix(m.spec, rows)
        crossing = {(a, b) for a, b in itertools.product(BASIS_NAMES, repeat=2)
                    if edge in zip(bases_mod._DIAGRAM_PATHS[a, b],
                                   bases_mod._DIAGRAM_PATHS[a, b][1:])}
        for _ in range(2):
            for a, b in itertools.product(BASIS_NAMES, repeat=2):
                if (a, b) in crossing:
                    with pytest.raises(IdentityCheckError, match=f"{a} -> {b}"):
                        transition(catalog, a, b)
                else:
                    transition(catalog, a, b)
        assert len(catalog.transitions) == 18
        assert crossing & set(catalog.transitions)


def test_normalization_w5(w5_catalog, gf5):
    _, scalars = w5_catalog
    assert scalars.epsilon == gf5.element(1)  # forced by the gauge u = E_0 u*
    assert scalars.epsilon_star == gf5.element(4)
    assert scalars.nu == (scalars.epsilon * scalars.epsilon_star) ** -1


def test_trace_equals_product_w5(w5_system, w5_catalog, gf5):
    _, scalars = w5_catalog
    assert (w5_system.E[0] * w5_system.E_star[0]).trace() == gf5.element(4)
    assert scalars.epsilon * scalars.epsilon_star == gf5.element(4)


def test_all_transitions_cross_check(w5_catalog):
    """Every ordered pair: the closed form (composed along the diagram)
    satisfies X_from T = X_to on the basis vectors; checked inside
    transition()."""
    catalog, _ = w5_catalog
    for a, b in itertools.product(BASIS_NAMES, repeat=2):
        transition(catalog, a, b)


def test_transition_detects_a_wrong_closed_form_edge(monkeypatch, w5_catalog,
                                                    w5_array):
    """With one entry of the inv_split -> dual_split edge changed, the
    identity X_from T = X_to fails for that edge and for every ordered pair
    whose diagram path runs along it, and holds for every other pair."""
    import circhess.bases as bases_mod

    catalog, _ = w5_catalog
    edge = bases_mod._inv_split_edge

    def corrupted(p, eps_star, a, b):
        m = edge(p, eps_star, a, b)
        if (p, a, b) != (w5_array, "inv_split", "dual_split"):
            return m
        rows = [list(r) for r in m.rows]
        rows[0][0] = m.spec.add(rows[0][0], m.spec.one)
        return Matrix(m.spec, rows)

    monkeypatch.setattr(bases_mod, "_inv_split_edge", corrupted)
    failing = set()
    for a, b in itertools.product(BASIS_NAMES, repeat=2):
        path = bases_mod._diagram_path(a, b)
        if ("inv_split", "dual_split") in zip(path, path[1:]):
            failing.add((a, b))
            with pytest.raises(IdentityCheckError, match=f"{a} -> {b}"):
                transition(catalog, a, b)
        else:
            transition(catalog, a, b)
    assert {("inv_split", "dual_split"), ("standard", "dual_split"),
            ("split", "dual_split")} <= failing


def test_transition_inverses_and_z(w5_catalog, gf5):
    catalog, _ = w5_catalog
    ident = Matrix.identity(gf5, 4)
    z = Matrix.reversal(gf5, 4)
    assert transition(catalog, "split", "inv_split").matrix == z
    assert z * z == ident
    p = transition(catalog, "standard", "inv_split").matrix
    h = transition(catalog, "inv_split", "standard").matrix
    assert p * h == ident


def test_diagram_cycles_compose_to_identity(w5_catalog, gf5):
    catalog, _ = w5_catalog
    ident = Matrix.identity(gf5, 4)
    # every simple cycle through the diagram (and a long round trip)
    cycles = [
        ["standard", "inv_split", "split", "inv_dual_split", "dual_split",
         "inv_split", "standard"],
        ["split", "inv_split", "dual_split", "inv_dual_split", "split"],
        ["dual_standard", "inv_dual_split", "dual_standard"],
    ]
    for cyc in cycles:
        acc = ident
        for a, b in zip(cyc, cyc[1:]):
            acc = acc * transition(catalog, a, b).matrix
        assert acc == ident


def test_transition_diagonal_entries_w5(w5_catalog, w5_array, gf5):
    """The inv_split -> dual_split transition is diagonal with entries
    eps* prod(theta*_0 - theta*_l) / (phi_1 ... phi_{d-i})."""
    catalog, scalars = w5_catalog
    t = transition(catalog, "inv_split", "dual_split").matrix
    num = scalars.epsilon_star
    for i in range(1, 4):
        num = num * (w5_array.theta_star[0] - w5_array.theta_star[i])
    for i in range(4):
        den = gf5.one_element()
        for k in range(3 - i):
            den = den * w5_array.phi[k]
        assert t.entry(i, i) == num / den
        for j in range(4):
            if i != j:
                assert t.entry(i, j).is_zero()


def test_unknown_basis(w5_catalog):
    catalog, _ = w5_catalog
    with pytest.raises(UnknownBasisError):
        transition(catalog, "standard", "nope")


def test_representations_all_bases(w5_catalog):
    catalog, _ = w5_catalog
    for name in BASIS_NAMES:
        represent(catalog, name)  # closed-form assertions run inside


def test_dual_array_and_dual_representations(w5_system, gf9):
    """The dual array is an involution, it is the dual system's array, and
    each basis of the dual system is the dual-named basis of the original
    with the roles of A and A* swapped (W5, and an F3 array over GF(9)
    whose theta and theta* differ)."""
    from circhess import Family, family_generate, iter_family_instances, \
        split_form_build, verify_ch_axioms

    f3 = split_form_build(family_generate(
        next(iter_family_instances(Family.F3_BETA_MINUS2, gf9, 5, 1))))
    assert verify_ch_axioms(f3).is_ch
    assert f3.params.theta != f3.params.theta_star
    for s in (w5_system, f3):
        p = s.params
        assert p.dual() != p
        assert p.dual().dual() == p
        dual = dual_system(s)
        assert dual.params == p.dual()
        catalog, _ = build_basis_catalog(s)
        dual_catalog, _ = build_basis_catalog(dual)
        for name in BASIS_NAMES:
            swapped = BASIS_NAMES[(BASIS_NAMES.index(name) + 3) % 6]
            rp = represent(dual_catalog, name)
            original = represent(catalog, swapped)
            assert (rp.B, rp.B_star) == (original.B_star, original.B)


def test_represent_checks_every_basis_against_the_array(w5_system, w5_array, gf5):
    """With a stored array whose phi_1 differs from the system's, every
    representation, the standard-type ones included, disagrees with its
    closed form."""
    catalog, _ = build_basis_catalog(w5_system)
    w5_system.params = ParameterArray(
        gf5, 3, w5_array.theta, w5_array.theta_star,
        (gf5.element(1),) + w5_array.phi[1:],
    )
    assert w5_system.params.phi[0] != w5_array.phi[0]
    for name in BASIS_NAMES:
        with pytest.raises(IdentityCheckError):
            represent(catalog, name)


def test_split_representation_is_build_matrix(w5_catalog, w5_system):
    catalog, _ = w5_catalog
    rp = represent(catalog, "split")
    assert rp.B == w5_system.A
    assert rp.B_star == w5_system.A_star


def test_standard_representation_w5(w5_catalog, gf5):
    catalog, _ = w5_catalog
    rp = represent(catalog, "standard")
    assert rp.B == Matrix.diagonal(gf5, [1, 2, 4, 3])
    for i in range(4):
        acc = gf5.zero_element()
        for j in range(4):
            acc = acc + rp.B_star.entry(i, j)
        assert acc == gf5.element(1)  # constant row sum theta*_0


def test_dual_standard_row_sums(w5_catalog, gf5):
    catalog, _ = w5_catalog
    rp = represent(catalog, "dual_standard")
    for i in range(4):
        acc = gf5.zero_element()
        for j in range(4):
            acc = acc + rp.B.entry(i, j)
        assert acc == gf5.element(1)  # theta_0


def test_split_dual_split_vector_identities(w5_catalog, w5_array, gf5):
    """v_i = eps * prod(theta_0 - theta_l) / (phi_{i+1} ... phi_d) v*_{d-i}
    and the dual identity, exactly, for all i (empty products are 1)."""
    catalog, scalars = w5_catalog
    v = catalog.vectors["split"]
    vs = catalog.vectors["dual_split"]
    d = 3
    for i in range(d + 1):
        coeff = scalars.epsilon
        for k in range(1, d + 1):
            coeff = coeff * (w5_array.theta[0] - w5_array.theta[k])
        den = gf5.one_element()
        for k in range(i, d):
            den = den * w5_array.phi[k]
        assert v[i] == vs[d - i].scale(coeff / den)
    for i in range(d + 1):
        coeff = scalars.epsilon_star
        for k in range(1, d + 1):
            coeff = coeff * (w5_array.theta_star[0] - w5_array.theta_star[k])
        den = gf5.one_element()
        for k in range(d - i):
            den = den * w5_array.phi[k]
        assert vs[i] == v[d - i].scale(coeff / den)


def test_standard_form_entries_w5(w5_catalog, w5_array, gf5):
    sfe = standard_form_entries(w5_catalog[0])
    assert sfe.recurrent
    assert sfe.xi == gf5.element(1)
    assert sfe.xi_star == gf5.element(4)
    # corner formulas from the wrap scalars
    vth = vartheta_from_array(w5_array)
    assert sfe.xi == (vth[1] - vth[3]) / (w5_array.theta_star[1] - w5_array.theta_star[3])
    assert sfe.xi_star == (vth[3] - vth[1]) / (w5_array.theta[1] - w5_array.theta[3])


def test_standard_form_entries_families(gf5, gf9, gf4):
    from circhess import (
        Family, family_generate, iter_family_instances, split_form_build,
        verify_ch_axioms,
    )

    for fam, spec, d in (
        (Family.F1_GENERIC_Q, gf5, 3),
        (Family.F2_BETA2, gf5, 4),
        (Family.F3_BETA_MINUS2, gf9, 5),
        (Family.F4_BETA0_CHAR2, gf4, 3),
    ):
        fp = next(iter_family_instances(fam, spec, d, 1))
        s = split_form_build(family_generate(fp))
        verify_ch_axioms(s)
        sfe = standard_form_entries(build_basis_catalog(s)[0])
        assert sfe.recurrent
        assert not sfe.xi.is_zero() and not sfe.xi_star.is_zero()


def test_psi_w5(w5_array, gf5):
    psi, psi_star = psi_check(w5_array)
    assert psi == gf5.element(1) and psi_star == gf5.element(1)
    # d = 3: single-factor product (theta_0 - theta_3)/(theta_1 - theta_2)
    manual = (w5_array.theta[0] - w5_array.theta[3]) / (
        w5_array.theta[1] - w5_array.theta[2]
    )
    assert manual == gf5.element(1)


def test_psi_gate_non_recurrent(gf5):
    from circhess import ParameterArray

    p = ParameterArray.make(gf5, [0, 1, 2, 3], [0, 1, 2, 4], [1, 1, 1])
    with pytest.raises(NotRecurrentError):
        psi_check(p)


def test_characterize_standard_basis(w5_system, w5_catalog):
    catalog, _ = w5_catalog
    std = catalog.vectors["standard"]
    assert standard_basis_characterize(w5_system, std)
    assert standard_basis_characterize(w5_system, [v.scale(2) for v in std])
    swapped = list(std)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert not standard_basis_characterize(w5_system, swapped)
    assert not standard_basis_characterize(
        w5_system, [Vector.zero(w5_system.spec, 4)] * 4
    )


def test_characterize_rejects_unequal_scaling(w5_system, w5_catalog, gf5):
    """Scaling the standard vectors by different scalars keeps each u_i in
    E_i V but moves their sum out of E*_0 V; on the representation side, A
    stays diag(theta) and A* loses its constant row sums, so both criteria
    reject the basis."""
    catalog, _ = w5_catalog
    std = catalog.vectors["standard"]
    scaled = [v.scale(k) for v, k in zip(std, (1, 1, 1, 2))]
    x = Matrix.from_columns(scaled)
    assert w5_system.A * x == x * Matrix.diagonal(gf5, w5_system.theta)
    assert not standard_basis_characterize(w5_system, scaled)


def test_explicit_seed_changes_vectors_not_scalars(w5_system, gf5):
    cat1, sc1 = build_basis_catalog(w5_system)
    cat2, sc2 = build_basis_catalog(
        w5_system, Vector.from_elements(gf5, [3, 0, 1, 2])
    )
    assert sc1.epsilon == sc2.epsilon == gf5.one_element()
    assert sc1.epsilon_star == sc2.epsilon_star
    for a, b in itertools.product(BASIS_NAMES, repeat=2):
        assert transition(cat2, a, b).matrix == transition(cat1, a, b).matrix


@pytest.mark.parametrize("family, p, d", [
    ("F2", 7, 6), ("F1", 17, 7), ("F1", 19, 8), ("F2", 11, 10),
])
def test_represent_larger_d(family, p, d):
    """All six representations and the standard-form entries, asserted
    against their closed forms, beyond the d = 3..5 of the other tests."""
    from circhess import (
        Family, family_generate, iter_family_instances, prime_field,
        split_form_build, verify_ch_axioms,
    )

    fp = next(iter_family_instances(Family(family), prime_field(p), d, 1))
    s = split_form_build(family_generate(fp))
    assert verify_ch_axioms(s).is_ch
    catalog, _ = build_basis_catalog(s)
    reps = {name: represent(catalog, name) for name in BASIS_NAMES}
    sfe = standard_form_entries(catalog, reps)
    assert sfe.recurrent
    assert len(sfe.a_star) == d + 1 and len(sfe.b_star) == len(sfe.c_star) == d
