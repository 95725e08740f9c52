"""Six distinguished bases of the underlying space and the maps between them.

For a verified system with seed u* (nonzero in E*_0 V) and u := E_0 u*:

    standard         E_i u*
    split            v_i   = (A - theta_{d-i+1} I) ... (A - theta_d I) u*
    inv_split        v_{d-i}
    dual_standard    E*_i u
    dual_split       v*_i  = (A* - theta*_{d-i+1} I) ... (A* - theta*_d I) u
    inv_dual_split   v*_{d-i}

Every closed-form transition matrix and representation matrix is checked
against the identity that defines it, on the actual basis vectors:
X_a T = X_b for a transition, X B = A X and X B* = A* X for a
representation.  build_basis_catalog rank-checks four bases; inv_split and
inv_dual_split are split and dual_split reversed, so they share their
ranks.  Each identity therefore holds exactly when the closed form equals
the definitional solve X_a^-1 X_b or X^-1 A X, and no inverse is formed.
Verifying those formulas is the point of this module, so nothing is
trusted: every transition and represent call compares its own identity.
The displayed standard <-> inv_split transitions are the left and right
eigenvectors of the split form's A (systems._bidiagonal_eigenvectors), the
same vectors whose outer products are the split form's idempotents.

What the identities share is computed once per catalog and kept in it:
each basis matrix X (inv_split and inv_dual_split are split's and
dual_split's with the columns reversed), each basis's images (A X, A* X)
(an inv_ basis reads its pair off split's or dual_split's by the same
column reversal), each closed-form diagram edge, and each composed
transition, which is the memoized transition to the last-but-one basis of
its fixed path times that path's last edge, so every non-adjacent pair
costs one product.  Nothing in these memos is trusted: a wrong edge makes
every transition whose path crosses it fail its own check.

Each dual-side basis is the primal one for the pair (A*, A), whose array is
ParameterArray.dual() = (theta*; theta; phi reversed).  So every dual-side
closed form (transition, representation, corner xi, psi*) is the primal
formula evaluated on the dual array; only the primal ones are written out.

The seed normalization u := E_0 u* fixes the gauge epsilon = 1; only the
product epsilon * epsilon* is intrinsic, and it is asserted against its
closed product formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    IdentityCheckError,
    NotInE0StarVError,
    NotRecurrentError,
    UnknownBasisError,
)
from .fields import FieldElement, JsonFields
from .linalg import Matrix, Vector, is_circular_hessenberg, rank
from .recurrence import recurrence_status, vartheta_from_array
from .systems import CHSystem, ParameterArray, _bidiagonal_eigenvectors, \
    _default_seed, _proportionality, _split_form, _split_vectors

BASIS_NAMES = (
    "standard",
    "split",
    "inv_split",
    "dual_standard",
    "dual_split",
    "inv_dual_split",
)

# each basis and the basis of the dual pair (A*, A) that it is
_DUAL = dict(zip(BASIS_NAMES, BASIS_NAMES[3:] + BASIS_NAMES[:3]))

# edges of the transition diagram; non-adjacent pairs compose along it
_DIAGRAM_EDGES = (
    ("standard", "inv_split"),
    ("inv_split", "dual_split"),
    ("inv_split", "split"),
    ("split", "inv_dual_split"),
    ("dual_split", "inv_dual_split"),
    ("inv_dual_split", "dual_standard"),
)


@dataclass
class NormalizationScalars(JsonFields):
    epsilon: FieldElement
    epsilon_star: FieldElement
    nu: FieldElement


@dataclass
class TransitionMatrix:
    from_basis: str
    to_basis: str
    matrix: Matrix

    def to_json(self) -> dict:
        return {
            "from": self.from_basis,
            "to": self.to_basis,
            "matrix": self.matrix.to_json(),
        }


@dataclass
class RepresentationPair(JsonFields):
    basis: str
    B: Matrix
    B_star: Matrix


@dataclass
class BasisCatalog:
    system: CHSystem
    vectors: dict
    scalars: NormalizationScalars
    # basis name -> X, the basis vectors as columns
    matrices: dict = field(repr=False, compare=False)
    # closed-form diagram edges (a, b) -> T, filled by _closed_transition
    edges: dict = field(default_factory=dict, repr=False, compare=False)
    # composed closed forms (a, b) -> T, filled by _composed_transition
    transitions: dict = field(default_factory=dict, repr=False, compare=False)
    # basis name -> (A X, A* X), filled by _images
    images: dict = field(default_factory=dict, repr=False, compare=False)

    def basis_matrix(self, name: str) -> Matrix:
        if name not in BASIS_NAMES:
            raise UnknownBasisError(f"unknown basis {name!r}")
        return self.matrices[name]


def _reverse_columns(m: Matrix) -> Matrix:
    return Matrix(m.spec, [r[::-1] for r in m.rows])


def _prod(spec, elems) -> FieldElement:
    acc = spec.one_element()
    for e in elems:
        acc = acc * e
    return acc


def build_basis_catalog(s: CHSystem, u_star: Vector | None = None):
    """Materialize all six bases plus the normalization scalars.

    The seed defaults to a deterministic nonzero vector of E*_0 V; an
    explicit seed is projected through E*_0 first.  Returns
    (BasisCatalog, NormalizationScalars).
    """
    s.require_verified("basis catalog")
    d = s.d
    split = _split_vectors(s.A, s.theta, s.E_star[0],
                           _default_seed(s) if u_star is None else u_star)
    seed = split[0]
    try:
        dual_split = _split_vectors(s.A_star, s.theta_star, s.E[0], seed)
    except NotInE0StarVError:
        raise IdentityCheckError("E_0 u* vanished on a verified system") from None
    u = dual_split[0]
    standard = [e * seed for e in s.E]
    dual_standard = [e * u for e in s.E_star]
    vectors = {
        "standard": standard,
        "split": split,
        "inv_split": split[::-1],
        "dual_standard": dual_standard,
        "dual_split": dual_split,
        "inv_dual_split": dual_split[::-1],
    }
    matrices = {}
    for name in ("standard", "split", "dual_standard", "dual_split"):
        x = matrices[name] = Matrix.from_columns(vectors[name])
        if rank(x) != d + 1:
            raise IdentityCheckError(f"{name} vectors are not a basis")
    # inv_split and inv_dual_split are the same columns reversed
    for name in ("split", "dual_split"):
        matrices["inv_" + name] = _reverse_columns(matrices[name])

    # standard[0] = E_0 u* and dual_standard[0] = E*_0 u
    epsilon = _proportionality(standard[0], u)  # = 1 by the gauge choice
    epsilon_star = _proportionality(dual_standard[0], seed)
    prod = epsilon * epsilon_star
    closed = _prod(s.spec, s.params.phi) / (
        _prod(s.spec, (s.theta[0] - s.theta[i] for i in range(1, d + 1)))
        * _prod(s.spec, (s.theta_star[0] - s.theta_star[i] for i in range(1, d + 1)))
    )
    if prod != closed:
        raise IdentityCheckError(
            "epsilon * epsilon* disagrees with its closed product formula"
        )
    # tr(E_0 E*_0) = sum_ij (E_0)_ij (E*_0)_ji, one dot of n^2 terms
    e, e_star = s.E[0], s.E_star[0]
    tr = s.spec.dot([x for r in e.rows for x in r],
                    [x for c in zip(*e_star.rows) for x in c])
    if tr != prod.payload:
        raise IdentityCheckError("tr(E_0 E*_0) != epsilon * epsilon*")
    scalars = NormalizationScalars(epsilon, epsilon_star, prod.inverse())
    return BasisCatalog(s, vectors, scalars, matrices), scalars


# --- closed-form transitions -----------------------------------------------

def _closed_transition(catalog: BasisCatalog, a: str, b: str) -> Matrix:
    """A diagram edge, built on its first use and kept in catalog.edges.
    Every edge meets inv_split or inv_dual_split; one at inv_dual_split is
    the matching inv_split edge of the dual array, where epsilon plays the
    part of epsilon*."""
    edge = catalog.edges.get((a, b))
    if edge is None:
        p = catalog.system.params
        scalars = catalog.scalars
        if "inv_dual_split" in (a, b):
            edge = _inv_split_edge(p.dual(), scalars.epsilon, _DUAL[a], _DUAL[b])
        else:
            edge = _inv_split_edge(p, scalars.epsilon_star, a, b)
        catalog.edges[a, b] = edge
    return edge


def _inv_split_edge(p: ParameterArray, eps_star, a: str, b: str) -> Matrix:
    """An edge at inv_split.  Between it and standard, the transitions are
    read off the eigenvector triples (r_k, s_k, p_k) of the split form's A,
    whose diagonal lists theta reversed: standard -> inv_split has rows s_k
    and inv_split -> standard has columns r_k / p_k (s_k . r_k = p_k), in
    theta_0..theta_d order and each read backwards.  Their entries are

        prod_{l=j+1}^{d} (theta_i - theta_l)   and
        1 / prod_{l=i, l != j}^{d} (theta_j - theta_l)   for i <= j."""
    spec = p.spec
    d = p.d
    if {a, b} == {"standard", "inv_split"}:
        vecs = _bidiagonal_eigenvectors(_split_form(p)[0])[::-1]
        if b == "inv_split":
            return Matrix(spec, [s_k[::-1] for _, s_k, _ in vecs])
        cols = [(r_k[::-1], spec.inv(p_k)) for r_k, _, p_k in vecs]
        return Matrix(spec, [[spec.mul(x, w) for x in r] for r, w in cols]).transpose()
    if {a, b} == {"split", "inv_split"}:
        return Matrix.reversal(spec, d + 1)
    if {a, b} == {"inv_split", "dual_split"}:
        num = eps_star * _prod(
            spec, (p.theta_star[0] - p.theta_star[l] for l in range(1, d + 1))
        )
        diag = [num / _prod(spec, p.phi[: d - i]) for i in range(d + 1)]
        if b == "inv_split":
            diag = [x.inverse() for x in diag]
        return Matrix.diagonal(spec, diag)
    raise UnknownBasisError(f"no closed form for edge {a} -> {b}")


def _diagram_path(a: str, b: str) -> list[str]:
    adj = {}
    for x, y in _DIAGRAM_EDGES:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    prev = {a: None}
    queue = [a]
    while queue:
        cur = queue.pop(0)
        if cur == b:
            path = [cur]
            while prev[cur] is not None:
                cur = prev[cur]
                path.append(cur)
            return path[::-1]
        for nxt in adj[cur]:
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    raise UnknownBasisError(f"no path {a} -> {b}")


_DIAGRAM_PATHS = {(a, b): tuple(_diagram_path(a, b))
                  for a in BASIS_NAMES for b in BASIS_NAMES}


def _composed_transition(catalog: BasisCatalog, a: str, b: str) -> Matrix:
    """The closed form of a -> b along the fixed diagram path: an edge
    itself, else the composed form to the path's last-but-one basis times
    the last edge, kept in catalog.transitions.  Breadth-first paths from
    one source form a tree, so that prefix is the fixed path to the
    last-but-one basis, and each composed pair costs one product."""
    path = _DIAGRAM_PATHS[a, b]
    if len(path) == 2:
        return _closed_transition(catalog, a, b)
    t = catalog.transitions.get((a, b))
    if t is None:
        t = catalog.transitions[a, b] = (_composed_transition(catalog, a, path[-2])
                                         * _closed_transition(catalog, path[-2], b))
    return t


def transition(catalog: BasisCatalog, from_name: str, to_name: str) -> TransitionMatrix:
    """Transition matrix T with (to)_j = sum_i T_ij (from)_i.

    Adjacent pairs use the closed forms; other pairs compose along the
    fixed diagram's path, found once per pair at import, and each
    composition is kept in the catalog (_composed_transition).  Every
    call checks its result against the defining identity X_from T = X_to
    on the bases.
    """
    for n in (from_name, to_name):
        if n not in BASIS_NAMES:
            raise UnknownBasisError(f"unknown basis {n!r}")
    x = catalog.basis_matrix(from_name)
    if from_name == to_name:
        return TransitionMatrix(from_name, to_name, Matrix.identity(x.spec, x.ncols))
    t = _composed_transition(catalog, from_name, to_name)
    if x * t != catalog.basis_matrix(to_name):
        raise IdentityCheckError(
            f"closed-form transition {from_name} -> {to_name} "
            "disagrees with the basis vectors"
        )
    return TransitionMatrix(from_name, to_name, t)


# --- representations ----------------------------------------------------------

def _closed_representation(p: ParameterArray, name: str):
    """The displayed (A, A*) of a primal basis, from the array alone:
    diag(theta) and the circular matrix in the standard basis, the split
    form in the split basis, and in inv_split, which lists the split vectors
    in reverse order, J B J: B with rows and columns reversed."""
    if name == "standard":
        return Matrix.diagonal(p.spec, p.theta), _circular_matrix(p)
    b, b_star = _split_form(p)
    if name == "inv_split":
        return tuple(Matrix(p.spec, (r[::-1] for r in m.rows[::-1]))
                     for m in (b, b_star))
    return b, b_star


def represent(catalog: BasisCatalog, name: str) -> RepresentationPair:
    """Matrices representing A and A* in the named basis: the displayed
    closed forms, checked against the defining identities X B = A X and
    X B* = A* X.  A dual-side basis is the primal one of the dual array with
    the pair swapped.  In the standard-type bases the circular side is also
    asserted circular Hessenberg with constant row sums."""
    if name not in BASIS_NAMES:
        raise UnknownBasisError(f"unknown basis {name!r}")
    s = catalog.system
    dual = "dual" in name
    p, primal = (s.params.dual(), _DUAL[name]) if dual else (s.params, name)
    pair = _closed_representation(p, primal)
    b, b_star = pair[::-1] if dual else pair
    x = catalog.basis_matrix(name)
    ax, a_star_x = _images(catalog, name)
    if x * b != ax or x * b_star != a_star_x:
        raise IdentityCheckError(
            f"representation in {name} basis disagrees with its closed form"
        )
    if primal == "standard":
        where = name.replace("_", "-")
        if not is_circular_hessenberg(pair[1]):
            raise IdentityCheckError(
                f"{where}-basis A{'' if dual else '*'} is not circular Hessenberg"
            )
        _assert_row_sums(pair[1], p.theta_star[0])
    return RepresentationPair(name, b, b_star)


def _images(catalog: BasisCatalog, name: str) -> tuple:
    """(A X, A* X) for the named basis X, kept in catalog.images; an inv_
    basis is its split basis with the columns reversed, and so are its
    images."""
    pair = catalog.images.get(name)
    if pair is None:
        if name.startswith("inv_"):
            pair = tuple(map(_reverse_columns, _images(catalog, name[4:])))
        else:
            s, x = catalog.system, catalog.basis_matrix(name)
            pair = s.A * x, s.A_star * x
        catalog.images[name] = pair
    return pair


def _assert_row_sums(m: Matrix, value: FieldElement):
    spec = m.spec
    for i in range(m.nrows):
        acc = spec.zero_element()
        for j in range(m.ncols):
            acc = acc + m.entry(i, j)
        if acc != value:
            raise IdentityCheckError(f"row {i} sums to {acc}, expected {value}")


# --- closed-form entries of the standard-basis representations ---------------

@dataclass
class StandardFormEntries(JsonFields):
    """Closed-form entries of the two circular Hessenberg representations.

    Unstarred lists describe A in the dual-standard basis; starred lists
    describe A* in the standard basis.  xi and xi_star are the wrap-around
    corner entries.  When `recurrent` is False the corners are definitional
    only (no consistency formulas apply)."""

    a: list
    b: list
    c: list
    a_star: list
    b_star: list
    c_star: list
    xi: FieldElement
    xi_star: FieldElement
    recurrent: bool


def _circular_matrix(p: ParameterArray) -> Matrix:
    """A* in the standard basis of the array p, entry by entry: diagonal
    a*_i, superdiagonal b*_i, subdiagonal c*_i, and the corner, which is
    fixed by the row sum theta*_0.

    Each list is one formula over its whole index range, with the
    convention phi_0 = phi_{d+1} = 0: a term phi_k / (theta_i - theta_j)
    with k outside 1..d is skipped whole, so its denominator, which would
    read theta_{-1} or theta_{d+1}, is never formed."""
    spec = p.spec
    d = p.d
    theta, theta_star, phi = p.theta, p.theta_star, p.phi
    zero = spec.zero_element()

    def pr(vals):
        return _prod(spec, vals)

    def term(k, i, j):
        """phi_k / (theta_i - theta_j), or zero when k is not in 1..d."""
        return phi[k - 1] / (theta[i] - theta[j]) if 1 <= k <= d else zero

    c = [pr(theta[i] - theta[l] for l in range(i + 1, d + 1))
         / pr(theta[i - 1] - theta[l] for l in range(i, d + 1)) * phi[d - i]
         for i in range(1, d + 1)]
    a = [theta_star[d - i] + term(d - i, i, i + 1) + term(d - i + 1, i, i - 1)
         for i in range(d + 1)]
    b = [pr(theta[i] - theta[l] for l in range(i + 2, d + 1))
         / pr(theta[i + 1] - theta[l] for l in range(i + 2, d + 1))
         * (theta_star[d - i - 1] - theta_star[d - i] + term(d - i - 1, i, i + 2)
            + term(d - i, i + 1, i) + term(d - i + 1, i - 1, i + 1))
         for i in range(d)]
    rows = [[zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d):
        rows[i][i], rows[i][i + 1], rows[i + 1][i] = a[i], b[i], c[i]
    rows[d][d], rows[0][d] = a[d], theta_star[0] - a[0] - b[0]
    return Matrix.from_elements(spec, rows)


def _circular_entries(m: Matrix):
    """Diagonal, superdiagonal, subdiagonal and corner of a circular matrix."""
    n = m.nrows
    return (
        [m.entry(i, i) for i in range(n)],
        [m.entry(i, i + 1) for i in range(n - 1)],
        [m.entry(i + 1, i) for i in range(n - 1)],
        m.entry(0, n - 1),
    )


def _corner_derivations(p: ParameterArray):
    """The corner of A* in the standard basis of a recurrent array p, from
    the split data and as a wrap-scalar quotient."""
    d = p.d
    th, ths, phi = p.theta, p.theta_star, p.phi
    vth = vartheta_from_array(p)
    quot = (vth[d] - vth[1]) / (th[1] - th[d])
    split = (phi[d - 1] - phi[0]) / (th[1] - th[d]) + (
        (ths[1] - ths[0]) * (th[d] - th[0]) - (ths[d] - ths[0]) * (th[1] - th[0])
    ) / (th[1] - th[d])
    return split, quot


def standard_form_entries(catalog: BasisCatalog,
                          reps: dict | None = None) -> StandardFormEntries:
    """The entries of the two standard-basis representations, read off the
    matrices that represent asserted against their closed forms.  `reps`,
    when given, maps basis names to what represent already returned for
    this catalog, so "standard" and "dual_standard" are not checked again.

    For recurrent arrays the corner entries are additionally re-derived two
    more ways (the split-data formula and the wrap-scalar quotient) and all
    three values must agree; xi is xi* of the dual array."""
    p = catalog.system.params
    if reps is None:
        reps = {n: represent(catalog, n) for n in ("standard", "dual_standard")}
    a, b, c, xi = _circular_entries(reps["dual_standard"].B)
    a_star, b_star, c_star, xi_star = _circular_entries(reps["standard"].B_star)
    recurrent = recurrence_status(p).recurrent
    if recurrent:
        for corner, q, label in ((xi, p.dual(), "xi"), (xi_star, p, "xi*")):
            split, quot = _corner_derivations(q)
            if not (corner == split == quot):
                raise IdentityCheckError(f"three derivations of {label} disagree")
        if xi.is_zero() or xi_star.is_zero():
            raise IdentityCheckError("corner entries must be nonzero when recurrent")
    return StandardFormEntries(a, b, c, a_star, b_star, c_star, xi, xi_star,
                               recurrent)


def _psi(p: ParameterArray) -> FieldElement:
    d = p.d
    th = p.theta
    return _prod(p.spec, ((th[0] - th[i + 1]) / (th[1] - th[i]) for i in range(2, d)))


def psi_check(p: ParameterArray):
    """The telescoping eigenvalue products, each asserted equal to 1 for
    recurrent arrays; returns (psi, psi_star), psi* being psi of the dual
    array."""
    if not recurrence_status(p).recurrent:
        raise NotRecurrentError("psi products are only asserted for recurrent arrays")
    psi, psi_star = _psi(p), _psi(p.dual())
    if psi != 1 or psi_star != 1:
        raise IdentityCheckError(f"psi products differ from 1: {psi}, {psi_star}")
    return psi, psi_star


def standard_basis_characterize(s: CHSystem, candidate: list[Vector]) -> bool:
    """True iff every u_i lies in E_i V and the sum of the u_i lies in
    E*_0 V (and is nonzero).  When the candidate is a basis X, the criterion
    is cross-checked against the representation characterization, checked
    as identities on X: A X = X diag(theta) (A is diagonal with eigenvalue
    order theta) and A* (X 1) = theta*_0 (X 1) (A* has constant row sums
    theta*_0)."""
    s.require_verified("standard basis characterization")
    if len(candidate) != s.d + 1:
        return False
    crit = all((e * v) == v for e, v in zip(s.E, candidate))
    total = candidate[0]
    for v in candidate[1:]:
        total = total + v
    if crit:
        crit = (not total.is_zero()) and (s.E_star[0] * total) == total
    x = Matrix.from_columns(candidate)
    if rank(x) != s.d + 1:
        return crit  # not a basis, so there is no representation to compare
    by_rep = (s.A * x == x * Matrix.diagonal(s.spec, s.theta)
              and s.A_star * total == total.scale(s.theta_star[0]))
    if by_rep != crit:
        raise IdentityCheckError(
            "eigenspace criterion and representation criterion disagree"
        )
    return crit
