"""Six distinguished bases of the underlying space and the maps between them.

For a verified system with seed u* (nonzero in E*_0 V) and u := E_0 u*:

    standard         E_i u*
    split            v_i   = (A - theta_{d-i+1} I) ... (A - theta_d I) u*
    inv_split        v_{d-i}
    dual_standard    E*_i u
    dual_split       v*_i  = (A* - theta*_{d-i+1} I) ... (A* - theta*_d I) u
    inv_dual_split   v*_{d-i}

Every closed-form transition matrix and representation matrix is
cross-checked against an independent definitional linear solve; verifying
those formulas is the point of this module, so nothing is trusted.

The seed normalization u := E_0 u* fixes the gauge epsilon = 1; only the
product epsilon * epsilon* is intrinsic, and it is asserted against its
closed product formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IdentityCheckError,
    NotInE0StarVError,
    NotRecurrentError,
    SingularError,
    UnknownBasisError,
    ZeroVectorError,
)
from .fields import FieldElement
from .linalg import Matrix, Vector, matrix_inverse, rank, shape_classify, ShapeClass
from .recurrence import recurrence_status, vartheta_from_array
from .systems import CHSystem, ParameterArray, _proportionality, _default_seed, \
    split_form_build, verify_ch_axioms

BASIS_NAMES = (
    "standard",
    "split",
    "inv_split",
    "dual_standard",
    "dual_split",
    "inv_dual_split",
)

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
class NormalizationScalars:
    epsilon: FieldElement
    epsilon_star: FieldElement
    nu: FieldElement

    def to_json(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "epsilon_star": str(self.epsilon_star),
            "nu": str(self.nu),
        }


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
class RepresentationPair:
    basis: str
    B: Matrix
    B_star: Matrix

    def to_json(self) -> dict:
        return {"basis": self.basis, "B": self.B.to_json(),
                "B_star": self.B_star.to_json()}


@dataclass
class BasisCatalog:
    system: CHSystem
    vectors: dict
    u_star: Vector
    u: Vector
    scalars: NormalizationScalars

    def basis_matrix(self, name: str) -> Matrix:
        if name not in BASIS_NAMES:
            raise UnknownBasisError(f"unknown basis {name!r}")
        return Matrix.from_columns(self.vectors[name])


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
    if u_star is None:
        seed = _default_seed(s)
    else:
        if u_star.is_zero():
            raise ZeroVectorError("seed vector is zero")
        seed = s.E_star[0] * u_star
        if seed.is_zero():
            raise NotInE0StarVError("seed has zero projection onto E*_0 V")
    d = s.d
    ident = Matrix.identity(s.spec, d + 1)
    u = s.E[0] * seed
    if u.is_zero():
        raise IdentityCheckError("E_0 u* vanished on a verified system")

    def split_vectors(a, theta, v):
        vecs = [v]
        for i in range(1, d + 1):
            vecs.append((a - ident.scale(theta[d - i + 1])) * vecs[-1])
        return vecs

    standard = [e * seed for e in s.E]
    split = split_vectors(s.A, s.theta, seed)
    dual_standard = [e * u for e in s.E_star]
    dual_split = split_vectors(s.A_star, s.theta_star, u)
    vectors = {
        "standard": standard,
        "split": split,
        "inv_split": split[::-1],
        "dual_standard": dual_standard,
        "dual_split": dual_split,
        "inv_dual_split": dual_split[::-1],
    }
    for name, vecs in vectors.items():
        if rank(Matrix.from_columns(vecs)) != d + 1:
            raise IdentityCheckError(f"{name} vectors are not a basis")

    epsilon = _proportionality(s.E[0] * seed, u)  # = 1 by the gauge choice
    epsilon_star = _proportionality(s.E_star[0] * u, seed)
    prod = epsilon * epsilon_star
    closed = _prod(s.spec, s.params.phi) / (
        _prod(s.spec, (s.theta[0] - s.theta[i] for i in range(1, d + 1)))
        * _prod(s.spec, (s.theta_star[0] - s.theta_star[i] for i in range(1, d + 1)))
    )
    if prod != closed:
        raise IdentityCheckError(
            "epsilon * epsilon* disagrees with its closed product formula"
        )
    tr = (s.E[0] * s.E_star[0]).trace()
    if tr != prod:
        raise IdentityCheckError("tr(E_0 E*_0) != epsilon * epsilon*")
    scalars = NormalizationScalars(epsilon, epsilon_star, prod.inverse())
    return BasisCatalog(s, vectors, seed, u, scalars), scalars


# --- closed-form transitions -----------------------------------------------

def _upper_product_matrix(spec, theta):
    """Entries prod_{l=j+1}^{d} (theta_i - theta_l) for i <= j, else 0."""
    d = len(theta) - 1
    rows = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            if i > j:
                row.append(spec.zero_element())
            else:
                row.append(_prod(spec, (theta[i] - theta[l] for l in range(j + 1, d + 1))))
        rows.append(row)
    return Matrix.from_elements(spec, rows)


def _upper_inverse_matrix(spec, theta):
    """Entries 1 / prod_{l=i, l != j}^{d} (theta_j - theta_l) for i <= j."""
    d = len(theta) - 1
    rows = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            if i > j:
                row.append(spec.zero_element())
            else:
                den = _prod(
                    spec,
                    (theta[j] - theta[l] for l in range(i, d + 1) if l != j),
                )
                row.append(den.inverse())
        rows.append(row)
    return Matrix.from_elements(spec, rows)


def _closed_transition(catalog: BasisCatalog, a: str, b: str) -> Matrix:
    s = catalog.system
    spec = s.spec
    d = s.d
    p = s.params
    eps = catalog.scalars.epsilon
    eps_star = catalog.scalars.epsilon_star
    if (a, b) == ("standard", "inv_split"):
        return _upper_product_matrix(spec, p.theta)
    if (a, b) == ("inv_split", "standard"):
        return _upper_inverse_matrix(spec, p.theta)
    if (a, b) == ("dual_standard", "inv_dual_split"):
        return _upper_product_matrix(spec, p.theta_star)
    if (a, b) == ("inv_dual_split", "dual_standard"):
        return _upper_inverse_matrix(spec, p.theta_star)
    if {a, b} == {"split", "inv_split"} or {a, b} == {"dual_split", "inv_dual_split"}:
        return Matrix.reversal(spec, d + 1)
    if (a, b) == ("inv_split", "dual_split") or (a, b) == ("dual_split", "inv_split"):
        num = eps_star * _prod(
            spec, (p.theta_star[0] - p.theta_star[l] for l in range(1, d + 1))
        )
        diag = [num / _prod(spec, p.phi[: d - i]) for i in range(d + 1)]
        if (a, b) == ("dual_split", "inv_split"):
            diag = [x.inverse() for x in diag]
        return Matrix.diagonal(spec, diag)
    if (a, b) == ("inv_dual_split", "split") or (a, b) == ("split", "inv_dual_split"):
        num = eps * _prod(spec, (p.theta[0] - p.theta[l] for l in range(1, d + 1)))
        diag = [num / _prod(spec, p.phi[i:]) for i in range(d + 1)]
        if (a, b) == ("split", "inv_dual_split"):
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


def transition(catalog: BasisCatalog, from_name: str, to_name: str) -> TransitionMatrix:
    """Transition matrix T with (to)_j = sum_i T_ij (from)_i.

    Adjacent pairs use the closed forms; other pairs compose along the
    diagram.  Every result is cross-checked against the definitional solve
    from the actual basis vectors.
    """
    for n in (from_name, to_name):
        if n not in BASIS_NAMES:
            raise UnknownBasisError(f"unknown basis {n!r}")
    x = catalog.basis_matrix(from_name)
    y = catalog.basis_matrix(to_name)
    definitional = matrix_inverse(x) * y
    if from_name == to_name:
        return TransitionMatrix(from_name, to_name, definitional)
    path = _diagram_path(from_name, to_name)
    t = None
    for a, b in zip(path, path[1:]):
        step = _closed_transition(catalog, a, b)
        t = step if t is None else t * step
    if t != definitional:
        raise IdentityCheckError(
            f"closed-form transition {from_name} -> {to_name} "
            "disagrees with the definitional solve"
        )
    return TransitionMatrix(from_name, to_name, t)


# --- representations ----------------------------------------------------------

def _bidiagonal(spec, diag, off, upper: bool) -> Matrix:
    n = len(diag)
    rows = [[spec.zero_element()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
    for i in range(n - 1):
        if upper:
            rows[i][i + 1] = off[i]
        else:
            rows[i + 1][i] = off[i]
    return Matrix.from_elements(spec, rows)


def _split_representation(spec, theta, theta_star, phi):
    """(A, A*) in the split basis of the array (theta, theta*, phi)."""
    ones = [spec.one_element()] * (len(theta) - 1)
    return (
        _bidiagonal(spec, list(theta[::-1]), ones, upper=False),
        _bidiagonal(spec, list(theta_star), list(phi), upper=True),
    )


def _closed_representation(catalog: BasisCatalog, name: str):
    """The displayed (A, A*) of a split-type basis, from the array alone.

    dual_split is the split basis of the dual array (theta*, theta, phi
    reversed) with the pair swapped; an inv_ basis lists its vectors in
    reverse order, so its matrices are J B J, B with rows and columns
    reversed."""
    if name.endswith("standard"):
        return None  # standard bases handled by shape + entry assertions
    spec, p = catalog.system.spec, catalog.system.params
    if "dual" in name:
        b_star, b = _split_representation(spec, p.theta_star, p.theta, p.phi[::-1])
    else:
        b, b_star = _split_representation(spec, p.theta, p.theta_star, p.phi)
    if name.startswith("inv_"):
        return tuple(Matrix(spec, (r[::-1] for r in m.rows[::-1])) for m in (b, b_star))
    return b, b_star


def represent(catalog: BasisCatalog, name: str) -> RepresentationPair:
    """Matrices representing A and A* in the named basis, by definitional
    solve, asserted against the displayed closed forms (split-type bases)
    or the diagonal + circular Hessenberg shape (standard-type bases)."""
    if name not in BASIS_NAMES:
        raise UnknownBasisError(f"unknown basis {name!r}")
    s = catalog.system
    x = catalog.basis_matrix(name)
    xi = matrix_inverse(x)
    b = xi * s.A * x
    b_star = xi * s.A_star * x
    closed = _closed_representation(catalog, name)
    if closed is not None:
        if (b, b_star) != closed:
            raise IdentityCheckError(
                f"representation in {name} basis disagrees with its closed form"
            )
    else:
        # the dual-standard basis is the standard basis of the pair (A*, A)
        dual = name == "dual_standard"
        diag, circ = (b_star, b) if dual else (b, b_star)
        th, th_circ = (s.theta_star, s.theta) if dual else (s.theta, s.theta_star)
        st, st_circ = ("*", "") if dual else ("", "*")
        where = name.replace("_", "-")
        if diag != Matrix.diagonal(s.spec, th):
            raise IdentityCheckError(f"{where}-basis A{st} is not diag(theta{st})")
        if shape_classify(circ) is not ShapeClass.CIRCULAR_HESSENBERG:
            raise IdentityCheckError(
                f"{where}-basis A{st_circ} is not circular Hessenberg"
            )
        _assert_row_sums(circ, th_circ[0])
    return RepresentationPair(name, b, b_star)


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
class StandardFormEntries:
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
    a_matrix: Matrix
    a_star_matrix: Matrix

    def to_json(self) -> dict:
        return {
            "a": [str(x) for x in self.a],
            "b": [str(x) for x in self.b],
            "c": [str(x) for x in self.c],
            "a_star": [str(x) for x in self.a_star],
            "b_star": [str(x) for x in self.b_star],
            "c_star": [str(x) for x in self.c_star],
            "xi": str(self.xi),
            "xi_star": str(self.xi_star),
            "recurrent": self.recurrent,
        }


def _circular_entries(spec, theta, theta_star, phi):
    """Diagonal a_i, superdiagonal b_i, subdiagonal c_i, and corner of the
    matrix representing the second operator in the first operator's
    standard basis.  Index conventions follow the starred case."""
    d = len(theta) - 1

    def pr(vals):
        return _prod(spec, vals)

    c = []
    for i in range(1, d + 1):
        num = pr(theta[i] - theta[l] for l in range(i + 1, d + 1))
        den = pr(theta[i - 1] - theta[l] for l in range(i, d + 1))
        c.append(num / den * phi[d - i])
    a = [theta_star[d] + phi[d - 1] / (theta[0] - theta[1])]
    for i in range(1, d):
        a.append(
            theta_star[d - i]
            + phi[d - i - 1] / (theta[i] - theta[i + 1])
            + phi[d - i] / (theta[i] - theta[i - 1])
        )
    a.append(theta_star[0] + phi[0] / (theta[d] - theta[d - 1]))
    b = []
    front = pr(theta[0] - theta[l] for l in range(2, d + 1)) / pr(
        theta[1] - theta[l] for l in range(2, d + 1)
    )
    b.append(
        front
        * (
            theta_star[d - 1]
            - theta_star[d]
            + phi[d - 2] / (theta[0] - theta[2])
            + phi[d - 1] / (theta[1] - theta[0])
        )
    )
    for i in range(1, d - 1):
        front = pr(theta[i] - theta[l] for l in range(i + 2, d + 1)) / pr(
            theta[i + 1] - theta[l] for l in range(i + 2, d + 1)
        )
        b.append(
            front
            * (
                theta_star[d - i - 1]
                - theta_star[d - i]
                + phi[d - i - 2] / (theta[i] - theta[i + 2])
                + phi[d - i - 1] / (theta[i + 1] - theta[i])
                + phi[d - i] / (theta[i - 1] - theta[i + 1])
            )
        )
    b.append(
        theta_star[0]
        - theta_star[1]
        + phi[0] / (theta[d] - theta[d - 1])
        + phi[1] / (theta[d - 2] - theta[d])
    )
    corner = theta_star[0] - a[0] - b[0]
    return a, b, c, corner


def _assemble_circular(spec, a, b, c, corner) -> Matrix:
    n = len(a)
    rows = [[spec.zero_element()] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = a[i]
    for i in range(n - 1):
        rows[i][i + 1] = b[i]
        rows[i + 1][i] = c[i]
    rows[0][n - 1] = corner
    return Matrix.from_elements(spec, rows)


def standard_form_entries(p: ParameterArray) -> StandardFormEntries:
    """Evaluate every closed-form entry of the two standard-basis
    representations, assemble the circular matrices, and assert equality
    with the conjugation-computed representations.

    For recurrent arrays the corner entries are additionally re-derived two
    more ways (the split-data formula and the wrap-scalar quotient) and all
    three values must agree."""
    spec = p.spec
    d = p.d
    th, ths, phi = list(p.theta), list(p.theta_star), list(p.phi)
    a_star, b_star, c_star, xi_star = _circular_entries(spec, th, ths, phi)
    a, b, c, xi = _circular_entries(spec, ths, th, phi[::-1])
    a_star_matrix = _assemble_circular(spec, a_star, b_star, c_star, xi_star)
    a_matrix = _assemble_circular(spec, a, b, c, xi)

    s = split_form_build(p)
    if not verify_ch_axioms(s).is_ch:
        raise IdentityCheckError("array does not build a verified system")
    catalog, _ = build_basis_catalog(s)
    rep_std = represent(catalog, "standard")
    rep_dual = represent(catalog, "dual_standard")
    if rep_std.B_star != a_star_matrix:
        raise IdentityCheckError(
            "closed-form standard-basis entries disagree with the solve"
        )
    if rep_dual.B != a_matrix:
        raise IdentityCheckError(
            "closed-form dual-standard-basis entries disagree with the solve"
        )

    recurrent = recurrence_status(p).recurrent
    if recurrent:
        vth = vartheta_from_array(p)
        xi_quot = (vth[1] - vth[d]) / (ths[1] - ths[d])
        xi_star_quot = (vth[d] - vth[1]) / (th[1] - th[d])
        xi_split = (phi[0] - phi[d - 1]) / (ths[1] - ths[d]) + (
            (th[1] - th[0]) * (ths[d] - ths[0]) - (th[d] - th[0]) * (ths[1] - ths[0])
        ) / (ths[1] - ths[d])
        xi_star_split = (phi[d - 1] - phi[0]) / (th[1] - th[d]) + (
            (ths[1] - ths[0]) * (th[d] - th[0]) - (ths[d] - ths[0]) * (th[1] - th[0])
        ) / (th[1] - th[d])
        if not (xi == xi_split == xi_quot):
            raise IdentityCheckError("three derivations of xi disagree")
        if not (xi_star == xi_star_split == xi_star_quot):
            raise IdentityCheckError("three derivations of xi* disagree")
        if xi.is_zero() or xi_star.is_zero():
            raise IdentityCheckError("corner entries must be nonzero when recurrent")
    return StandardFormEntries(
        a, b, c, a_star, b_star, c_star, xi, xi_star, recurrent,
        a_matrix, a_star_matrix,
    )


def psi_check(p: ParameterArray):
    """The telescoping eigenvalue products, each asserted equal to 1 for
    recurrent arrays; returns (psi, psi_star)."""
    if not recurrence_status(p).recurrent:
        raise NotRecurrentError("psi products are only asserted for recurrent arrays")
    spec = p.spec
    d = p.d
    psi = _prod(
        spec, ((p.theta[0] - p.theta[i + 1]) / (p.theta[1] - p.theta[i])
               for i in range(2, d))
    )
    psi_star = _prod(
        spec,
        ((p.theta_star[0] - p.theta_star[i + 1]) / (p.theta_star[1] - p.theta_star[i])
         for i in range(2, d)),
    )
    if psi != 1 or psi_star != 1:
        raise IdentityCheckError(f"psi products differ from 1: {psi}, {psi_star}")
    return psi, psi_star


def standard_basis_characterize(s: CHSystem, candidate: list[Vector]) -> bool:
    """True iff every u_i lies in E_i V and the sum of the u_i lies in
    E*_0 V (and is nonzero).  When the candidate is a basis, the criterion
    is cross-checked against the representation characterization:
    A diagonal with eigenvalue order theta, A* with constant row sums."""
    s.require_verified("standard basis characterization")
    if len(candidate) != s.d + 1:
        return False
    crit = all((e * v) == v for e, v in zip(s.E, candidate))
    if crit:
        total = candidate[0]
        for v in candidate[1:]:
            total = total + v
        crit = (not total.is_zero()) and (s.E_star[0] * total) == total
    x = Matrix.from_columns(candidate)
    try:
        xi = matrix_inverse(x)
    except SingularError:
        return crit  # not a basis, so there is no representation to compare
    b = xi * s.A * x
    b_star = xi * s.A_star * x
    by_rep = b == Matrix.diagonal(s.spec, s.theta)
    if by_rep:
        try:
            _assert_row_sums(b_star, s.theta_star[0])
        except IdentityCheckError:
            by_rep = False
    if by_rep != crit:
        raise IdentityCheckError(
            "eigenspace criterion and representation criterion disagree"
        )
    return crit
