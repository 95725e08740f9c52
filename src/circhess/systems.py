"""Circular Hessenberg systems.

A system packages two multiplicity-free matrices A, A* with fixed orderings
of their primitive idempotents.  The axioms say each operator acts in a
circular Hessenberg fashion on the other's eigenspace ordering:

    E_i A* E_j  is  0 if 1 < i - j or 1 < j - i < d,  nonzero if
    i - j = 1 or j - i = d   (and symmetrically with E*_i A E*_j).

That shape is defined once, as the CIRCULAR_HESSENBERG table of
linalg._shape_pattern.

The complete isomorphism invariant is the parameter array
(eigenvalue sequence theta, dual eigenvalue sequence theta*, split
sequence phi); split_form_build realizes any valid array as a concrete
system on F^(d+1), and extract_parameter_array inverts it.
ParameterArray.dual() is the array of the pair (A*, A).

Primitive idempotents have rank one, and a system holds each family as
its members' factors (u_k, w_k, p_k), E_k = u_k w_k^T / p_k (see
IdempotentFamily).  split_form_build forms the rows of A and A* and both
families straight from the array's payloads, with no idempotent matrix
and no field inverse: E is the table _unit_chain_eigenvectors memoizes
per diagonal (the _MEMO_SIZE most recently used), the division-free
right and left eigenvectors (r_k, s_k) and scalars p_k = s_k . r_k of
the bidiagonal matrix with that diagonal and a unit chain, which is A
itself for theta reversed; E* is theta*'s table scaled entrywise by
prefix and suffix products of phi (_scaled_eigenvectors, which
_bidiagonal_eigenvectors also calls, for bases' standard <-> inv_split
transitions).  The search solver reads its forms off the same table
(search._theta_forms), for the normalized sequences it solves.
The matrices are formed once, on first read, for the consumers that want
them (bases, replay, the isomorphism witness); matrices that come from
outside (ingest_pair's Lagrange idempotents, an assignment s.E = ...) are
factored once, on first use.  verify_ch_axioms, the one judge, trusts none
of it.  Per family it makes two `dots` tables on the factors, the images
A u_j || A* u_j and the scalars w_i . u_j || w_i . (A* u_j) (for E*, A and
A* swapped), and reads off them the families' algebra (d + 1 members of
length d + 1, and sum E_i = I as w_i . u_j = delta_ij p_i with p_i != 0),
membership (A u_i = theta_i u_i) and each constrained E_i A* E_j as the
scalar w_i . (A* u_j): O(d^2) field operations per idempotent, and no
matrix built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    CorruptIdempotentsError,
    DimensionMismatchError,
    InvalidParameterArrayError,
    MixedFieldsError,
    NotInE0StarVError,
    ParseError,
    UnsupportedFieldError,
    UnverifiedSystemError,
    ZeroVectorError,
)
from .fields import FieldElement, FieldSpec, _json_fields, field_from_json
from .linalg import (
    Matrix,
    ShapeClass,
    Vector,
    _gauss_jordan,
    _shape_pattern,
    eigenvalues_bruteforce,
    matrix_inverse,
    primitive_idempotents,
    rank,
)

# Entries kept by the per-sequence memo of _unit_chain_eigenvectors, least
# recently used out first.  An exhaustive search within the default cap
# meets at most perm(5, 5) = 120 sequences, so its tables all stay; a larger
# one rebuilds the tables it evicts.  A table takes about 1 KB over GF(5),
# d = 3 and up to 15 KB over cyclo:5, d = 6, so a process that builds many
# systems (random mode, the CLI, replay, library use over QQ) holds a few MB
# at most.  Random mode builds its hit table (search._code_tables, which
# keeps as many (field, d) entries) only over fields whose perm(q, d + 1)
# sequences number at most this many.
_MEMO_SIZE = 256


@dataclass(frozen=True)
class ParameterArray:
    """(d; theta_0..theta_d; theta*_0..theta*_d; phi_1..phi_d).

    theta and theta* are mutually distinct, every phi_i is nonzero, and
    d >= 3.  Equality of arrays is exactly isomorphism of the systems they
    generate.
    """

    spec: FieldSpec
    d: int
    theta: tuple
    theta_star: tuple
    phi: tuple

    def __post_init__(self):
        d = self.d
        if d < 3:
            raise DimensionMismatchError("diameter d must be >= 3")
        if len(self.theta) != d + 1 or len(self.theta_star) != d + 1:
            raise DimensionMismatchError("theta sequences must have length d + 1")
        if len(self.phi) != d:
            raise DimensionMismatchError("phi must have length d")
        spec = self.spec
        for seq in (self.theta, self.theta_star, self.phi):
            for e in seq:
                if not isinstance(e, FieldElement) or (
                        e.spec is not spec and e.spec != spec):
                    raise MixedFieldsError("array entries must lie in the stated field")
        for name, seq in (("theta", self.theta), ("theta_star", self.theta_star)):
            if len({e.payload for e in seq}) != len(seq):
                raise InvalidParameterArrayError(
                    f"{name} values must be mutually distinct"
                )
        if any(e.is_zero() for e in self.phi):
            raise InvalidParameterArrayError("split sequence entries must be nonzero")

    @classmethod
    def make(cls, spec: FieldSpec, theta, theta_star, phi) -> "ParameterArray":
        th = tuple(spec.element(x) for x in theta)
        ths = tuple(spec.element(x) for x in theta_star)
        ph = tuple(spec.element(x) for x in phi)
        return cls(spec, len(th) - 1, th, ths, ph)

    @classmethod
    def _trusted(cls, spec: FieldSpec, theta, theta_star, phi) -> "ParameterArray":
        """The array of payload tuples that are already certified: payloads
        of spec, theta and theta* each mutually distinct, every phi_t
        nonzero, len(theta) >= 4 (a search hit, drawn from the field and
        accepted by the probe or listed by search._pair_hits).  Builds its
        elements and skips the checks of public construction."""
        array = object.__new__(cls)
        array.__dict__.update(
            spec=spec, d=len(phi),
            theta=tuple([FieldElement(spec, x) for x in theta]),
            theta_star=tuple([FieldElement(spec, x) for x in theta_star]),
            phi=tuple([FieldElement(spec, x) for x in phi]))
        return array

    def lift(self, ext) -> "ParameterArray":
        """Embed the array into `ext`, which is its own field (the array is
        returned unchanged) or a quotient extension of it."""
        if ext == self.spec:
            return self
        return ParameterArray(
            ext,
            self.d,
            tuple(e.lift(ext) for e in self.theta),
            tuple(e.lift(ext) for e in self.theta_star),
            tuple(e.lift(ext) for e in self.phi),
        )

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "d": self.d,
            "theta": [str(e) for e in self.theta],
            "theta_star": [str(e) for e in self.theta_star],
            "phi": [str(e) for e in self.phi],
        }

    def dual(self) -> "ParameterArray":
        """The array of the pair (A*, A): (theta*; theta; phi reversed)."""
        return ParameterArray(self.spec, self.d, self.theta_star, self.theta,
                              self.phi[::-1])

    @classmethod
    def from_json(cls, doc: dict) -> "ParameterArray":
        field, *seqs = _json_fields(doc, "field", "theta", "theta_star", "phi")
        if not all(isinstance(seq, list) for seq in seqs):
            raise ParseError("theta, theta_star and phi must be JSON lists")
        theta, theta_star, phi = seqs
        if len(theta) < 4:
            raise ParseError("theta must have d + 1 >= 4 entries")
        if len(theta_star) != len(theta) or len(phi) != len(theta) - 1:
            raise ParseError("theta_star must have d + 1 entries and phi d")
        if "d" in doc and (type(doc["d"]) is not int or doc["d"] != len(theta) - 1):
            raise ParseError(f"d must be the JSON integer {len(theta) - 1}, "
                             f"got {doc['d']!r}")
        return cls.make(field_from_json(field), *seqs)


@dataclass
class SplitDecomposition:
    """Generators of the one-dimensional flag-intersection subspaces."""

    generators: list[Vector]


@dataclass
class VerificationOutcome:
    is_ch: bool
    failures: list  # of (condition, i, j), in the order ii, iii, iv, v

    def to_json(self) -> dict:
        return {
            "is_ch": self.is_ch,
            "failures": [
                {"condition": c, "i": i, "j": j} for (c, i, j) in self.failures
            ],
        }


class IdempotentFamily:
    """One idempotent family E_0..E_d, held as its members' rank-one
    factors (u_k, w_k, p_k), with E_k = u_k w_k^T / p_k (payload sequences
    and a payload), or as the matrices it was given, or both.

    Each view is derived from the other once, on first read: matrices()
    forms the outer products, and factors() factors each matrix by
    _rank_one_factors, raising CorruptIdempotentsError for a zero member
    or one of higher rank.  Nothing else is checked here; see
    _family_tables.
    """

    __slots__ = ("spec", "_matrices", "_factors")

    def __init__(self, spec, matrices=None, factors=None):
        self.spec = spec
        self._matrices = None if matrices is None else tuple(matrices)
        self._factors = factors

    def matrices(self) -> tuple:
        if self._matrices is None:
            self._matrices = tuple(_rank_one_matrix(self.spec, *f)
                                   for f in self._factors)
        return self._matrices

    def factors(self) -> list:
        if self._factors is None:
            self._factors = _family_factors(self._matrices)
        return self._factors


def _rank_one_matrix(spec, u, w, p) -> Matrix:
    """The matrix u w^T / p; a zero entry of u gives a zero row without
    multiplying."""
    mul, is_zero = spec.mul, spec.is_zero
    inv = spec.inv(p)
    w = [mul(y, inv) for y in w]
    zero_row = (spec.zero,) * len(w)
    return Matrix(spec, [zero_row if is_zero(x) else [mul(x, y) for y in w]
                         for x in u])


class CHSystem:
    """A candidate circular Hessenberg system (A; E_0..E_d; A*; E*_0..E*_d).

    The idempotent families are the IdempotentFamily objects `family` and
    `family_star`; E and E_star read their matrices.  The constructor's
    E and E_star, and an assignment s.E = ... or s.E_star = ..., take an
    IdempotentFamily or the member matrices.

    The `verified` flag is sticky and set only by verify_ch_axioms; every
    operation that relies on the axioms requires it.
    """

    def __init__(self, spec, d, A, A_star, E, E_star, theta, theta_star, params=None):
        self.spec = spec
        self.d = d
        self.A = A
        self.A_star = A_star
        self.E = E
        self.E_star = E_star
        self.theta = tuple(theta)
        self.theta_star = tuple(theta_star)
        self.params = params
        self.verified = False

    @property
    def E(self) -> tuple:
        return self.family.matrices()

    @E.setter
    def E(self, family):
        self.family = _as_family(self.spec, family)

    @property
    def E_star(self) -> tuple:
        return self.family_star.matrices()

    @E_star.setter
    def E_star(self, family):
        self.family_star = _as_family(self.spec, family)

    def require_verified(self, what: str):
        if not self.verified:
            raise UnverifiedSystemError(f"{what} requires a verified system")

    def to_json(self) -> dict:
        return {"parameter_array": self.params.to_json() if self.params else None,
                "verified": self.verified,
                "A": self.A.to_json(),
                "A_star": self.A_star.to_json()}


def _as_family(spec, family) -> IdempotentFamily:
    if isinstance(family, IdempotentFamily):
        return family
    return IdempotentFamily(spec, matrices=family)


def split_form_build(p: ParameterArray) -> CHSystem:
    """Realize a parameter array as matrices on F^(d+1).

    A is lower bidiagonal with diagonal theta_d, ..., theta_0 and ones on the
    subdiagonal; A* is upper bidiagonal with diagonal theta*_0, ..., theta*_d
    and superdiagonal phi_1, ..., phi_d.  Idempotents are in the eigenvalue
    orders theta_0..theta_d and theta*_0..theta*_d (note A's diagonal lists
    theta reversed; E_i still pairs with theta_i).

    Both families are handed over as rank-one factors, the eigenvector
    triples (r_k, s_k, p_k) of _bidiagonal_eigenvectors, with
    s_k . r_k = p_k: E_k = r_k s_k^T / p_k for A, and E*_k = s_k r_k^T / p_k
    for the triples of the lower bidiagonal A*^T, the transposes of
    A*^T's projectors.  Everything is formed from the array's payloads:
    the rows of A and A*, E from the memoized unit-chain table of theta
    reversed (A's diagonal, with a unit chain), and E* from theta*'s
    table scaled by the prefix and suffix products of phi
    (_scaled_eigenvectors).  No idempotent matrix is formed, no field
    element inverted, and nothing is read back off A or A*; only A and A*
    are built.  A search thus builds each eigenvalue sequence's table
    once, while every call still builds its own system.

    The builder checks nothing: the returned system is unverified; run
    verify_ch_axioms on it, which also checks that E and E* belong to A, A*.
    """
    spec = p.spec
    A, A_star = _split_form(p)
    table = _unit_chain_eigenvectors(spec, tuple([e.payload for e in p.theta[::-1]]))
    triples = _scaled_eigenvectors(
        spec, _unit_chain_eigenvectors(spec, tuple([e.payload for e in p.theta_star])),
        [e.payload for e in p.phi])
    E = IdempotentFamily(spec, factors=list(table[::-1]))
    E_star = IdempotentFamily(spec, factors=[(s, r, n) for r, s, n in triples])
    return CHSystem(spec, p.d, A, A_star, E, E_star, p.theta, p.theta_star, params=p)


def _bidiagonal_eigenvectors(matrix: Matrix) -> list[tuple]:
    """(r_k, s_k, p_k) for each diagonal entry l_k of the lower-bidiagonal
    matrix low whose diagonal entries l_0..l_d are mutually distinct and
    whose entries c_i = low[i][i - 1] are nonzero: a right column and a
    left row of l_k, as payload tuples, and the payload p_k != 0, with
    s_k . r_j = delta_kj p_k.  low is `matrix` when that is lower
    bidiagonal and its transpose when it is upper bidiagonal (c_i is read
    as matrix[i][i - 1] + matrix[i - 1][i], of which one term is zero).
    These are _scaled_eigenvectors of low's diagonal and chain; each call
    returns a fresh list, and no field element is inverted.
    """
    s = matrix.spec
    n, rows = matrix.nrows, matrix.rows
    return _scaled_eigenvectors(
        s, _unit_chain_eigenvectors(s, tuple([rows[i][i] for i in range(n)])),
        [s.add(rows[i][i - 1], rows[i - 1][i]) for i in range(1, n)])


def _scaled_eigenvectors(s: FieldSpec, table, c) -> list[tuple]:
    """The triples (r_k, s_k, p_k) of the lower-bidiagonal matrix low with
    the unit chain L's diagonal and the nonzero chain c_1..c_d below it,
    from L's triples `table` = (u_k, v_k, D_k) (_unit_chain_eigenvectors),
    as a fresh list.  With the prefix products P_i = c_1 ... c_i (P_0 = 1),
    the suffix products Q_i = c_{i+1} ... c_d (Q_d = 1) and G = diag(Q_i),

        r_k[i] = u_k[i] P_i,    s_k[j] = v_k[j] Q_j,    p_k = D_k P_d.

    This is exact because low = G^-1 L G: the two agree on the diagonal,
    and (G^-1 L G)[i][i - 1] = Q_{i-1} / Q_i = c_i.  Since P_i Q_i = P_d,
    r_k = P_d G^-1 u_k and s_k = v_k G, so low r_k = P_d G^-1 L u_k =
    l_k r_k, s_k low = v_k L G = l_k s_k, and s_k . r_j = P_d v_k . u_j =
    delta_kj D_k P_d.  p_k is a product of the nonzero differences
    l_k - l_m and the nonzero c_i, so it is nonzero, and no quotient is
    ever formed.  When every c_i is 1 the table is the answer.
    """
    one = s.one
    if all(x == one for x in c):
        return list(table)
    mul = s.mul
    prefix = list(accumulate(c, mul, initial=one))
    suffix = list(accumulate(reversed(c), mul, initial=one))[::-1]
    # u_k vanishes before index k and v_k after it
    return [(u[:k] + tuple(map(mul, u[k:], prefix[k:])),
             tuple(map(mul, v[:k + 1], suffix)) + v[k + 1:], mul(dk, prefix[-1]))
            for k, (u, v, dk) in enumerate(table)]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _unit_chain_eigenvectors(spec: FieldSpec, diag: tuple) -> tuple:
    """The triples (u_k, v_k, D_k) of _bidiagonal_eigenvectors for the
    lower bidiagonal matrix L with diagonal `diag` (mutually distinct
    payloads l_0..l_d) and ones below it, as payload tuples and a payload,
    memoized by (field, diagonal):

        u_k[i] = prod_{m > i} (l_k - l_m)   for i >= k,
        v_k[j] = prod_{m < j} (l_k - l_m)   for j <= k,
        D_k = u_k[k] v_k[k] = prod_{m != k} (l_k - l_m),

    and zero elsewhere.  Row i of L u = l_k u reads
    u[i - 1] = (l_k - l_i) u[i], and column j of v L = l_k v reads
    v[j + 1] = (l_k - l_j) v[j]; these products solve both two-term
    recurrences without a division.  u_k and v_k overlap only at index k,
    so v_k . u_k = D_k, the Lagrange denominator, which is nonzero; left
    and right eigenvectors of distinct eigenvalues are orthogonal.  Each
    triple costs O(d) field operations from prefix and suffix products,
    and no inverse.

    Every split_form_build call reads two diagonals (A's is theta
    reversed, A*'s theta*), and search._theta_forms reads theta reversed
    for each normalized sequence that the search solver solves for, so a
    process meets one per distinct eigenvalue sequence it builds or
    solves for: perm(q, d + 1) for an exhaustive search over a field of q
    elements, but without limit over QQ or in long random runs.  The memo
    is therefore bounded: it keeps the _MEMO_SIZE most recently used
    diagonals.
    """
    mul, sub, one, zero = spec.mul, spec.sub, spec.one, spec.zero
    n = len(diag)
    out = []
    for k, lk in enumerate(diag):
        diffs = [sub(lk, lm) for lm in diag]
        after = list(accumulate(reversed(diffs[k + 1:]), mul, initial=one))[::-1]
        before = list(accumulate(diffs[:k], mul, initial=one))
        out.append((tuple([zero] * k + after), tuple(before + [zero] * (n - 1 - k)),
                    mul(after[0], before[-1])))
    return tuple(out)


def _split_form(p: ParameterArray) -> tuple[Matrix, Matrix]:
    """The bidiagonal pair (A, A*) that split_form_build realizes; it is
    also what both operators are in the split basis of any system with
    array p.  Each row is built as a tuple from the array's payloads."""
    s, d = p.spec, p.d
    z, one = (s.zero,) * d, s.one
    theta, theta_star, phi = p.theta, p.theta_star, p.phi
    a_rows = [(theta[d].payload,) + z] + [
        z[:i - 1] + (one, theta[d - i].payload) + z[i:] for i in range(1, d + 1)]
    b_rows = [z[:i] + (theta_star[i].payload, phi[i].payload) + z[i + 1:]
              for i in range(d)] + [z + (theta_star[d].payload,)]
    return Matrix(s, a_rows), Matrix(s, b_rows)


def _split_vectors(a: Matrix, theta, e0: Matrix, u_star: Vector) -> list[Vector]:
    """The split vectors v_0 = e0 u* and v_i = a v_{i-1} - theta_{d-i+1} v_{i-1}
    for i = 1..d.

    With (a, theta, e0) = (A, theta, E*_0) they are the split basis; with
    (A*, theta*, E_0) the dual split basis.  Raises ZeroVectorError for a
    zero seed and NotInE0StarVError when its projection e0 u* is zero.
    """
    if u_star.is_zero():
        raise ZeroVectorError("seed vector is zero")
    seed = e0 * u_star
    if seed.is_zero():
        raise NotInE0StarVError("seed has zero projection onto E*_0 V")
    vs = [seed]
    for t in theta[:0:-1]:
        vs.append(a * vs[-1] - vs[-1].scale(t))
    return vs


def _rank_one_factors(e: Matrix):
    """(u, w, pivot) with e = u w^T / pivot when e has rank one, as payload
    tuples and a payload; None when e is zero or has higher rank.

    w is the first nonzero row of e (row r), pivot = w[q] for the first q
    with w[q] != 0, and u = e[:, q].  A rank-one e = x y^T has w = x_r y^T
    and u = y_q x, so pivot e[a][b] = u[a] w[b] for every entry.
    Conversely, these (d + 1)^2 identities write e as u w^T / pivot with
    u[r] = pivot != 0, which has rank one.  O(d^2) field operations.
    """
    s = e.spec
    zero_row = (s.zero,) * e.ncols
    w = next((r for r in e.rows if r != zero_row), None)
    if w is None:
        return None
    q = next(b for b, x in enumerate(w) if not s.is_zero(x))
    pivot = w[q]
    u = tuple(r[q] for r in e.rows)
    mul = s.mul
    for ua, row in zip(u, e.rows):
        # pivot != 0, so a zero u[a] needs a zero row; row r holds trivially
        if s.is_zero(ua):
            if row != zero_row:
                return None
        elif row is not w and [mul(x, pivot) for x in row] != [mul(ua, y) for y in w]:
            return None
    return u, w, pivot


def _family_factors(E) -> list:
    """_rank_one_factors of every member, or CorruptIdempotentsError when
    one of them is zero or not of rank one."""
    factors = [_rank_one_factors(e) for e in E]
    if any(f is None for f in factors):
        raise CorruptIdempotentsError(
            "stored idempotent family has a member that is zero or not of rank one"
        )
    return factors


def _family_tables(family: IdempotentFamily, labels, own: Matrix, other: Matrix):
    """Check a family E_0..E_{n-1} of the n x n matrix `own` and decide it
    against `other`, from two `dots` tables on its factors
    (u_i, w_i, p_i), E_i = u_i w_i^T / p_i: the images
    own u_j || other u_j, and the scalars w_i . u_j || w_i . (other u_j).
    Return (the j with own u_j != labels_j u_j, the scalar table).

    Raise CorruptIdempotentsError unless there are n members of length n
    with one distinct label each that have rank one, sum to I and satisfy
    E_i E_j = delta_ij E_i.  Nothing the factors' source says is trusted,
    and no product of two members, and no matrix, is formed.  Let U be the
    n x n matrix with columns u_i and W the one with columns w_i / p_i.
    Then sum_i E_i = U W^T.  The check is w_i . u_j = delta_ij p_i with
    every p_i != 0, i.e. W^T U = I; then u_i and w_i are nonzero, so E_i
    has rank one.  U and W are square, and a square matrix with a left
    inverse is invertible with that inverse also a right one, so W^T U = I
    holds exactly when U W^T = I, i.e. sum_i E_i = I.  Hence also

        E_i E_j = u_i (w_i . u_j / p_i) w_j^T / p_j = delta_ij E_i.

    The count and the lengths are checked first because the equivalence
    needs U and W square: m orthogonal rank-one idempotents of size k x k
    satisfy W^T U = I_m without summing to I when m < k.  This accepts
    exactly the valid families: n nonzero orthogonal idempotents summing
    to I give V = E_0 V (+) ... (+) E_{n-1} V, and n nonzero dimensions
    summing to n are all one.  A zero member or one of higher rank, which
    has no factors, is therefore rejected without loss.

    Then E_i other E_j = u_i (w_i . other u_j) w_j^T / (p_i p_j), with u_i
    and w_j nonzero, is zero exactly when the scalar w_i . (other u_j) is.
    """
    n = own.nrows
    factors = family.factors()
    if len(factors) != n or any(len(u) != n or len(w) != n for u, w, _ in factors):
        raise CorruptIdempotentsError(f"need {n} idempotents of size {n} x {n}")
    if len(labels) != n or len({lam.payload for lam in labels}) != n:
        raise CorruptIdempotentsError("need one distinct label per idempotent")
    s = family.spec
    us, ws, ps = zip(*factors)
    images = s.dots(us, own.rows + other.rows)
    table = s.dots(ws, us + tuple([image[n:] for image in images]))
    zero, mul = s.zero, s.mul
    for i, (p, row) in enumerate(zip(ps, table)):
        # row[:n] = delta_i p: p != 0 at i and zero at the other n - 1 places
        if p == zero or row[i] != p or row[:n].count(zero) != n - 1:
            raise CorruptIdempotentsError("stored idempotents do not sum to I")
    return [j for j, (u, image, lam) in enumerate(zip(us, images, labels))
            if image[:n] != tuple([mul(lam.payload, x) for x in u])], table


def verify_ch_axioms(s: CHSystem) -> VerificationOutcome:
    """Decide that E and E* are the primitive idempotents of A and A*, and
    compare every product E_i A* E_j and E*_i A E*_j that the circular
    Hessenberg pattern constrains with the axioms' zero/nonzero pattern.

    The pattern is the one table
    linalg._shape_pattern(ShapeClass.CIRCULAR_HESSENBERG, d + 1),
    which the search probe and the ingest ordering search read too; only
    the specification is shared.  It leaves the diagonal (j = i) and
    superdiagonal (j = i + 1) free, so those products are not decided; for
    d >= 3 the corner (0, d) is never one of them.

    Each family is checked and decided from two `dots` tables on its
    factors, which may come from anywhere (see _family_tables): E, then
    E*, each d + 1 members of size (d + 1) x (d + 1) of rank one with
    distinct labels theta (theta*) summing to I, which with rank-one
    members is the whole idempotent algebra; this is the one place it is
    checked (see primitive_idempotents).  A family given as matrices is
    factored first, and a zero member or one of higher rank raises.  Each
    j with A u_j != theta_j u_j is the failure ("ii", j, j), and
    ("iii", j, j) for A* and E*_j.  None fails exactly when
    A = sum theta_j E_j: then A E_j = theta_j E_j by the algebra, so
    (A u_j - theta_j u_j) w_j^T = 0 with w_j != 0; conversely,
    A E_j = theta_j E_j for all j gives A = A sum E_j = sum theta_j E_j.
    Every pattern product E_i A* E_j is decided exactly as the scalar
    w_i . (A* u_j) of E's table (E*_i A E*_j from E*'s), independent of
    the search probe: four `dots` calls in all, and no matrix built.  Sets
    the sticky `verified` flag when nothing fails.  A or A* of any shape
    other than (d + 1) x (d + 1) raises DimensionMismatchError first: a
    product would read only the leading d + 1 columns.
    """
    n = s.d + 1
    A, A_star = s.A, s.A_star
    if not A.nrows == A.ncols == A_star.nrows == A_star.ncols == n:
        raise DimensionMismatchError(f"A and A* must be {n} x {n}")
    bad, table = _family_tables(s.family, s.theta, A, A_star)
    bad_star, table_star = _family_tables(s.family_star, s.theta_star, A_star, A)
    failures = [("ii", j, j) for j in bad] + [("iii", j, j) for j in bad_star]
    pattern = _shape_pattern(ShapeClass.CIRCULAR_HESSENBERG, n)
    zero = s.spec.zero
    for cond, rows in (("iv", table), ("v", table_star)):
        failures += [(cond, i, j) for i, j, must in pattern
                     if (rows[i][n + j] == zero) != must]
    outcome = VerificationOutcome(not failures, failures)
    if outcome.is_ch:
        s.verified = True
    return outcome


def _proportionality(w: Vector, v: Vector) -> FieldElement:
    """The scalar c with w = c * v, for nonzero v; exact check."""
    if v.is_zero():
        raise ZeroVectorError("proportionality against the zero vector")
    s = v.spec
    c = None
    for a, b in zip(w.payloads, v.payloads):
        if not s.is_zero(b):
            c = s.div(a, b)
            break
    ce = FieldElement(s, c)
    if w != v.scale(ce):
        raise ZeroVectorError("vectors are not proportional")
    return ce


def extract_parameter_array(s: CHSystem, u_star: Vector):
    """Recover the parameter array and the split decomposition from a
    verified system and a seed vector with nonzero E*_0 projection.

    The seed is normalized by projecting through E*_0; the recovered phi is
    independent of the seed choice.
    """
    s.require_verified("parameter array extraction")
    vs = _split_vectors(s.A, s.theta, s.E_star[0], u_star)
    d = s.d
    if rank(Matrix.from_columns(vs)) != d + 1:
        raise ZeroVectorError("split vectors are not independent")
    phi = []
    for i in range(1, d + 1):
        w = s.A_star * vs[i] - vs[i].scale(s.theta_star[i])
        phi.append(_proportionality(w, vs[i - 1]))
    params = ParameterArray(s.spec, d, s.theta, s.theta_star, tuple(phi))
    return params, SplitDecomposition(vs)


def dual_system(s: CHSystem) -> CHSystem:
    """Swap the roles of A and A*.  The dual's parameter array is
    s.params.dual(), which is (theta*; theta; phi reversed)."""
    s.require_verified("dual")
    out = CHSystem(
        s.spec, s.d, s.A_star, s.A, s.family_star, s.family, s.theta_star,
        s.theta, params=s.params.dual() if s.params is not None else None,
    )
    verify_ch_axioms(out)
    return out


def isomorphic(p1: ParameterArray, p2: ParameterArray) -> bool:
    """Systems are isomorphic iff their parameter arrays agree componentwise."""
    if p1.spec != p2.spec:
        raise MixedFieldsError("parameter arrays over different fields")
    if p1.d != p2.d:
        raise DimensionMismatchError("parameter arrays of different diameter")
    return p1.theta == p2.theta and p1.theta_star == p2.theta_star and p1.phi == p2.phi


def isomorphism_witness(s1: CHSystem, s2: CHSystem) -> Matrix | None:
    """An invertible sigma with sigma X sigma^-1 mapping s1's data to s2's,
    or None when the parameter arrays differ.

    sigma maps s1's split basis onto s2's, so it is invertible (extraction
    rank-checks both), and sigma X sigma^-1 = Y is checked as sigma X =
    Y sigma for A, A* and every idempotent: one inverse in all."""
    s1.require_verified("isomorphism witness")
    s2.require_verified("isomorphism witness")
    if s1.params is None or s2.params is None or not isomorphic(s1.params, s2.params):
        return None
    seed1 = _default_seed(s1)
    seed2 = _default_seed(s2)
    _, dec1 = extract_parameter_array(s1, seed1)
    _, dec2 = extract_parameter_array(s2, seed2)
    b1 = Matrix.from_columns(dec1.generators)
    b2 = Matrix.from_columns(dec2.generators)
    sigma = b2 * matrix_inverse(b1)
    pairs = zip((s1.A, s1.A_star, *s1.E, *s1.E_star),
                (s2.A, s2.A_star, *s2.E, *s2.E_star))
    if any(sigma * x != y * sigma for x, y in pairs):
        return None
    return sigma


def _default_seed(s: CHSystem) -> Vector:
    """Deterministic nonzero vector in E*_0 V: the first nonzero column of
    E*_0, scaled so its first nonzero coordinate is 1."""
    e = s.E_star[0]
    for j in range(e.ncols):
        col = e.column(j)
        if not col.is_zero():
            sp = s.spec
            for p in col.payloads:
                if not sp.is_zero(p):
                    return col.scale(FieldElement(sp, sp.inv(p)))
    raise CorruptIdempotentsError("E*_0 is the zero matrix")


def cyclic_irreducibility_check(s: CHSystem, w_seed: Vector) -> bool:
    """Close span{w_seed} under A and A*; true iff the closure is everything.

    This is the computational content of the containment of these systems in
    the cyclic tridiagonal world: no proper nonzero invariant subspace.
    """
    s.require_verified("irreducibility check")
    if w_seed.is_zero():
        raise ZeroVectorError("seed vector is zero")
    n = s.d + 1
    a_t, b_t = s.A.transpose(), s.A_star.transpose()
    w = Matrix(s.spec, [w_seed.payloads])
    while w.nrows < n:
        # the rows of w span W; the rows of w * M^T are their images M v
        stack = w.rows + (w * a_t).rows + (w * b_t).rows
        rows, pivots, _ = _gauss_jordan(s.spec, stack, n)
        if len(pivots) == w.nrows:
            return False  # W is invariant under A and A*, and proper
        w = Matrix(s.spec, rows[: len(pivots)])
    return True


# --- ingesting raw pairs ---------------------------------------------------

def ingest_pair(A: Matrix, A_star: Matrix) -> CHSystem | None:
    """Build a verified system from two bare matrices over a finite field.

    Eigenvalues are the roots of each characteristic polynomial
    (eigenvalues_bruteforce), for a field of any size.  Each side's
    idempotent ordering is read off the other map's zero table by one forced
    walk of its "maps into" graph and at most n pattern checks (see
    _ordering for the proof that this finds an ordering whenever the axioms
    admit one).
    Returns None when no ordering satisfies the axioms.
    """
    if A.spec != A_star.spec:
        raise MixedFieldsError("pair over different fields")
    if A.spec.order is None:
        raise UnsupportedFieldError("ingest requires a finite field")
    n = A.nrows
    if n != A.ncols or (A_star.nrows, A_star.ncols) != (n, n) or n < 4:
        raise DimensionMismatchError("ingest needs square matrices of size >= 4")
    evs_a = eigenvalues_bruteforce(A)
    evs_b = eigenvalues_bruteforce(A_star)
    if evs_a is None or evs_b is None:
        return None
    found_a = _find_ordering(A, evs_a, A_star)
    if found_a is None:
        return None
    found_b = _find_ordering(A_star, evs_b, A)
    if found_b is None:
        return None
    (theta, family), (theta_star, family_star) = found_a, found_b
    sys = CHSystem(A.spec, n - 1, A, A_star, family, family_star, theta, theta_star)
    if not verify_ch_axioms(sys).is_ch:
        return None
    params, _ = extract_parameter_array(sys, _default_seed(sys))
    sys.params = params
    return sys


def _find_ordering(M: Matrix, evs, other: Matrix):
    """An ordering of M's eigenvalues and idempotents making `other` act in
    circular Hessenberg fashion, as (theta, IdempotentFamily) in that
    order, or None.  The idempotents are factored once, here, and the
    family carries both the matrices and their factors.  The zero table
    is read off two `dots` tables, as in _family_tables: the images
    other u_j, then the scalars w_i . (other u_j)."""
    n, s = len(evs), M.spec
    E = primitive_idempotents(M, evs)  # rank one each: M is multiplicity-free
    factors = _family_factors(E)
    us, ws, _ = zip(*factors)
    o = _ordering({(i, j): x == s.zero for i, row in enumerate(
        s.dots(ws, s.dots(us, other.rows))) for j, x in enumerate(row)}, n)
    if o is None:
        return None
    return tuple(evs[k] for k in o), IdempotentFamily(
        s, [E[k] for k in o], [factors[k] for k in o])


def _ordering(zeros, n: int):
    """An ordering o of 0..n-1 under which the zero table
    {(i, j): whether E_i X E_j = 0} has the circular Hessenberg pattern,
    as a list, or None: the first valid rotation, started at vertex 0, of
    the one cycle that a valid ordering allows.

    Let succ[j] be the set of i != j with E_i X E_j != 0.  A valid
    ordering o fixes the shape of succ: succ[o[0]] = {o[1]}, succ[o[p]] is
    o[p + 1] plus at most o[p - 1] for 0 < p < d, and succ[o[d]] is o[0]
    plus at most o[d - 1].  So the fewest successors a vertex has is one,
    and a walk from such a vertex, say o[p], that steps each time to the
    one successor not yet visited is forced: it runs o[p], ..., o[d], o[0],
    ..., o[p - 1], its only other choice being the visited o[p - 1].  The
    walk answers None when a step has zero or two choices.  Its cycle is
    the only Hamiltonian cycle of succ, since one must leave o[0] for o[1],
    and stepping back to o[p - 1] would close a cycle shorter than n.
    Every valid ordering runs along a Hamiltonian cycle, so each is a
    forward rotation of this one and no reflection is valid; the full
    pattern check decides each rotation.  The result is the ordering that
    enumerating every Hamiltonian cycle anchored at 0, with its rotations
    and then its reflections, would give first: one walk and at most n
    pattern checks in place of up to (n - 1)! cycles.
    """
    succ = [[i for i in range(n) if i != j and not zeros[i, j]] for j in range(n)]
    cycle = [min(range(n), key=lambda j: len(succ[j]))]
    while len(cycle) < n:
        step = [i for i in succ[cycle[-1]] if i not in cycle]
        if len(step) != 1:
            return None
        cycle += step
    cycle = cycle[cycle.index(0):] + cycle[:cycle.index(0)]
    pattern = _shape_pattern(ShapeClass.CIRCULAR_HESSENBERG, n)
    for r in range(n):
        o = cycle[r:] + cycle[:r]
        if all(zeros[o[i], o[j]] == zero for i, j, zero in pattern):
            return o
    return None
