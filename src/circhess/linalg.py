"""Dense exact matrices and vectors over a FieldSpec.

Rows and columns are indexed 0..d.  Matrices and vectors are immutable;
all operations return fresh objects and are safe to share between threads.
Includes one zero/nonzero pattern table per matrix shape (diagonal,
tridiagonal, Hessenberg, circular Hessenberg), primitive idempotents via
the Lagrange product, and the eigenvalues of a matrix over a finite field
as the roots of its characteristic polynomial.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum

from .errors import (
    DimensionMismatchError,
    MixedFieldsError,
    NotMultiplicityFreeError,
    ParseError,
    RepeatedEigenvalueError,
    SingularError,
    UnsupportedFieldError,
)
from .fields import FieldElement, FieldSpec, _json_fields, _poly_roots, field_from_json


class Vector:
    __slots__ = ("spec", "n", "payloads")

    def __init__(self, spec: FieldSpec, payloads):
        self.spec = spec
        self.payloads = tuple(payloads)
        self.n = len(self.payloads)

    @classmethod
    def from_elements(cls, spec: FieldSpec, elems) -> "Vector":
        return cls(spec, (spec.element(e).payload for e in elems))

    @classmethod
    def unit(cls, spec: FieldSpec, n: int, k: int) -> "Vector":
        return cls(spec, (spec.one if i == k else spec.zero for i in range(n)))

    @classmethod
    def zero(cls, spec: FieldSpec, n: int) -> "Vector":
        return cls(spec, (spec.zero,) * n)

    def entry(self, i: int) -> FieldElement:
        return FieldElement(self.spec, self.payloads[i])

    def entries(self):
        return [FieldElement(self.spec, p) for p in self.payloads]

    def is_zero(self) -> bool:
        return all(self.spec.is_zero(p) for p in self.payloads)

    def _check(self, other: "Vector"):
        if self.spec != other.spec:
            raise MixedFieldsError("vectors over different fields")
        if self.n != other.n:
            raise DimensionMismatchError(f"lengths {self.n} vs {other.n}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        s = self.spec
        return Vector(s, (s.add(a, b) for a, b in zip(self.payloads, other.payloads)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        s = self.spec
        return Vector(s, (s.sub(a, b) for a, b in zip(self.payloads, other.payloads)))

    def scale(self, c) -> "Vector":
        s = self.spec
        cp = s.element(c).payload
        return Vector(s, (s.mul(cp, p) for p in self.payloads))

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.spec == other.spec
            and self.payloads == other.payloads
        )

    def __hash__(self):
        return hash((self.spec, self.payloads))

    def __repr__(self):
        return "(" + ", ".join(self.spec.render(p) for p in self.payloads) + ")"

    def to_json(self) -> list[str]:
        return [self.spec.render(p) for p in self.payloads]


class Matrix:
    __slots__ = ("spec", "nrows", "ncols", "rows")

    def __init__(self, spec: FieldSpec, rows):
        # tuple() returns a tuple argument as is, so finished rows cost nothing
        self.spec = spec
        self.rows = rows = tuple(map(tuple, rows))
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if len(set(map(len, rows))) > 1:
            raise DimensionMismatchError("ragged rows")

    # --- constructors -----------------------------------------------------
    @classmethod
    def from_elements(cls, spec: FieldSpec, grid) -> "Matrix":
        return cls(spec, ((spec.element(e).payload for e in row) for row in grid))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        return cls(
            spec,
            ((spec.one if i == j else spec.zero for j in range(n)) for i in range(n)),
        )

    @classmethod
    def zero(cls, spec: FieldSpec, n: int, m: int | None = None) -> "Matrix":
        m = n if m is None else m
        return cls(spec, ((spec.zero,) * m for _ in range(n)))

    @classmethod
    def diagonal(cls, spec: FieldSpec, diag) -> "Matrix":
        ps = [spec.element(e).payload for e in diag]
        n = len(ps)
        return cls(
            spec,
            ((ps[i] if i == j else spec.zero for j in range(n)) for i in range(n)),
        )

    @classmethod
    def reversal(cls, spec: FieldSpec, n: int) -> "Matrix":
        """Anti-diagonal permutation matrix (its own inverse)."""
        return cls(
            spec,
            (
                (spec.one if i + j == n - 1 else spec.zero for j in range(n))
                for i in range(n)
            ),
        )

    @classmethod
    def from_columns(cls, columns: list[Vector]) -> "Matrix":
        spec = columns[0].spec
        n = columns[0].n
        return cls(spec, ((c.payloads[i] for c in columns) for i in range(n)))

    # --- accessors ----------------------------------------------------------
    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.spec, self.rows[i][j])

    def column(self, j: int) -> Vector:
        return Vector(self.spec, (r[j] for r in self.rows))

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        # payloads are canonical, so equality with zero is exactly is_zero
        zero_row = (self.spec.zero,) * self.ncols
        return all(r == zero_row for r in self.rows)

    def trace(self) -> FieldElement:
        s = self.spec
        acc = s.zero
        for i in range(self.nrows):
            acc = s.add(acc, self.rows[i][i])
        return FieldElement(s, acc)

    def transpose(self) -> "Matrix":
        return Matrix(self.spec, zip(*self.rows))

    # --- arithmetic -----------------------------------------------------------
    def _check(self, other: "Matrix", same_shape: bool):
        if self.spec is not other.spec and self.spec != other.spec:
            raise MixedFieldsError("matrices over different fields")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other, True)
        add = self.spec.add
        return Matrix(
            self.spec,
            [tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other, True)
        sub = self.spec.sub
        return Matrix(
            self.spec,
            [tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self) -> "Matrix":
        neg = self.spec.neg
        return Matrix(self.spec, [tuple(map(neg, r)) for r in self.rows])

    def __mul__(self, other):
        s = self.spec
        if isinstance(other, Matrix):
            self._check(other, False)
            if self.ncols != other.nrows:
                raise DimensionMismatchError(
                    f"{self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}"
                )
            return Matrix(s, s.dots(self.rows, tuple(zip(*other.rows))))
        if isinstance(other, Vector):
            if s is not other.spec and s != other.spec:
                raise MixedFieldsError("matrix and vector over different fields")
            if self.ncols != other.n:
                raise DimensionMismatchError("matrix-vector size mismatch")
            return Vector(s, s.dots((other.payloads,), self.rows)[0])
        # scalar
        mul = s.mul
        c = s.element(other).payload
        return Matrix(s, [tuple([mul(c, a) for a in r]) for r in self.rows])

    def __rmul__(self, other):
        # scalar * matrix (scalars commute with everything here)
        return self.__mul__(other)

    def scale(self, c) -> "Matrix":
        return self.__mul__(c)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (self.spec is other.spec or self.spec == other.spec)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.spec.render(x) for x in r) for r in self.rows
        )
        return f"[{body}]"

    def pretty(self) -> str:
        cells = [[self.spec.render(x) for x in r] for r in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        lines = []
        for r in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + " ]")
        return "\n".join(lines)

    # --- JSON -----------------------------------------------------------------
    def to_json(self) -> dict:
        # each distinct payload is rendered once: most displayed matrices
        # (diagonal, bidiagonal, circular, triangular) are mostly zeros
        render = self.spec.render
        text = {x: render(x) for x in set(itertools.chain.from_iterable(self.rows))}
        return {
            "field": self.spec.to_json(),
            "rows": self.nrows,
            "cols": self.ncols,
            "entries": [list(map(text.__getitem__, r)) for r in self.rows],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Matrix":
        """The matrix of a JSON document; ParseError when it is malformed,
        including ragged rows and `rows` or `cols` that disagree with the
        entries."""
        field, entries, nrows, ncols = _json_fields(
            d, "field", "entries", "rows", "cols"
        )
        spec = field_from_json(field)
        try:
            m = cls(spec, ((spec.parse(x) for x in row) for row in entries))
        except (TypeError, DimensionMismatchError) as e:
            raise ParseError(f"bad matrix entries: {e}") from e
        if (m.nrows, m.ncols) != (nrows, ncols):
            raise ParseError("matrix JSON shape mismatch")
        return m


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] = ab - ba."""
    return a * b - b * a


def _gauss_jordan(spec: FieldSpec, rows, width: int):
    """Reduce payload rows to reduced row echelon form, pivoting on the
    first `width` columns; the one elimination loop of the library.

    Returns (rows, pivots, det).  The reduced rows come first in pivot
    order, each scaled so its pivot is one; the pivot columns are
    increasing.  det is the product of the pivots with a sign flip for
    each row swap, and zero once a column has no pivot: for a square
    block of the first `width` columns, that is its determinant.
    Elimination stops once every row holds a pivot.
    """
    zero = spec.zero
    mul, sub = spec.mul, spec.sub
    m = [list(r) for r in rows]
    pivots = []
    det = spec.one
    for col in range(width):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((k for k in range(r, len(m)) if m[k][col] != zero), None)
        if piv is None:
            det = zero
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = spec.neg(det)
        # the pivot row is zero left of col, so only its tail does work
        det = mul(det, m[r][col])
        c = spec.inv(m[r][col])
        tail = [mul(c, x) for x in m[r][col:]]
        m[r] = m[r][:col] + tail
        for k, row in enumerate(m):
            f = row[col]
            if k != r and f != zero:
                m[k] = row[:col] + [sub(x, mul(f, y)) for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return m, pivots, det


def matrix_inverse(a: Matrix) -> Matrix:
    """Exact inverse: Gauss-Jordan elimination of [a | I].

    Rational payloads stay reduced automatically, which bounds intermediate
    growth; finite-field payloads are already canonical residues.
    """
    if not a.is_square():
        raise DimensionMismatchError("inverse of a non-square matrix")
    s = a.spec
    n = a.nrows
    ident = Matrix.identity(s, n).rows
    rows, pivots, _ = _gauss_jordan(s, [r + e for r, e in zip(a.rows, ident)], n)
    if len(pivots) < n:
        raise SingularError("matrix is singular")
    return Matrix(s, [r[n:] for r in rows])


def determinant(a: Matrix) -> FieldElement:
    if not a.is_square():
        raise DimensionMismatchError("determinant of a non-square matrix")
    return FieldElement(a.spec, _gauss_jordan(a.spec, a.rows, a.ncols)[2])


def rank(a: Matrix) -> int:
    return len(_gauss_jordan(a.spec, a.rows, a.ncols)[1])


# --- shapes ----------------------------------------------------------------

class ShapeClass(Enum):
    DIAGONAL = "Diagonal"
    IRREDUCIBLE_TRIDIAGONAL = "IrreducibleTridiagonal"
    TRIDIAGONAL = "Tridiagonal"
    CIRCULAR_HESSENBERG = "CircularHessenberg"
    HESSENBERG = "Hessenberg"
    GENERAL = "General"


@functools.cache
def _shape_pattern(shape: ShapeClass, n: int) -> tuple:
    """The one definition of each shape on n x n matrices: the constrained
    entries as (i, j, must_be_zero), row-major.

    A shape is a set of entries that must be nonzero, plus a band
    -upper <= i - j <= lower outside which every other entry is zero:

        shape                    nonzero                   lower, upper
        DIAGONAL                 none                      0, 0
        IRREDUCIBLE_TRIDIAGONAL  sub- and superdiagonal    1, 1
        TRIDIAGONAL              none                      1, 1
        CIRCULAR_HESSENBERG      subdiagonal, (0, n - 1)   1, 1
        HESSENBERG               subdiagonal               1, n
        GENERAL                  none                      n, n (no band)

    For n <= 3 the circular corner lies on the diagonal, the
    superdiagonal or the band, and is still required nonzero.
    shape_classify, the axiom oracle, the ingest ordering search and the
    search probe all read these tables.
    """
    sub = {(i + 1, i) for i in range(n - 1)}
    nonzero, lower, upper = {
        ShapeClass.DIAGONAL: (set(), 0, 0),
        ShapeClass.IRREDUCIBLE_TRIDIAGONAL: (sub | {(j, i) for i, j in sub}, 1, 1),
        ShapeClass.TRIDIAGONAL: (set(), 1, 1),
        ShapeClass.CIRCULAR_HESSENBERG: (sub | {(0, n - 1)}, 1, 1),
        ShapeClass.HESSENBERG: (sub, 1, n),
        ShapeClass.GENERAL: (set(), n, n),
    }[shape]
    return tuple(
        (i, j, (i, j) not in nonzero)
        for i in range(n)
        for j in range(n)
        if (i, j) in nonzero or not -upper <= i - j <= lower
    )


def _meets(a: Matrix, shape: ShapeClass) -> bool:
    is_zero, rows = a.spec.is_zero, a.rows
    return all(
        is_zero(rows[i][j]) == zero for i, j, zero in _shape_pattern(shape, a.nrows)
    )


def is_circular_hessenberg(a: Matrix) -> bool:
    """Nonzero on the subdiagonal and at the corner (0, d), zero elsewhere
    outside the tridiagonal band (see _shape_pattern); square matrices
    only."""
    if not a.is_square():
        raise DimensionMismatchError("circular Hessenberg test needs a square matrix")
    return _meets(a, ShapeClass.CIRCULAR_HESSENBERG)


def shape_classify(a: Matrix) -> ShapeClass:
    """Most specific shape class: the first, in ShapeClass order, whose
    pattern the matrix meets; total on square matrices of size >= 2."""
    if not a.is_square() or a.nrows < 2:
        raise DimensionMismatchError("shape classification needs square size >= 2")
    return next(c for c in ShapeClass if _meets(a, c))


# --- spectral machinery --------------------------------------------------------

def primitive_idempotents(a: Matrix, eigenvalues) -> list[Matrix]:
    """Spectral projectors E_i = prod_{j != i} (a - theta_j I)/(theta_i - theta_j).

    Checks that the eigenvalues are mutually distinct and as many as the
    size, and that prod_j (a - theta_j I) = 0.  Everything else then holds
    as a theorem and is not re-checked here:

    * a E_i = theta_i E_i, because (a - theta_i I) times the numerator of
      E_i is the annihilator (the factors are polynomials in a, so they
      commute);
    * the Lagrange identities sum E_i = I and E_i E_j = delta_ij E_i: with
      distinct nodes, 1 - sum L_i and L_i L_j - delta_ij L_i vanish at every
      theta_k, so they are multiples of the annihilating polynomial
      prod (x - theta_j).  verify_ch_axioms checks the idempotent algebra
      on every stored family.

    This is the generic path, for ingest and the tests; split_form_build
    gives its bidiagonal matrices' projectors in closed form instead, as
    the division-free rank-one factors (r_k, s_k, p_k) of
    systems._bidiagonal_eigenvectors, with r_k s_k^T / p_k equal to these.

    The numerator of E_i is prefix[i-1] * suffix[i+1], where prefix[k] and
    suffix[k] are the products of the factors (a - theta_j I) with j <= k
    and j >= k; the annihilator is the last prefix.  That is 3d - 2 matrix
    products for size d + 1.
    """
    if not a.is_square():
        raise DimensionMismatchError("idempotents of a non-square matrix")
    s = a.spec
    n = a.nrows
    evs = [s.element(e) for e in eigenvalues]
    if len(evs) != n:
        raise DimensionMismatchError(f"need {n} eigenvalues, got {len(evs)}")
    for i in range(n):
        for j in range(i + 1, n):
            if evs[i] == evs[j]:
                raise RepeatedEigenvalueError(
                    f"eigenvalue {evs[i]} repeated at positions {i}, {j}"
                )
    ident = Matrix.identity(s, n)
    factors = [a - ident.scale(e) for e in evs]
    prefix = [factors[0]]
    for f in factors[1:]:
        prefix.append(prefix[-1] * f)
    if not prefix[-1].is_zero():
        raise NotMultiplicityFreeError(
            "matrix is not annihilated by prod (a - theta_j I)"
        )
    suffix = [None] * (n - 1) + [factors[-1]]
    for k in range(n - 2, 0, -1):
        suffix[k] = factors[k] * suffix[k + 1]
    out = []
    for i in range(n):
        if i == 0:
            num = suffix[1] if n > 1 else ident
        elif i == n - 1:
            num = prefix[n - 2]
        else:
            num = prefix[i - 1] * suffix[i + 1]
        denom = s.one_element()
        for j in range(n):
            if j != i:
                denom = denom * (evs[i] - evs[j])
        out.append(num.scale(denom.inverse()))
    return out


def _characteristic_polynomial(a: Matrix) -> list:
    """det(x I - a) as payloads, low to high (monic, degree n).

    a is brought to upper Hessenberg form H by similarity (a row operation
    and its inverse column operation at a time).  Then p_m = det(x I - H_m)
    of the leading m x m blocks follows from p_0 = 1 and, expanding along
    the last column (0-based indices),
    p_(m+1) = x p_m - sum over i = m..0 of h_(i,m) h_(m,m-1) ... h_(i+1,i) p_i.
    O(n^3) field operations."""
    s, n = a.spec, a.nrows
    zero, mul, sub = s.zero, s.mul, s.sub
    h = [list(r) for r in a.rows]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if h[r][c] != zero), None)
        if piv is None:
            continue
        h[c + 1], h[piv] = h[piv], h[c + 1]
        for row in h:
            row[c + 1], row[piv] = row[piv], row[c + 1]
        inv = s.inv(h[c + 1][c])
        for r in range(c + 2, n):
            f = mul(h[r][c], inv)
            if f != zero:
                h[r] = [sub(x, mul(f, y)) for x, y in zip(h[r], h[c + 1])]
                for row in h:
                    row[c + 1] = s.add(row[c + 1], mul(f, row[r]))
    polys = [[s.one]]
    for m in range(n):
        p, t = [zero] + polys[m], s.one
        for i in range(m, -1, -1):
            f = mul(t, h[i][m])
            for j, c in enumerate(polys[i]):
                p[j] = sub(p[j], mul(f, c))
            if i:
                t = mul(t, h[i][i - 1])
        polys.append(p)
    return polys[-1]


def eigenvalues_bruteforce(a: Matrix) -> list[FieldElement] | None:
    """All eigenvalues of a finite-field matrix: the distinct roots of its
    characteristic polynomial, found by fields._poly_roots (a gcd with
    x^q - x, then splitting), so no field is too large.  Returns the roots
    in field-enumeration order when the spectrum is split and
    multiplicity-free (n distinct roots); returns None otherwise.
    """
    if not a.is_square():
        raise DimensionMismatchError("eigenvalues of a non-square matrix")
    s = a.spec
    if s.order is None:
        raise UnsupportedFieldError(
            "eigenvalues need a finite field; supply eigenvalues"
        )
    found = _poly_roots(_characteristic_polynomial(a), s)
    return [FieldElement(s, lam) for lam in found] if len(found) == a.nrows else None
