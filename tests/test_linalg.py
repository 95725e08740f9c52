"""Exact matrices: arithmetic oracle checks, shapes, spectral machinery."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from circhess import (
    FieldElement,
    Matrix,
    ShapeClass,
    Vector,
    commutator,
    determinant,
    eigenvalues_bruteforce,
    field_from_string,
    matrix_inverse,
    prime_field,
    primitive_idempotents,
    rationals,
    shape_classify,
    split_form_build,
)
from circhess.fields import QuotientExtension
from circhess.linalg import (
    _characteristic_polynomial,
    _shape_pattern,
    is_circular_hessenberg,
    rank,
)
from circhess.errors import (
    DimensionMismatchError,
    NotMultiplicityFreeError,
    RepeatedEigenvalueError,
    SingularError,
    UnsupportedFieldError,
)


def _random_matrix(spec, n, rng):
    return Matrix.from_elements(
        spec, [[rng.randrange(spec.order) for _ in range(n)] for _ in range(n)]
    )


def _schoolbook(a, b):
    """Independent triple-loop product used as the oracle."""
    s = a.spec
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = s.zero_element()
            for k in range(a.ncols):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return Matrix.from_elements(s, rows)


def _schoolbook_matvec(a, v):
    s = a.spec
    out = []
    for i in range(a.nrows):
        acc = s.zero_element()
        for k in range(a.ncols):
            acc = acc + a.entry(i, k) * v.entry(k)
        out.append(acc)
    return Vector.from_elements(s, out)


# one field of each kind: prime, extension of a prime field, rationals and a
# cyclotomic extension of the rationals
KERNEL_FIELDS = ("gf:5", "ext:gf:3:1,0,1", "rat", "cyclo:4")


def _random_element(spec, rng):
    if spec.order is not None:
        return FieldElement(spec, rng.choice(list(spec.element_payloads())))
    if isinstance(spec, QuotientExtension):
        coeffs = [_random_element(spec.base, rng) for _ in range(spec.deg)]
        return FieldElement(spec, spec.from_coefficients([c.payload for c in coeffs]))
    return spec.element(Fraction(rng.randint(-5, 5), rng.randint(1, 2)))


def _random_rect(spec, n, m, rng):
    return Matrix.from_elements(
        spec, [[_random_element(spec, rng) for _ in range(m)] for _ in range(n)]
    )


def test_matmul_matches_schoolbook_oracle():
    g5 = prime_field(5)
    rng = random.Random(11)
    for _ in range(25):
        a = _random_matrix(g5, 4, rng)
        b = _random_matrix(g5, 4, rng)
        assert a * b == _schoolbook(a, b)


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_matmul_matches_schoolbook_every_field_kind(field):
    """Square, non-square and matrix-vector products against the triple loop."""
    spec = field_from_string(field)
    rng = random.Random(field)
    for n, k, m in ((4, 4, 4), (2, 3, 5), (5, 1, 3), (1, 4, 1)):
        a = _random_rect(spec, n, k, rng)
        b = _random_rect(spec, k, m, rng)
        prod = a * b
        assert (prod.nrows, prod.ncols) == (n, m)
        assert prod == _schoolbook(a, b)
        v = Vector.from_elements(spec, [_random_element(spec, rng) for _ in range(k)])
        assert a * v == _schoolbook_matvec(a, v)
    with pytest.raises(DimensionMismatchError):
        _random_rect(spec, 2, 3, rng) * _random_rect(spec, 2, 3, rng)


def test_ragged_rows_raise():
    g5 = prime_field(5)
    with pytest.raises(DimensionMismatchError):
        Matrix(g5, [(1, 2), (3,)])
    with pytest.raises(DimensionMismatchError):
        Matrix.from_elements(g5, [[1, 2, 3], [4, 0, 1], [2, 2]])
    with pytest.raises(DimensionMismatchError):
        Matrix(g5, [(1,), (2, 3)])


def test_commutator_identity_matrix():
    g5 = prime_field(5)
    rng = random.Random(3)
    ident = Matrix.identity(g5, 4)
    for _ in range(5):
        m = _random_matrix(g5, 4, rng)
        assert commutator(ident, m).is_zero()


def test_commutator_small_example():
    q = rationals()
    d = Matrix.diagonal(q, [1, 2])
    n = Matrix.from_elements(q, [[0, 1], [0, 0]])
    assert commutator(d, n) == Matrix.from_elements(q, [[0, -1], [0, 0]])


def test_dimension_mismatch():
    g5 = prime_field(5)
    a = Matrix.identity(g5, 3)
    b = Matrix.identity(g5, 4)
    with pytest.raises(DimensionMismatchError):
        a * b
    with pytest.raises(DimensionMismatchError):
        a + b


def test_inverse_identity_and_reversal():
    g5 = prime_field(5)
    ident = Matrix.identity(g5, 4)
    z = Matrix.reversal(g5, 4)
    assert matrix_inverse(ident) == ident
    assert z * z == ident
    assert matrix_inverse(z) == z


def test_inverse_random_and_involution():
    g5 = prime_field(5)
    rng = random.Random(4)
    found = 0
    while found < 10:
        m = _random_matrix(g5, 4, rng)
        try:
            inv = matrix_inverse(m)
        except SingularError:
            continue
        found += 1
        assert m * inv == Matrix.identity(g5, 4)
        assert matrix_inverse(inv) == m


def test_singular_raises():
    g5 = prime_field(5)
    with pytest.raises(SingularError):
        matrix_inverse(Matrix.zero(g5, 3))


# --- shape predicates --------------------------------------------------------

def test_shape_examples_from_displays():
    q = rationals()
    circ = Matrix.from_elements(
        q, [[2, 1, 0, 9], [3, 5, 7, 0], [0, 1, 3, 6], [0, 0, 9, 2]]
    )
    assert shape_classify(circ) is ShapeClass.CIRCULAR_HESSENBERG
    tri = Matrix.from_elements(
        q, [[2, 1, 0, 0], [3, 5, 7, 0], [0, 1, 3, 6], [0, 0, 9, 2]]
    )
    assert shape_classify(tri) is ShapeClass.IRREDUCIBLE_TRIDIAGONAL
    assert shape_classify(Matrix.diagonal(q, [1, 2, 3, 4])) is ShapeClass.DIAGONAL
    # reducible tridiagonal: a zero on the superdiagonal
    red = Matrix.from_elements(
        q, [[2, 0, 0, 0], [3, 5, 0, 0], [0, 1, 3, 6], [0, 0, 9, 2]]
    )
    assert shape_classify(red) is ShapeClass.TRIDIAGONAL
    hess = Matrix.from_elements(
        q, [[2, 1, 4, 9], [3, 5, 7, 8], [0, 1, 3, 6], [0, 0, 9, 2]]
    )
    assert shape_classify(hess) is ShapeClass.HESSENBERG
    assert shape_classify(hess.transpose()) is ShapeClass.GENERAL


def _oracle_flags(rows):
    """Independent predicate re-implementation on 0/1 patterns."""
    n = len(rows)
    below_sub_zero = all(
        rows[i][j] == 0 for i in range(n) for j in range(n) if i - j > 1
    )
    sub_nonzero = all(rows[i + 1][i] != 0 for i in range(n - 1))
    hess = below_sub_zero and sub_nonzero
    above_super_zero_except_corner = all(
        rows[i][j] == 0
        for i in range(n)
        for j in range(n)
        if j - i > 1 and (i, j) != (0, n - 1)
    )
    circ = hess and rows[0][n - 1] != 0 and above_super_zero_except_corner
    tri = all(rows[i][j] == 0 for i in range(n) for j in range(n) if abs(i - j) > 1)
    irred = tri and sub_nonzero and all(rows[i][i + 1] != 0 for i in range(n - 1))
    diag = all(rows[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    return diag, irred, tri, circ, hess


def test_shape_classify_exhaustive_gf2_4x4():
    """Every 0/1 pattern of a 4x4 matrix over GF(2): classify agrees with an
    independent predicate oracle and respects the specificity order."""
    g2 = prime_field(2)
    order = [
        ShapeClass.DIAGONAL,
        ShapeClass.IRREDUCIBLE_TRIDIAGONAL,
        ShapeClass.TRIDIAGONAL,
        ShapeClass.CIRCULAR_HESSENBERG,
        ShapeClass.HESSENBERG,
        ShapeClass.GENERAL,
    ]
    for bits in range(1 << 16):
        rows = [[(bits >> (4 * i + j)) & 1 for j in range(4)] for i in range(4)]
        got = shape_classify(Matrix.from_elements(g2, rows))
        diag, irred, tri, circ, hess = _oracle_flags(rows)
        flags = {
            ShapeClass.DIAGONAL: diag,
            ShapeClass.IRREDUCIBLE_TRIDIAGONAL: irred,
            ShapeClass.TRIDIAGONAL: tri,
            ShapeClass.CIRCULAR_HESSENBERG: circ,
            ShapeClass.HESSENBERG: hess,
            ShapeClass.GENERAL: True,
        }
        expected = next(c for c in order if flags[c])
        assert got is expected
        # monotone implications
        if circ:
            assert hess
        if irred:
            assert tri


def test_circular_hessenberg_other_sizes():
    """is_circular_hessenberg against the independent predicate on every
    0/1 matrix over GF(2) at n = 1, 2, 3, where the corner (0, n - 1)
    falls on the diagonal, the superdiagonal or the band, and on random
    0/1 matrices at n = 5, 6."""
    g2 = prime_field(2)
    cases = []
    for n in (1, 2, 3):
        for bits in range(1 << (n * n)):
            cases.append([[(bits >> (n * i + j)) & 1 for j in range(n)]
                          for i in range(n)])
    rng = random.Random(23)
    for n in (5, 6):
        for k in range(1000):
            # a third start from a circular Hessenberg pattern, so both
            # verdicts occur; the rest are uniform
            rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
            if k % 3 == 0:
                rows = [[int(i - j == 1 or (i, j) == (0, n - 1)
                             or (abs(i - j) <= 1 and rows[i][j]))
                         for j in range(n)] for i in range(n)]
                if k % 2:
                    i, j = rng.randrange(n), rng.randrange(n)
                    rows[i][j] ^= 1
            cases.append(rows)
    verdicts = set()
    for rows in cases:
        expected = _oracle_flags(rows)[3]
        assert is_circular_hessenberg(Matrix.from_elements(g2, rows)) == expected
        verdicts.add((len(rows), expected))
    assert verdicts == {(n, v) for n in (1, 2, 3, 5, 6) for v in (True, False)}


def test_circular_hessenberg_needs_square():
    """A 4 x 5 matrix whose leading 4 x 4 block is circular Hessenberg, and
    its 5 x 4 transpose, are refused with the error shape_classify raises."""
    g5 = prime_field(5)
    block = [[1, 2, 0, 3], [4, 1, 2, 0], [0, 1, 3, 1], [0, 0, 2, 4]]
    assert is_circular_hessenberg(Matrix.from_elements(g5, block))
    wide = Matrix.from_elements(g5, [row + [1] for row in block])
    for a in (wide, wide.transpose()):
        for check in (is_circular_hessenberg, shape_classify):
            with pytest.raises(DimensionMismatchError):
                check(a)


def test_shape_classify_other_sizes():
    """shape_classify against the independent predicate oracle on every 0/1
    matrix over GF(2) at n = 2, 3 and on seeded 0/1 matrices at n = 5, 6,
    drawn as in test_circular_hessenberg_other_sizes; every class occurs."""
    g2 = prime_field(2)
    cases = [[[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
             for n in (2, 3) for bits in range(1 << (n * n))]
    rng = random.Random(23)
    for n in (5, 6):
        for k in range(1000):
            rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
            if k % 3 == 0:
                rows = [[int(i - j == 1 or (i, j) == (0, n - 1)
                             or (abs(i - j) <= 1 and rows[i][j]))
                         for j in range(n)] for i in range(n)]
                if k % 2:
                    i, j = rng.randrange(n), rng.randrange(n)
                    rows[i][j] ^= 1
            cases.append(rows)
    seen = set()
    for rows in cases:
        # _oracle_flags is in ShapeClass order; GENERAL always holds
        flags = (*_oracle_flags(rows), True)
        expected = next(c for c, f in zip(ShapeClass, flags) if f)
        assert shape_classify(Matrix.from_elements(g2, rows)) is expected
        seen.add(expected)
    assert seen == set(ShapeClass)


def test_circular_table_is_the_pattern_construction():
    """The CIRCULAR_HESSENBERG table, entry for entry and in order, is the
    construction it replaced: the oracle lists its failures in this order."""
    for n in range(1, 9):
        nonzero = {(i + 1, i) for i in range(n - 1)} | {(0, n - 1)}
        expected = tuple(
            (i, j, (i, j) not in nonzero)
            for i in range(n)
            for j in range(n)
            if (i, j) in nonzero or abs(i - j) > 1
        )
        assert _shape_pattern(ShapeClass.CIRCULAR_HESSENBERG, n) == expected
    assert _shape_pattern(ShapeClass.GENERAL, 5) == ()


# --- idempotents ---------------------------------------------------------------

def test_idempotents_diagonal_case():
    g5 = prime_field(5)
    m = Matrix.diagonal(g5, [1, 2, 4, 3])
    es = primitive_idempotents(m, [g5.element(x) for x in (1, 2, 4, 3)])
    for i, e in enumerate(es):
        expected = Matrix.from_elements(
            g5, [[1 if (r == c == i) else 0 for c in range(4)] for r in range(4)]
        )
        assert e == expected


def test_idempotents_split_form(w5_array):
    s = split_form_build(w5_array)
    ident = Matrix.identity(w5_array.spec, 4)
    total = s.E[0] + s.E[1] + s.E[2] + s.E[3]
    assert total == ident
    for e in s.E:
        assert e * e == e


def _naive_lagrange(a, evs):
    """E_i as the plain product over j != i, with every factor multiplied in
    from the left, scaled by the product of eigenvalue differences."""
    s = a.spec
    n = a.nrows
    ident = Matrix.identity(s, n)
    out = []
    for i in range(n):
        num = ident
        den = s.one_element()
        for j in range(n):
            if j != i:
                num = num * (a - ident.scale(evs[j]))
                den = den * (evs[i] - evs[j])
        out.append(num.scale(den.inverse()))
    return out


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_idempotents_match_naive_lagrange(field):
    """A random multiplicity-free matrix (lower bidiagonal with random
    distinct eigenvalues, conjugated by a random invertible matrix):
    the prefix/suffix idempotents equal the naive Lagrange product and obey
    the Lagrange identities that primitive_idempotents leaves unchecked."""
    spec = field_from_string(field)
    rng = random.Random(field)
    for d in range(3, 7):
        n = d + 1
        if spec.order is not None and spec.order < n:
            continue
        evs = []
        while len(evs) < n:
            e = _random_element(spec, rng)
            if e not in evs:
                evs.append(e)
        rows = [[evs[i] if c == i else spec.element(int(c == i - 1))
                 for c in range(n)] for i in range(n)]
        # unit lower times unit upper triangular: invertible by construction
        lower = [[_random_element(spec, rng) if c < r else spec.element(int(c == r))
                  for c in range(n)] for r in range(n)]
        upper = [[_random_element(spec, rng) if c > r else spec.element(int(c == r))
                  for c in range(n)] for r in range(n)]
        sigma = Matrix.from_elements(spec, lower) * Matrix.from_elements(spec, upper)
        a = sigma * Matrix.from_elements(spec, rows) * matrix_inverse(sigma)
        rng.shuffle(evs)
        es = primitive_idempotents(a, evs)
        assert es == _naive_lagrange(a, evs)
        ident = Matrix.identity(spec, n)
        total = es[0]
        for e in es[1:]:
            total = total + e
        assert total == ident
        for i, ei in enumerate(es):
            assert a * ei == ei.scale(evs[i])
            for j, ej in enumerate(es):
                assert ei * ej == (ei if i == j else Matrix.zero(spec, n))


def test_idempotents_not_annihilated():
    g5 = prime_field(5)
    m = Matrix.from_elements(
        g5, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    )
    with pytest.raises(NotMultiplicityFreeError):
        primitive_idempotents(m, [g5.element(x) for x in (1, 4, 2, 3)])


def test_idempotents_repeated_eigenvalue():
    g5 = prime_field(5)
    m = Matrix.diagonal(g5, [1, 1, 2, 3])
    with pytest.raises(RepeatedEigenvalueError):
        primitive_idempotents(m, [g5.element(x) for x in (1, 1, 2, 3)])


# --- brute force eigenvalues -----------------------------------------------------

def test_eigenvalues_split_form(w5_array):
    s = split_form_build(w5_array)
    evs = eigenvalues_bruteforce(s.A)
    assert {e.payload for e in evs} == {1, 2, 3, 4}


def test_eigenvalues_not_split():
    g5 = prime_field(5)
    assert eigenvalues_bruteforce(Matrix.diagonal(g5, [1, 1, 2, 3])) is None


def _eigenvalues_by_determinants(a):
    """The definition: every field element lam with det(a - lam I) = 0, in
    field order, when there are n of them; None otherwise."""
    ident = Matrix.identity(a.spec, a.nrows)
    found = [lam for lam in a.spec.elements()
             if determinant(a - ident.scale(lam)).is_zero()]
    return found if len(found) == a.nrows else None


@pytest.mark.parametrize("field", ["gf:5", "gf:31", "ext:gf:2:1,1,1"])
def test_eigenvalues_match_determinant_definition(field):
    """One characteristic polynomial evaluated by Horner gives the same
    eigenvalues, in the same order, as one determinant per element, on
    seeded dense, sparse (pivot swaps and zero columns in the Hessenberg
    reduction) and diagonalizable matrices with n = 1..7; the polynomial
    itself is det(lam I - a) at every element."""
    spec = field_from_string(field)
    rng = random.Random(1501)
    elems = list(spec.elements())
    hits = 0
    for trial in range(90):
        n = 1 + trial % 7
        kind = trial // 7 % 3
        if kind == 2:
            while True:
                m = Matrix.from_elements(spec, [[_random_element(spec, rng) for _ in range(n)]
                                                for _ in range(n)])
                if not determinant(m).is_zero():
                    break
            evs = [rng.choice(elems) for _ in range(n)]
            a = m * Matrix.diagonal(spec, evs) * matrix_inverse(m)
        else:
            a = Matrix.from_elements(spec, [
                [_random_element(spec, rng) if kind == 0 or rng.randrange(2)
                 else spec.zero_element() for _ in range(n)] for _ in range(n)])
        expected = _eigenvalues_by_determinants(a)
        assert eigenvalues_bruteforce(a) == expected
        hits += expected is not None
        ident = Matrix.identity(spec, n)
        poly = _characteristic_polynomial(a)
        assert len(poly) == n + 1 and poly[-1] == spec.one
        for lam in elems:
            value = spec.zero_element()
            for c in reversed(poly):
                value = value * lam + FieldElement(spec, c)
            assert value == determinant(ident.scale(lam) - a)
    assert hits >= 10


def test_eigenvalues_match_determinant_definition_small_fields(small_finite_field):
    """The roots of the characteristic polynomial are the eigenvalues of the
    determinant scan, in its order, on seeded dense and diagonalizable
    matrices with n = 1..6 (at most the field's size), in prime fields,
    extensions of GF(2) and GF(3), and a tower."""
    spec = small_finite_field
    rng = random.Random(1503)
    elems = list(spec.elements())
    hits = 0
    for trial in range(24):
        n = 1 + trial % min(6, len(elems))
        a = _random_rect(spec, n, n, rng)
        if trial % 2:
            m = _random_rect(spec, n, n, rng)
            while determinant(m).is_zero():
                m = _random_rect(spec, n, n, rng)
            evs = rng.sample(elems, n)
            a = m * Matrix.diagonal(spec, evs) * matrix_inverse(m)
        expected = _eigenvalues_by_determinants(a)
        assert eigenvalues_bruteforce(a) == expected
        hits += expected is not None
    assert hits >= 12


def test_eigenvalues_of_large_prime_field_are_prompt():
    """Over GF(65521) a dense 8 x 8 matrix is answered within seconds (one
    determinant per element took 16.8 s), and a diagonalizable one gives
    its eigenvalues in field order."""
    spec = prime_field(65521)
    rng = random.Random(1502)
    dense = _random_matrix(spec, 8, rng)
    m = _random_matrix(spec, 8, rng)
    evs = rng.sample(range(spec.p), 8)
    split = m * Matrix.diagonal(spec, evs) * matrix_inverse(m)
    start = time.perf_counter()
    dense_evs = eigenvalues_bruteforce(dense)
    split_evs = eigenvalues_bruteforce(split)
    assert time.perf_counter() - start < 5
    assert [e.payload for e in split_evs] == sorted(evs)
    ident = Matrix.identity(spec, 8)
    assert dense_evs is None or all(
        determinant(dense - ident.scale(e)).is_zero() for e in dense_evs)
    poly = _characteristic_polynomial(dense)
    for lam in rng.sample(range(spec.p), 30):
        value = 0
        for c in reversed(poly):
            value = (value * lam + c) % spec.p
        assert value == determinant(ident.scale(lam) - dense).payload


def test_eigenvalues_unsupported_field():
    q = rationals()
    with pytest.raises(UnsupportedFieldError):
        eigenvalues_bruteforce(Matrix.identity(q, 4))


def test_determinant_matches_singularity():
    g5 = prime_field(5)
    rng = random.Random(9)
    for _ in range(20):
        m = _random_matrix(g5, 3, rng)
        det = determinant(m)
        try:
            matrix_inverse(m)
            invertible = True
        except SingularError:
            invertible = False
        assert invertible == (not det.is_zero())


def test_matvec_and_vectors():
    g5 = prime_field(5)
    m = Matrix.from_elements(g5, [[1, 2], [3, 4]])
    v = Vector.from_elements(g5, [1, 1])
    assert (m * v) == Vector.from_elements(g5, [3, 2])
    assert Vector.unit(g5, 3, 1).entries()[1] == g5.one_element()


# --- the elimination kernel's callers against test-only references -------------

def _leibniz(a):
    """Determinant by the permutation expansion; independent of elimination."""
    s = a.spec
    n = a.nrows
    total = s.zero_element()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = s.one_element()
        for i, j in enumerate(perm):
            term = term * a.entry(i, j)
        total = total - term if inversions % 2 else total + term
    return total


def _minor_rank(a):
    """Size of the largest nonzero minor."""
    for r in range(min(a.nrows, a.ncols), 0, -1):
        for rows in itertools.combinations(range(a.nrows), r):
            for cols in itertools.combinations(range(a.ncols), r):
                sub = Matrix(a.spec, [[a.rows[i][j] for j in cols] for i in rows])
                if not _leibniz(sub).is_zero():
                    return r
    return 0


def _random_of_rank_at_most(spec, n, m, r, rng):
    if r == 0:
        return Matrix.zero(spec, n, m)
    return _random_rect(spec, n, r, rng) * _random_rect(spec, r, m, rng)


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_determinant_matches_leibniz(field):
    spec = field_from_string(field)
    rng = random.Random(f"det/{field}")
    for n in range(1, 6):
        for _ in range(3 if n < 5 else 1):
            a = _random_rect(spec, n, n, rng)
            assert determinant(a) == _leibniz(a)
        singular = _random_of_rank_at_most(spec, n, n, n - 1, rng)
        assert determinant(singular).is_zero()
    with pytest.raises(DimensionMismatchError):
        determinant(_random_rect(spec, 2, 3, rng))


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_rank_matches_largest_nonzero_minor(field):
    """Square, non-square and rank-deficient matrices, and the zero matrix."""
    spec = field_from_string(field)
    rng = random.Random(f"rank/{field}")
    seen = set()
    for n, m in ((3, 3), (4, 4), (2, 5), (5, 2), (3, 4), (4, 1)):
        for r in range(0, min(n, m) + 1):
            a = _random_of_rank_at_most(spec, n, m, r, rng)
            expected = _minor_rank(a)
            assert rank(a) == expected
            assert rank(a.transpose()) == expected
            seen.add((n == m, expected < min(n, m)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_inverse_is_two_sided_and_singular_raises(field):
    spec = field_from_string(field)
    rng = random.Random(f"inv/{field}")
    for n in range(1, 6):
        ident = Matrix.identity(spec, n)
        a = _random_rect(spec, n, n, rng)
        while _leibniz(a).is_zero():
            a = _random_rect(spec, n, n, rng)
        inv = matrix_inverse(a)
        assert a * inv == ident and inv * a == ident
        if n > 1:
            with pytest.raises(SingularError):
                matrix_inverse(_random_of_rank_at_most(spec, n, n, n - 1, rng))
    with pytest.raises(DimensionMismatchError):
        matrix_inverse(_random_rect(spec, 3, 2, rng))
