"""Recurrence machinery for eigenvalue data.

A sequence is beta-recurrent when every interior window satisfies

    s_{i-2} - (beta+1) s_{i-1} + (beta+1) s_i - s_{i+1} = 0.

A system is beta-recurrent when its eigenvalue sequence, dual eigenvalue
sequence, and wrap sequence (vartheta) all are; this happens exactly when
the pair satisfies the two tridiagonal commutator relations, which
td_witness evaluates on the actual matrices.  fit_closed_form expresses a
beta-recurrent sequence in the closed form dictated by beta and the field
characteristic, moving to a quadratic extension when q + 1/q = beta has no
root in the field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    IdentityCheckError,
    NoSuchRootError,
    NotRecurrentAtBetaError,
    NotRecurrentError,
    PreconditionViolatedError,
    ReducibleModulusError,
    SingularBasisError,
    SingularError,
    TooShortError,
)
from .fields import (
    FieldElement,
    FieldSpec,
    JsonFields,
    QuotientExtension,
    Rationals,
    _cyclotomic_index,
    _poly_roots,
    _prime_divisors,
    quotient_extension,
)
from .linalg import Matrix, Vector, commutator, matrix_inverse
from .systems import CHSystem, ParameterArray


@dataclass(frozen=True)
class VarthetaSequence:
    """The wrap scalars vartheta_0..vartheta_{d+1}; both endpoints are 0."""

    values: tuple

    def __post_init__(self):
        if not self.values[0].is_zero() or not self.values[-1].is_zero():
            raise ValueError("vartheta endpoints must be zero")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def vartheta_from_array(p: ParameterArray) -> VarthetaSequence:
    """vartheta_i = phi_i - (theta*_i - theta*_0)(theta_{d-i+1} - theta_0),
    with forced zero endpoints."""
    spec = p.spec
    vals = _vartheta_payloads(spec, [e.payload for e in p.theta],
                              [e.payload for e in p.theta_star],
                              [e.payload for e in p.phi])
    return VarthetaSequence(tuple([FieldElement(spec, v) for v in vals]))


def _vartheta_payloads(spec, th, ths, phi) -> list:
    """vartheta_0..vartheta_{d+1} of vartheta_from_array on the payloads of
    theta, theta* and phi."""
    sub, mul = spec.sub, spec.mul
    d = len(phi)
    return [spec.zero] + [
        sub(phi[i - 1], mul(sub(ths[i], ths[0]), sub(th[d - i + 1], th[0])))
        for i in range(1, d + 1)
    ] + [spec.zero]


def is_beta_recurrent(seq, beta) -> bool:
    """Exact window test over 2 <= i <= len - 2."""
    vals = list(seq)
    if len(vals) < 4:
        raise TooShortError("beta-recurrence needs at least 4 terms")
    spec = vals[0].spec
    return _beta_recurrent_payloads(spec, [spec.element(v).payload for v in vals],
                                    spec.element(beta + 1).payload)


def _beta_recurrent_payloads(spec, seq, b1) -> bool:
    """is_beta_recurrent on payloads, with b1 = beta + 1: every window
    s_{i-2} - (beta + 1) s_{i-1} + (beta + 1) s_i - s_{i+1}, tested as
    s_{i-2} - s_{i+1} + b1 (s_i - s_{i-1}), is zero."""
    add, sub, mul, is_zero = spec.add, spec.sub, spec.mul, spec.is_zero
    for i in range(2, len(seq) - 1):
        if not is_zero(add(sub(seq[i - 2], seq[i + 1]), mul(b1, sub(seq[i], seq[i - 1])))):
            return False
    return True


@dataclass
class RecurrenceStatus(JsonFields):
    recurrent: bool
    betas: list


def recurrence_status(p: ParameterArray) -> RecurrenceStatus:
    """All beta making theta, theta*, and vartheta simultaneously recurrent.

    Any window of theta pins beta uniquely (consecutive theta differ), so
    the candidate from the first window is cross-checked against every
    window of all three sequences; the result is a singleton or empty.
    It computes on payloads: the first window gives
    beta + 1 = (theta_3 - theta_0) / (theta_2 - theta_1), and the three
    sequences go through is_beta_recurrent's and vartheta_from_array's
    payload forms.
    """
    spec = p.spec
    th = [e.payload for e in p.theta]
    ths = [e.payload for e in p.theta_star]
    b1 = spec.div(spec.sub(th[3], th[0]), spec.sub(th[2], th[1]))
    vth = _vartheta_payloads(spec, th, ths, [e.payload for e in p.phi])
    if all(_beta_recurrent_payloads(spec, seq, b1) for seq in (th, ths, vth)):
        return RecurrenceStatus(True, [FieldElement(spec, spec.sub(b1, spec.one))])
    return RecurrenceStatus(False, [])


# --- tridiagonal relations -------------------------------------------------

@dataclass
class TridiagonalWitness(JsonFields):
    beta: FieldElement
    gamma: FieldElement
    gamma_star: FieldElement
    rho: FieldElement
    rho_star: FieldElement

    def to_json(self) -> dict:
        return {**super().to_json(), "td1_zero": True, "td2_zero": True}


def _constant_gamma_rho(theta, beta):
    """gamma = theta_{i-1} - beta theta_i + theta_{i+1} and
    rho = theta_{i-1}^2 - beta theta_{i-1} theta_i + theta_i^2
          - gamma (theta_{i-1} + theta_i),
    each asserted constant over its admissible windows."""
    gammas = {
        (theta[i - 1] - beta * theta[i] + theta[i + 1]).payload
        for i in range(1, len(theta) - 1)
    }
    if len(gammas) != 1:
        raise NotRecurrentAtBetaError("gamma is not constant across windows")
    gamma = FieldElement(theta[0].spec, gammas.pop())
    rhos = {
        (
            theta[i - 1] * theta[i - 1]
            - beta * theta[i - 1] * theta[i]
            + theta[i] * theta[i]
            - gamma * (theta[i - 1] + theta[i])
        ).payload
        for i in range(1, len(theta))
    }
    if len(rhos) != 1:
        raise NotRecurrentAtBetaError("rho is not constant across windows")
    return gamma, FieldElement(theta[0].spec, rhos.pop())


def _td_commutator(x: Matrix, y: Matrix, beta, gamma, rho) -> Matrix:
    """[x, x^2 y - beta x y x + y x^2 - gamma (x y + y x) - rho y], with
    x y and y x formed once: 7 products, not 10."""
    xy, yx = x * y, y * x
    inner = x * xy - (xy * x).scale(beta) + yx * x \
        - (xy + yx).scale(gamma) - y.scale(rho)
    return commutator(x, inner)


def td_witness(s: CHSystem, beta) -> TridiagonalWitness:
    """Scalars (beta, gamma, gamma*, rho, rho*) making both tridiagonal
    commutator relations vanish, verified exactly on the matrices."""
    if s.params is None:
        raise NotRecurrentAtBetaError("system carries no parameter array")
    beta = s.spec.element(beta)
    status = recurrence_status(s.params)
    if not status.recurrent or beta not in status.betas:
        raise NotRecurrentAtBetaError(f"system is not {beta}-recurrent")
    gamma, rho = _constant_gamma_rho(s.params.theta, beta)
    gamma_star, rho_star = _constant_gamma_rho(s.params.theta_star, beta)
    if not _td_commutator(s.A, s.A_star, beta, gamma, rho).is_zero():
        raise NotRecurrentAtBetaError("first tridiagonal relation is nonzero")
    if not _td_commutator(s.A_star, s.A, beta, gamma_star, rho_star).is_zero():
        raise NotRecurrentAtBetaError("second tridiagonal relation is nonzero")
    return TridiagonalWitness(beta, gamma, gamma_star, rho, rho_star)


# --- closed forms ------------------------------------------------------------

class RecurrenceCase(Enum):
    GENERIC_Q = "GenericQ"
    BETA2 = "Beta2"
    BETA_MINUS2 = "BetaMinus2"
    BETA0_CHAR2 = "Beta0Char2"


def select_case(spec: FieldSpec, beta) -> RecurrenceCase:
    if spec.characteristic == 2:
        return RecurrenceCase.BETA0_CHAR2 if beta.is_zero() else RecurrenceCase.GENERIC_Q
    if beta == 2:
        return RecurrenceCase.BETA2
    if beta == -2:
        return RecurrenceCase.BETA_MINUS2
    return RecurrenceCase.GENERIC_Q


def solve_unit_root(spec: FieldSpec, beta):
    """A root q of x^2 - beta x + 1 (so q + 1/q = beta), together with the
    field it lives in and whether that field is a fresh quadratic extension.

    Over a finite field q is the least root by payload (field order), from
    fields._poly_roots, so no field is too large; over the rationals the
    discriminant is tested for being a perfect square; over an extension of
    the rationals the roots are sought among powers of the generator (the
    case that arises for cyclotomic data); then, over a quadratic one, the
    discriminant's square roots are solved for exactly, and over QQ(zeta_m)
    a rational discriminant's square roots are built from roots of unity
    (_cyclotomic_sqrts).  Every candidate root is checked.  When no root
    exists in the field, the quadratic extension by x^2 - beta x + 1 itself
    is built.
    """
    one = spec.one_element()

    def is_root(e):
        return (e * e - beta * e + one).is_zero()

    if spec.order is not None:
        roots = _poly_roots([one.payload, (-beta).payload, one.payload], spec)
        if roots:
            return FieldElement(spec, roots[0]), spec, False
    elif isinstance(spec, Rationals):
        root = _qq_sqrt((beta * beta - 4).payload)
        if root is not None and is_root(q := (beta + spec.element(root)) / 2):
            return q, spec, False
    elif isinstance(spec, QuotientExtension):
        g = spec.generator()
        m = _cyclotomic_index(spec.modulus)
        cand = spec.one_element()
        for _ in range(m or 4 * spec.deg + 8):
            for e in (cand, -cand):
                if is_root(e):
                    return e, spec, False
            cand = cand * g
        delta = beta * beta - 4
        quadratic = _quadratic_sqrts(spec, delta) if spec.deg == 2 else ()
        for y in itertools.chain(quadratic, _cyclotomic_sqrts(spec, m, delta)):
            if is_root(q := (beta + y) / 2):
                return q, spec, False
    try:
        ext = quotient_extension(spec, [spec.one_element(), -beta, spec.one_element()],
                                 gen="r")
    except ReducibleModulusError as e:
        raise NoSuchRootError(
            f"cannot certify the quadratic extension for beta={beta} over {spec}"
        ) from e
    return ext.generator(), ext, True


def _qq_sqrt(x: Fraction):
    """The nonnegative rational square root of x, or None."""
    if x < 0:
        return None
    root = Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
    return root if root * root == x else None


def _quadratic_sqrts(spec: QuotientExtension, x):
    """Candidates for the square roots of x in QQ[t]/(t^2 + m1 t + m0),
    every square root among them.  With s = t + m1/2, s^2 = r is rational, and
    y = a + b s squares to x = x0 + x1 s iff a^2 + r b^2 = x0 and
    2ab = x1: so a^2 and r b^2 are the two roots of
    z^2 - x0 z + r x1^2 / 4, and both signs of b are tried."""
    m0, m1, _ = spec.modulus
    h = m1 / 2
    r = h * h - m0  # nonzero: the modulus has no rational root
    c0, x1 = spec.coefficients(x.payload)
    x0 = c0 - h * x1
    n = _qq_sqrt(x0 * x0 - r * x1 * x1)
    for a2 in () if n is None else ((x0 + n) / 2, (x0 - n) / 2):
        a, b = _qq_sqrt(a2), _qq_sqrt((x0 - a2) / r)
        if a is not None and b is not None:
            for sb in (b, -b):
                yield FieldElement(spec, spec.from_coefficients((a + sb * h, sb)))


def _cyclotomic_sqrts(spec: QuotientExtension, m: int | None, x):
    """Candidates for the square roots of x in QQ[t]/(Phi_m) when x is
    rational, every square root among them.  The quadratic subfields of
    QQ(zeta_m) are QQ(sqrt(D0)) for D0 = +-2^e prod p, e <= 1 and p odd
    primes dividing m, so x must be D0 r^2 for a rational r, and sqrt(D0)
    is a product of known roots: the Gauss sum sum_a zeta_p^(a^2), with
    zeta_p = t^(m/p), squares to p* = +-p; sqrt(-1) = t^(m/4) when 4 | m;
    and with zeta_8 = t^(m/8), sqrt(2) = zeta_8 + zeta_8^7 and
    sqrt(-2) = zeta_8 + zeta_8^3 when 8 | m.  A D0 whose roots the field
    lacks is skipped; r = 1, D0 = 1 gives the rational roots."""
    x0, *rest = spec.coefficients(x.payload)
    if not m or any(rest):
        return
    t, one = spec.generator(), spec.one_element()
    units = {1: one}  # c -> sqrt(c), c in {+-1, +-2}
    if m % 4 == 0:
        units[-1] = t ** (m // 4)
    if m % 8 == 0:
        z8 = t ** (m // 8)
        units[2], units[-2] = z8 + z8 ** 7, z8 + z8 ** 3
    odd = [p for p in _prime_divisors(m) if p % 2]
    for k in range(len(odd) + 1):
        for ps in itertools.combinations(odd, k):
            root, pstar = one, 1
            for p in ps:
                zp = t ** (m // p)
                root *= sum((zp ** (a * a % p) for a in range(1, p)), one)
                pstar *= p if p % 4 == 1 else -p
            for c, u in units.items():
                r = _qq_sqrt(x0 / (c * pstar))
                if r is not None:
                    yield root * u * spec.element(r)


def _binom2_mod4(i: int) -> int:
    return 0 if i % 4 in (0, 1) else 1


def _case_basis(case: RecurrenceCase, spec: FieldSpec, q):
    if case is RecurrenceCase.GENERIC_Q:
        return lambda i: (spec.one_element(), q**i, q**(-i))
    if case is RecurrenceCase.BETA2:
        return lambda i: (
            spec.one_element(),
            spec.element(i),
            spec.element(i * (i - 1) // 2),
        )
    if case is RecurrenceCase.BETA_MINUS2:
        return lambda i: (
            spec.one_element(),
            spec.element((-1) ** i),
            spec.element(i * (-1) ** i),
        )
    return lambda i: (
        spec.one_element(),
        spec.element(i),
        spec.element(_binom2_mod4(i)),
    )


@dataclass
class RecurrenceClosedForm:
    """alpha_1 f1(i) + alpha_2 f2(i) + alpha_3 f3(i) reproducing a
    beta-recurrent sequence exactly; the case fixes the basis functions."""

    case: RecurrenceCase
    alpha: tuple  # (alpha_1, alpha_2, alpha_3) in `spec`
    q: FieldElement | None
    spec: FieldSpec
    lifted: bool  # True when spec is a fresh quadratic extension

    def evaluate(self, i: int) -> FieldElement:
        f1, f2, f3 = _case_basis(self.case, self.spec, self.q)(i)
        return self.alpha[0] * f1 + self.alpha[1] * f2 + self.alpha[2] * f3


def _fit_basis(case: RecurrenceCase, spec: FieldSpec, q, n: int) -> tuple:
    """(rows, inverse) for fitting a sequence of up to n terms in the
    closed form of `case` over `spec` (with unit root q in the generic
    case): rows[i] = (f1(i), f2(i), f3(i)) for i < n, and the inverse of
    the 3 x 3 matrix of the first three rows, from which a fit solves its
    coefficients."""
    basis = _case_basis(case, spec, q)
    rows = [basis(i) for i in range(n)]
    try:
        inverse = matrix_inverse(Matrix.from_elements(spec, rows[:3]))
    except SingularError as e:
        raise SingularBasisError(f"fit basis is singular: {e}") from e
    return rows, inverse


def fit_closed_form(seq, beta, q=None, basis=None) -> RecurrenceClosedForm:
    """Fit the case closed form to a beta-recurrent sequence.

    The sequence is first checked to be beta-recurrent.  The coefficients
    are solved from the first three terms and the fit is then checked
    against every term.  For the generic case a root q of x^2 - beta x + 1
    is found (or supplied, and then checked to be a root); if none exists
    in the field the sequence is lifted into the quadratic extension.
    `basis`, when given, is _fit_basis's (rows, inverse) for this case,
    field and q with at least len(seq) rows, so that fits sharing it (as
    classify_family's three do) build and invert it once; every check
    above still runs per fit.
    """
    vals = list(seq)
    if len(vals) < 3:
        raise TooShortError("closed-form fit needs at least 3 terms")
    if len(vals) >= 4 and not is_beta_recurrent(vals, beta):
        raise NotRecurrentError("sequence is not beta-recurrent at this beta")
    spec = vals[0].spec
    case = select_case(spec, spec.element(beta))
    lifted = False
    if case is RecurrenceCase.GENERIC_Q:
        if q is None:
            q, fit_spec, lifted = solve_unit_root(spec, spec.element(beta))
        else:
            fit_spec = q.spec
            lifted = fit_spec != spec
            beta_f = spec.element(beta).lift(fit_spec)
            if not (q * q - beta_f * q + fit_spec.one_element()).is_zero():
                raise NoSuchRootError("supplied q does not satisfy q + 1/q = beta")
        vals = [v.lift(fit_spec) for v in vals]
    else:
        q = None
        fit_spec = spec
    rows, inverse = basis or _fit_basis(case, fit_spec, q, len(vals))
    alpha = tuple((inverse * Vector.from_elements(fit_spec, vals[:3])).entries())
    for i, v in enumerate(vals):
        f1, f2, f3 = rows[i]
        if alpha[0] * f1 + alpha[1] * f2 + alpha[2] * f3 != v:
            raise SingularBasisError(
                f"closed form fails to reproduce term {i}; basis degenerate"
            )
    return RecurrenceClosedForm(case, alpha, q, fit_spec, lifted)


def recurrent_quotient(seq, beta, i: int, j: int, r: int, s: int) -> FieldElement:
    """(seq_i - seq_j)/(seq_r - seq_s) for i + j = r + s, r != s, with the
    case formula re-derived independently and compared exactly."""
    vals = list(seq)
    n = len(vals)
    for k in (i, j, r, s):
        if not 0 <= k < n:
            raise PreconditionViolatedError(f"index {k} out of range 0..{n - 1}")
    if i + j != r + s or r == s:
        raise PreconditionViolatedError("need i + j = r + s and r != s")
    for a in range(n):
        for b in range(a + 1, n):
            if vals[a] == vals[b]:
                raise PreconditionViolatedError("sequence values must be distinct")
    if not is_beta_recurrent(vals, beta):
        raise PreconditionViolatedError("sequence is not beta-recurrent")
    spec = vals[0].spec
    lhs = (vals[i] - vals[j]) / (vals[r] - vals[s])
    case = select_case(spec, spec.element(beta))
    if case is RecurrenceCase.GENERIC_Q:
        q, fit_spec, _ = solve_unit_root(spec, spec.element(beta))
        rhs = (q**i - q**j) / (q**r - q**s)
        if rhs != lhs.lift(fit_spec):
            raise IdentityCheckError("quotient identity failed in the generic case")
        return lhs
    if case is RecurrenceCase.BETA2:
        rhs = spec.element(i - j) / spec.element(r - s)
    elif case is RecurrenceCase.BETA_MINUS2:
        if (i + j) % 2 == 0:
            rhs = spec.element((-1) ** (i + r)) * spec.element(i - j) / spec.element(r - s)
        else:
            rhs = spec.element((-1) ** (i + r))
    else:  # beta = 0 in characteristic 2
        rhs = spec.zero_element() if i == j else spec.one_element()
    if rhs != lhs:
        raise IdentityCheckError("quotient identity failed")
    return lhs
