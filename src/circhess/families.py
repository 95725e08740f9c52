"""The four families of recurrent circular Hessenberg systems.

Each family realizes one closed-form case of beta-recurrence:

    F1  beta = q + 1/q with q a primitive (d+1)-th root of unity
    F2  beta = 2,  characteristic d + 1
    F3  beta = -2, d odd >= 5, characteristic (d+1)/2
    F4  beta = 0,  characteristic 2, d = 3

family_generate builds a parameter array from family data after checking
every hypothesis (the generator rejects invalid data; validity is never
assumed).  classify_family inverts it: every recurrent array lands in
exactly one family, and the recovered data regenerates an equal array.
A recurrent array failing every case would contradict the classification
and is reported as InternalContradictionError, never swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    IdentityCheckError,
    InternalContradictionError,
    InvalidFamilyParametersError,
    NotCircularError,
    NotRecurrentAtBetaError,
    NotRecurrentError,
)
from .fields import FieldElement, FieldSpec
from .recurrence import (
    RecurrenceCase,
    _binom2_mod4,
    fit_closed_form,
    recurrence_status,
    select_case,
    solve_unit_root,
    vartheta_from_array,
)
from .systems import ParameterArray, isomorphic


class Family(Enum):
    F1_GENERIC_Q = "F1"
    F2_BETA2 = "F2"
    F3_BETA_MINUS2 = "F3"
    F4_BETA0_CHAR2 = "F4"


@dataclass(frozen=True)
class FamilyParameters:
    family: Family
    spec: FieldSpec
    d: int
    a: FieldElement
    b: FieldElement
    c: FieldElement
    a_star: FieldElement
    b_star: FieldElement
    c_star: FieldElement
    y: FieldElement
    z: FieldElement
    q: FieldElement | None = None  # F1 only

    @classmethod
    def make(cls, family, spec, d, *, a=0, b=0, c=0, a_star=0, b_star=0, c_star=0,
             y=0, z=0, q=None) -> "FamilyParameters":
        e = spec.element
        return cls(
            family, spec, d, e(a), e(b), e(c), e(a_star), e(b_star), e(c_star),
            e(y), e(z), None if q is None else e(q),
        )

    def to_json(self) -> dict:
        out = {
            "family": self.family.value,
            "field": self.spec.to_json(),
            "d": self.d,
            "a": str(self.a), "b": str(self.b), "c": str(self.c),
            "a_star": str(self.a_star), "b_star": str(self.b_star),
            "c_star": str(self.c_star),
            "y": str(self.y), "z": str(self.z),
        }
        if self.q is not None:
            out["q"] = str(self.q)
        return out


def _validate(fp: FamilyParameters):
    d = fp.d
    spec = fp.spec
    if d < 3:
        raise InvalidFamilyParametersError("d >= 3")
    fam = fp.family
    if fam is Family.F1_GENERIC_Q:
        q = fp.q
        if q is None or q.is_zero():
            raise InvalidFamilyParametersError("q nonzero", "F1 needs q")
        if (q ** (d + 1)) != 1:
            raise InvalidFamilyParametersError("q^(d+1) = 1")
        for i in range(1, d + 1):
            if (q**i) == 1:
                raise InvalidFamilyParametersError(
                    "q^i != 1 for 1 <= i <= d", f"fails at i={i}"
                )
        for k in range(1, 2 * d):
            if fp.c == fp.b * q**k:
                raise InvalidFamilyParametersError(
                    "c != b q^i for 1 <= i <= 2d-1", f"fails at i={k}"
                )
            if fp.c_star == fp.b_star * q**k:
                raise InvalidFamilyParametersError(
                    "c* != b* q^i for 1 <= i <= 2d-1", f"fails at i={k}"
                )
        if fp.y == fp.z:
            raise InvalidFamilyParametersError("y,z distinct")
    elif fam is Family.F2_BETA2:
        if spec.characteristic != d + 1:
            raise InvalidFamilyParametersError(
                "Char(F) = d+1", f"char {spec.characteristic} != {d + 1}"
            )
        for k in range(1, 2 * d):
            if 2 * fp.b == fp.c * (1 - k):
                raise InvalidFamilyParametersError(
                    "2b != c(1-i) for 1 <= i <= 2d-1", f"fails at i={k}"
                )
            if 2 * fp.b_star == fp.c_star * (1 - k):
                raise InvalidFamilyParametersError(
                    "2b* != c*(1-i) for 1 <= i <= 2d-1", f"fails at i={k}"
                )
        if 2 * fp.y == fp.z:
            raise InvalidFamilyParametersError("2y != z")
    elif fam is Family.F3_BETA_MINUS2:
        if d % 2 == 0 or d < 5:
            raise InvalidFamilyParametersError("d odd and d >= 5")
        if spec.characteristic != (d + 1) // 2:
            raise InvalidFamilyParametersError(
                "Char(F) = (d+1)/2", f"char {spec.characteristic} != {(d + 1) // 2}"
            )
        for name, v in (("b", fp.b), ("b*", fp.b_star), ("c", fp.c), ("c*", fp.c_star)):
            if v.is_zero():
                raise InvalidFamilyParametersError("b, b*, c, c* nonzero", name)
        for k in range(1, 2 * d, 2):
            if 2 * fp.b == -k * fp.c:
                raise InvalidFamilyParametersError(
                    "2b != -ic for odd 1 <= i <= 2d-1", f"fails at i={k}"
                )
            if 2 * fp.b_star == -k * fp.c_star:
                raise InvalidFamilyParametersError(
                    "2b* != -ic* for odd 1 <= i <= 2d-1", f"fails at i={k}"
                )
        if fp.z.is_zero():
            raise InvalidFamilyParametersError("z != 0")
    elif fam is Family.F4_BETA0_CHAR2:
        if d != 3:
            raise InvalidFamilyParametersError("d = 3")
        if spec.characteristic != 2:
            raise InvalidFamilyParametersError("Char(F) = 2")
        for name, v in (("b", fp.b), ("b*", fp.b_star), ("c", fp.c), ("c*", fp.c_star)):
            if v.is_zero():
                raise InvalidFamilyParametersError("b, b*, c, c* nonzero", name)
        if fp.b == fp.c:
            raise InvalidFamilyParametersError("b != c")
        if fp.b_star == fp.c_star:
            raise InvalidFamilyParametersError("b* != c*")
        if fp.z.is_zero():
            raise InvalidFamilyParametersError("z != 0")


def family_beta(fp: FamilyParameters) -> FieldElement:
    if fp.family is Family.F1_GENERIC_Q:
        return fp.q + fp.q**-1
    return fp.spec.element(
        {Family.F2_BETA2: 2, Family.F3_BETA_MINUS2: -2, Family.F4_BETA0_CHAR2: 0}[
            fp.family
        ]
    )


def _closed_forms(fp: FamilyParameters):
    """(theta_i, theta*_i, phi_i, vartheta_i) as functions of the index."""
    e = fp.spec.element
    a, b, c = fp.a, fp.b, fp.c
    as_, bs, cs = fp.a_star, fp.b_star, fp.c_star
    y, z, d = fp.y, fp.z, fp.d
    if fp.family is Family.F1_GENERIC_Q:
        q = fp.q

        def theta(i):
            return a + b * q**i + c * q**-i

        def theta_star(i):
            return as_ + bs * q**i + cs * q**-i

        def vth(i):
            return (q**i - 1) * (y - z * q**-i)

        def phi(i):
            return vth(i) + (q**i - 1) * (q**-i - 1) * (b - c * q**i) * (
                bs - cs * q**-i
            )

    elif fp.family is Family.F2_BETA2:

        def theta(i):
            return a + i * b + e(i * (i - 1) // 2) * c

        def theta_star(i):
            return as_ + i * bs + e(i * (i - 1) // 2) * cs

        def vth(i):
            return i * y + e(i * (i - 1) // 2) * z

        half = e(2) ** -1

        def phi(i):
            return i * (y + (i - 1) * half * z) - e(i * i) * (
                b + (d - i) * half * c
            ) * (bs + (i - 1) * half * cs)

    elif fp.family is Family.F3_BETA_MINUS2:

        def theta(i):
            sg = e((-1) ** i)
            return a + sg * b + e(i * (-1) ** i) * c

        def theta_star(i):
            sg = e((-1) ** i)
            return as_ + sg * bs + e(i * (-1) ** i) * cs

        def vth(i):
            return e((-1) ** i - 1) * y + e(i * (-1) ** i) * z

        def phi(i):
            sgm = e((-1) ** i - 1)
            isg = e(i * (-1) ** i)
            return vth(i) + (sgm * b - isg * c) * (sgm * bs + isg * cs)

    else:  # F4, characteristic 2 with the mod-4 binomial convention

        def theta(i):
            return a + i * b + e(_binom2_mod4(i)) * c

        def theta_star(i):
            return as_ + i * bs + e(_binom2_mod4(i)) * cs

        def vth(i):
            return i * y + e(_binom2_mod4(i)) * z

        def phi(i):
            return vth(i) + (i * b + e(_binom2_mod4(i + 1)) * c) * (
                i * bs + e(_binom2_mod4(i)) * cs
            )

    return theta, theta_star, phi, vth


def family_generate(fp: FamilyParameters) -> ParameterArray:
    """Build the parameter array from family data, rejecting any violated
    hypothesis, and assert the postconditions: distinct eigenvalue
    sequences, nonzero split sequence, wrap scalars matching the family's
    displayed form, and unequal first/last wrap scalars."""
    _validate(fp)
    d = fp.d
    theta_f, theta_star_f, phi_f, vth_f = _closed_forms(fp)
    phi = [phi_f(i) for i in range(1, d + 1)]
    for i, v in enumerate(phi, start=1):
        if v.is_zero():
            raise InvalidFamilyParametersError(
                "phi_i != 0 for 1 <= i <= d", f"phi_{i} = 0 for this y,z choice"
            )
    p = ParameterArray(
        fp.spec,
        d,
        tuple(theta_f(i) for i in range(d + 1)),
        tuple(theta_star_f(i) for i in range(d + 1)),
        tuple(phi),
    )
    vth = vartheta_from_array(p)
    for i in range(1, d + 1):
        if vth[i] != vth_f(i):
            raise IdentityCheckError(
                f"generated wrap scalar {i} disagrees with the family closed form"
            )
    if vth[1] == vth[d]:
        raise IdentityCheckError("wrap scalars vartheta_1 = vartheta_d after build")
    return p


@dataclass
class Classification:
    family: Family
    parameters: FamilyParameters
    beta: FieldElement
    lifted: bool  # recovered data lives in a quadratic extension of the field

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "beta": str(self.beta),
            "lifted": self.lifted,
            "parameters": self.parameters.to_json(),
        }


def classify_family(p: ParameterArray) -> Classification:
    """Identify the unique family a recurrent array belongs to and recover
    generating data that regenerates an equal array.

    The additive gauge (a is a free shift absorbed into theta_0) is fixed by
    the closed-form fit from the first three terms; for the generic case both
    roots q, 1/q are acceptable and the first that regenerates the array under
    the fixed enumeration order is kept.
    """
    st = recurrence_status(p)
    if not st.recurrent:
        raise NotRecurrentError("array is not recurrent; classification is open")
    beta = st.betas[0]
    vth = vartheta_from_array(p)
    if vth[1] == vth[p.d]:
        raise NotCircularError(
            "vartheta_1 = vartheta_d: not the array of a circular system"
        )
    case = select_case(p.spec, beta)
    if case is RecurrenceCase.GENERIC_Q:
        return _classify_generic(p, beta)
    if case is RecurrenceCase.BETA2:
        if p.spec.characteristic != p.d + 1:
            raise InternalContradictionError(
                f"beta = 2 but characteristic {p.spec.characteristic} != d+1"
            )
        fam = Family.F2_BETA2
    elif case is RecurrenceCase.BETA_MINUS2:
        if p.d % 2 == 0 or p.d < 5 or p.spec.characteristic != (p.d + 1) // 2:
            raise InternalContradictionError(
                "beta = -2 but d/characteristic fail the classification case"
            )
        fam = Family.F3_BETA_MINUS2
    else:
        if p.d != 3:
            raise InternalContradictionError("beta = 0 in characteristic 2 but d != 3")
        fam = Family.F4_BETA0_CHAR2
    ft = fit_closed_form(p.theta, beta)
    fts = fit_closed_form(p.theta_star, beta)
    ftv = fit_closed_form(vartheta_from_array(p), beta)
    # the zero endpoint vartheta_0 = 0 pins the fit's constant term
    if fam is Family.F3_BETA_MINUS2:
        if ftv.alpha[0] != -ftv.alpha[1]:
            raise InternalContradictionError(
                "wrap-scalar fit violates the zero-endpoint elimination"
            )
    elif not ftv.alpha[0].is_zero():
        raise InternalContradictionError("wrap-scalar fit has nonzero constant term")
    fp = FamilyParameters(
        fam, p.spec, p.d,
        ft.alpha[0], ft.alpha[1], ft.alpha[2],
        fts.alpha[0], fts.alpha[1], fts.alpha[2],
        ftv.alpha[1], ftv.alpha[2],
    )
    _regenerate_and_compare(fp, p)
    return Classification(fam, fp, beta, False)


def _classify_generic(p: ParameterArray, beta) -> Classification:
    q0, fit_spec, lifted = solve_unit_root(p.spec, beta)
    target = p.lift(fit_spec) if lifted else p
    beta_l = beta.lift(fit_spec) if lifted else beta
    # the classification case forces q to be a primitive (d+1)-th root
    if (q0 ** (p.d + 1)) != 1:
        raise InternalContradictionError(
            "beta != +-2 and recurrent, but q is not a (d+1)-th root of unity"
        )
    for k in range(1, p.d + 1):
        if (q0**k) == 1:
            raise InternalContradictionError(
                f"q has order {k} <= d; eigenvalues could not be distinct"
            )
    last_error = None
    for q in (q0, q0**-1):
        ft = fit_closed_form(target.theta, beta_l, q=q)
        fts = fit_closed_form(target.theta_star, beta_l, q=q)
        ftv = fit_closed_form(vartheta_from_array(target), beta_l, q=q)
        x, y, z = ftv.alpha
        if x != -(y + z):
            raise InternalContradictionError(
                "wrap-scalar fit violates the zero-endpoint elimination"
            )
        fp = FamilyParameters(
            Family.F1_GENERIC_Q, fit_spec, p.d,
            ft.alpha[0], ft.alpha[1], ft.alpha[2],
            fts.alpha[0], fts.alpha[1], fts.alpha[2],
            y, z, q,
        )
        try:
            _regenerate_and_compare(fp, target)
            return Classification(Family.F1_GENERIC_Q, fp, beta, lifted)
        except (InvalidFamilyParametersError, InternalContradictionError) as e:
            last_error = e
    raise InternalContradictionError(
        f"no unit root regenerates the array: {last_error}"
    )


def _regenerate_and_compare(fp: FamilyParameters, target: ParameterArray):
    try:
        regen = family_generate(fp)
    except InvalidFamilyParametersError as e:
        raise InternalContradictionError(
            f"recovered data violates a family hypothesis: {e}"
        ) from e
    if not isomorphic(regen, target):
        raise InternalContradictionError(
            "regenerated array differs from the classified one"
        )


def vartheta_combination(p: ParameterArray, beta):
    """Each interior wrap scalar as a linear combination of the first and
    last ones, per the recurrence case; returns [(i, claimed, computed)]
    with exact agreement asserted."""
    beta = p.spec.element(beta)
    st = recurrence_status(p)
    if not st.recurrent or beta not in st.betas:
        raise NotRecurrentAtBetaError(f"array is not {beta}-recurrent")
    d = p.d
    vth = vartheta_from_array(p)
    case = select_case(p.spec, beta)
    rows = []
    if case is RecurrenceCase.GENERIC_Q:
        q, fit_spec, lifted = solve_unit_root(p.spec, beta)
        v1 = vth[1].lift(fit_spec) if lifted else vth[1]
        vd = vth[d].lift(fit_spec) if lifted else vth[d]
        den = (q - 1) * (q ** (d - 1) - 1)
        for i in range(1, d + 1):
            claimed = (
                (q**i - 1) * (q ** (d - i) - 1) * v1
                + (q ** (i - 1) - 1) * (q ** (d - i + 1) - 1) * vd
            ) / den
            computed = vth[i].lift(fit_spec) if lifted else vth[i]
            rows.append((i, claimed, computed))
    elif case is RecurrenceCase.BETA2:
        e = p.spec.element
        den = e(d - 1)
        for i in range(1, d + 1):
            claimed = (e(i * (d - i)) * vth[1] + e((i - 1) * (d - i + 1)) * vth[d]) / den
            rows.append((i, claimed, vth[i]))
    elif case is RecurrenceCase.BETA_MINUS2:
        e = p.spec.element
        den = e(d - 1)
        for i in range(1, d + 1):
            if i % 2 == 0:
                claimed = (e(i) * vth[1] + e(d - i + 1) * vth[d]) / den
            else:
                claimed = (e(d - i) * vth[1] + e(i - 1) * vth[d]) / den
            rows.append((i, claimed, vth[i]))
    else:
        rows.append((1, vth[1], vth[1]))
        rows.append((2, vth[1] + vth[3], vth[2]))
        rows.append((3, vth[3], vth[3]))
    for i, claimed, computed in rows:
        if claimed != computed:
            raise IdentityCheckError(
                f"wrap-scalar combination fails at i={i}: {claimed} != {computed}"
            )
    return rows


def iter_family_instances(family: Family, spec: FieldSpec, d: int, limit: int,
                          q=None):
    """Deterministically yield up to `limit` valid FamilyParameters over a
    finite field by scanning small parameter combinations."""
    if spec.order is None:
        from .errors import UnsupportedFieldError

        raise UnsupportedFieldError("instance scanning needs a finite field")
    elems = list(spec.elements())
    nonzero = [e for e in elems if not e.is_zero()]
    count = 0
    if family is Family.F1_GENERIC_Q and q is None:
        from .fields import primitive_root_of_unity

        q = primitive_root_of_unity(spec, d + 1)
    pool_bc = elems[: min(len(elems), 6)]
    pool_yz = elems[: min(len(elems), 8)]
    for b in nonzero[:4]:
        for c in pool_bc[:4]:
            for b_star in nonzero[:3]:
                for c_star in pool_bc[:3]:
                    for y in pool_yz:
                        for z in pool_yz:
                            fp = FamilyParameters(
                                family, spec, d,
                                spec.zero_element(), b, c,
                                spec.zero_element(), b_star, c_star,
                                y, z, q if family is Family.F1_GENERIC_Q else None,
                            )
                            try:
                                family_generate(fp)
                            except InvalidFamilyParametersError:
                                continue
                            yield fp
                            count += 1
                            if count >= limit:
                                return
