"""The four families of recurrent circular Hessenberg systems.

Each family realizes one closed-form case of beta-recurrence:

    F1  beta = q + 1/q with q a primitive (d+1)-th root of unity
    F2  beta = 2,  characteristic d + 1
    F3  beta = -2, d odd >= 5, characteristic (d+1)/2
    F4  beta = 0,  characteristic 2, d = 3

The closed form of each case is defined once, by recurrence._case_basis:
a family's theta, theta* and wrap scalars vartheta are three combinations
of its case's basis, with coefficients (a, b, c), (a*, b*, c*) and (x, y, z),
where vartheta_0 = 0 fixes x.  Only the split sequence phi has a displayed
formula of its own in each family.

family_generate builds a parameter array from family data after checking
every hypothesis (the generator rejects invalid data; validity is never
assumed).  classify_family inverts it along one path for all four
families: the recurrence case of beta names the family, closed-form fits
in that case's basis recover the data, and the recovered data must pass
the same hypotheses and regenerate an equal array.  A recurrent array
failing that would contradict the classification and is reported as
InternalContradictionError, never swallowed.
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
    UnsupportedFieldError,
)
from .fields import FieldElement, FieldSpec, JsonFields, primitive_root_of_unity
from .recurrence import (
    RecurrenceCase,
    _binom2_mod4,
    _case_basis,
    _fit_basis,
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


# each family realizes exactly one closed-form case of beta-recurrence
_FAMILY_CASE = {
    Family.F1_GENERIC_Q: RecurrenceCase.GENERIC_Q,
    Family.F2_BETA2: RecurrenceCase.BETA2,
    Family.F3_BETA_MINUS2: RecurrenceCase.BETA_MINUS2,
    Family.F4_BETA0_CHAR2: RecurrenceCase.BETA0_CHAR2,
}
_CASE_FAMILY = {case: fam for fam, case in _FAMILY_CASE.items()}


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
    # the unstarred and starred (b, c) pairs obey the same hypotheses
    pairs = (("", fp.b, fp.c), ("*", fp.b_star, fp.c_star))
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
            for s, b, c in pairs:
                if c == b * q**k:
                    raise InvalidFamilyParametersError(
                        f"c{s} != b{s} q^i for 1 <= i <= 2d-1", f"fails at i={k}"
                    )
        if fp.y == fp.z:
            raise InvalidFamilyParametersError("y,z distinct")
    elif fam is Family.F2_BETA2:
        if spec.characteristic != d + 1:
            raise InvalidFamilyParametersError(
                "Char(F) = d+1", f"char {spec.characteristic} != {d + 1}"
            )
        for k in range(1, 2 * d):
            for s, b, c in pairs:
                if 2 * b == c * (1 - k):
                    raise InvalidFamilyParametersError(
                        f"2b{s} != c{s}(1-i) for 1 <= i <= 2d-1", f"fails at i={k}"
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
            for s, b, c in pairs:
                if 2 * b == -k * c:
                    raise InvalidFamilyParametersError(
                        f"2b{s} != -ic{s} for odd 1 <= i <= 2d-1", f"fails at i={k}"
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
        for s, b, c in pairs:
            if b == c:
                raise InvalidFamilyParametersError(f"b{s} != c{s}")
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
    """(theta, theta*, phi, vartheta) as lists over the index.  theta,
    theta* and vartheta (i = 0..d) combine the basis (f1, f2, f3) of the
    family's recurrence case; phi_i (i = 1..d) is the family's displayed
    formula, so the wrap-scalar check of family_generate tests it."""
    e = fp.spec.element
    b, c, bs, cs = fp.b, fp.c, fp.b_star, fp.c_star
    y, z, d = fp.y, fp.z, fp.d
    basis = _case_basis(_FAMILY_CASE[fp.family], fp.spec, fp.q)
    rows = [basis(i) for i in range(d + 1)]
    # vartheta_0 = 0 fixes the constant coefficient
    x = -(y * rows[0][1] + z * rows[0][2])

    def combine(a1, a2, a3):
        return [a1 * f1 + a2 * f2 + a3 * f3 for f1, f2, f3 in rows]

    theta = combine(fp.a, b, c)
    theta_star = combine(fp.a_star, bs, cs)
    vth = combine(x, y, z)
    if fp.family is Family.F1_GENERIC_Q:
        q = fp.q

        def phi_f(i, vth_i):
            return vth_i + (q**i - 1) * (q**-i - 1) * (b - c * q**i) * (
                bs - cs * q**-i
            )

    elif fp.family is Family.F2_BETA2:
        half = e(2) ** -1

        def phi_f(i, vth_i):
            return i * (y + (i - 1) * half * z) - e(i * i) * (
                b + (d - i) * half * c
            ) * (bs + (i - 1) * half * cs)

    elif fp.family is Family.F3_BETA_MINUS2:

        def phi_f(i, vth_i):
            sgm = e((-1) ** i - 1)
            isg = e(i * (-1) ** i)
            return vth_i + (sgm * b - isg * c) * (sgm * bs + isg * cs)

    else:  # F4, characteristic 2 with the mod-4 binomial convention

        def phi_f(i, vth_i):
            return vth_i + (i * b + e(_binom2_mod4(i + 1)) * c) * (
                i * bs + e(_binom2_mod4(i)) * cs
            )

    phi = [phi_f(i, vth[i]) for i in range(1, d + 1)]
    return theta, theta_star, phi, vth


def family_generate(fp: FamilyParameters) -> ParameterArray:
    """Build the parameter array from family data, rejecting any violated
    hypothesis, and assert the postconditions: distinct eigenvalue
    sequences, nonzero split sequence, wrap scalars matching the family's
    displayed form, and unequal first/last wrap scalars."""
    _validate(fp)
    d = fp.d
    theta, theta_star, phi, vth_f = _closed_forms(fp)
    for i, v in enumerate(phi, start=1):
        if v.is_zero():
            raise InvalidFamilyParametersError(
                "phi_i != 0 for 1 <= i <= d", f"phi_{i} = 0 for this y,z choice"
            )
    p = ParameterArray(fp.spec, d, tuple(theta), tuple(theta_star), tuple(phi))
    vth = vartheta_from_array(p)
    for i in range(1, d + 1):
        if vth[i] != vth_f[i]:
            raise IdentityCheckError(
                f"generated wrap scalar {i} disagrees with the family closed form"
            )
    if vth[1] == vth[d]:
        raise IdentityCheckError("wrap scalars vartheta_1 = vartheta_d after build")
    return p


@dataclass
class Classification(JsonFields):
    family: Family
    parameters: FamilyParameters
    beta: FieldElement
    lifted: bool  # recovered data lives in a quadratic extension of the field


def classify_family(p: ParameterArray) -> Classification:
    """Identify the unique family a recurrent array belongs to and recover
    generating data that regenerates an equal array.

    The family is the one realizing the recurrence case of beta.  The
    additive gauge (a is a free shift absorbed into theta_0) is fixed by the
    closed-form fit from the first three terms; for the generic case both
    roots q, 1/q are acceptable and the first that regenerates the array under
    the fixed enumeration order is kept.  Per root, the case basis rows
    (d + 2 of them, enough for vartheta) and the inverse of their first
    3 x 3 block are built once and shared by the three fits of theta,
    theta* and vartheta; each fit still checks its own sequence's
    recurrence, the root q and every term.  Recovered data that violates
    its family's hypotheses or fails to regenerate the array is an
    internal contradiction.
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
    fam = _CASE_FAMILY[case]
    if case is RecurrenceCase.GENERIC_Q:
        q0, fit_spec, lifted = solve_unit_root(p.spec, beta)
        roots = (q0, q0**-1)
    else:
        fit_spec, lifted, roots = p.spec, False, (None,)
    target = p.lift(fit_spec)
    beta_l = beta.lift(fit_spec)
    vth_l = vartheta_from_array(target)
    last_error = None
    for q in roots:
        # the d + 2 terms of vartheta cover theta's and theta*'s d + 1
        basis = _fit_basis(case, fit_spec, q, p.d + 2)
        ft = fit_closed_form(target.theta, beta_l, q=q, basis=basis)
        fts = fit_closed_form(target.theta_star, beta_l, q=q, basis=basis)
        # the fit reproduces vartheta_0 = 0, so its constant term is implied
        ftv = fit_closed_form(vth_l, beta_l, q=q, basis=basis)
        fp = FamilyParameters(
            fam, fit_spec, p.d, *ft.alpha, *fts.alpha, *ftv.alpha[1:], q
        )
        try:
            _regenerate_and_compare(fp, target)
            return Classification(fam, fp, beta, lifted)
        except InternalContradictionError as e:
            last_error = e
    if len(roots) == 1:
        raise last_error
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
        q, fit_spec, _ = solve_unit_root(p.spec, beta)
        v1, vd = vth[1].lift(fit_spec), vth[d].lift(fit_spec)
        den = (q - 1) * (q ** (d - 1) - 1)
        for i in range(1, d + 1):
            claimed = (
                (q**i - 1) * (q ** (d - i) - 1) * v1
                + (q ** (i - 1) - 1) * (q ** (d - i + 1) - 1) * vd
            ) / den
            rows.append((i, claimed, vth[i].lift(fit_spec)))
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
        raise UnsupportedFieldError("instance scanning needs a finite field")
    elems = list(spec.elements())
    nonzero = [e for e in elems if not e.is_zero()]
    count = 0
    if family is Family.F1_GENERIC_Q and q is None:
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
