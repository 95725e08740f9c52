"""Golden outputs of family generation, classification and rejection.

The expected bytes in golden/families.json pin the generated arrays, the
classification JSON (and with it the order in which the generic case tries
the roots q0, 1/q0) and the message of every family hypothesis, unstarred
and starred.  They were recorded from the implementation that spelled out
each family's closed forms by hand, so any rewrite of the closed forms or of
the classification must reproduce them byte for byte.
"""

import json
from pathlib import Path

import pytest

from circhess import (
    Family,
    FamilyParameters,
    ParameterArray,
    classify_family,
    family_generate,
    field_from_string,
    prime_field,
    primitive_root_of_unity,
)
from circhess.errors import InvalidFamilyParametersError

GOLDEN = json.loads((Path(__file__).parent / "golden" / "families.json").read_text())

F1, F2, F3, F4 = (Family.F1_GENERIC_Q, Family.F2_BETA2, Family.F3_BETA_MINUS2,
                  Family.F4_BETA0_CHAR2)


def _gf25_case():
    q = primitive_root_of_unity(prime_field(5), 8, allow_extension=True)
    return FamilyParameters.make(
        F1, q.spec, 7, a="0+1*s", b="0+1*s", c="1+0*s", a_star="0+2*s",
        b_star="0+2*s", c_star="1+0*s", y="0+1*s", z="0+2*s", q=q,
    )


GENERATED = {
    "F1 GF(7) d=5": lambda: FamilyParameters.make(
        F1, prime_field(7), 5, a=1, b=1, a_star=2, b_star=2, y=1, z=2, q=3),
    "F2 GF(5) d=4": lambda: FamilyParameters.make(
        F2, prime_field(5), 4, a=1, b=1, a_star=2, b_star=2, y=1, z=4),
    "F3 GF(9) d=5": lambda: FamilyParameters.make(
        F3, field_from_string("ext:gf:3:1,0,1"), 5, a="0+1*w", b="0+1*w",
        c="1+0*w", a_star="0+2*w", b_star="0+2*w", c_star="1+0*w", y="0+1*w",
        z="1+1*w"),
    "F4 GF(4) d=3": lambda: FamilyParameters.make(
        F4, field_from_string("ext:gf:2:1,1,1"), 3, a="0+1*w", b="0+1*w",
        c="1+0*w", a_star="1+0*w", b_star="1+0*w", c_star="0+1*w", y="0+1*w",
        z="1+0*w"),
    "F1 GF(25) d=7": _gf25_case,
}

# beta = 0 over GF(7): x^2 + 1 has no root, so classification lifts the
# array into GF(49) and recovers q there
LIFTED = ParameterArray.make(prime_field(7), [3, 4, 6, 5], [4, 5, 0, 6], [5, 2, 6])


def _json_bytes(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generate_and_classify_golden(name):
    p = family_generate(GENERATED[name]())
    assert _json_bytes(p.to_json()) == GOLDEN["arrays"][name]
    assert _json_bytes(classify_family(p).to_json()) == GOLDEN["classifications"][name]


def test_classify_lifted_golden():
    cls = classify_family(LIFTED)
    assert cls.lifted
    assert _json_bytes(cls.to_json()) == GOLDEN["classifications"]["F1 GF(7) d=3 lifted"]


# (family, field, d, parameters, message); where an unstarred and a starred
# check both fail, the first index i to fail decides which is reported
REJECTIONS = [
    (F2, "gf:5", 2, dict(b=1, y=1), "d >= 3"),
    (F1, "gf:5", 3, dict(b=1, b_star=1, y=1), "q nonzero: F1 needs q"),
    (F1, "gf:7", 3, dict(q=3, b=1, b_star=1, y=1), "q^(d+1) = 1"),
    (F1, "gf:5", 3, dict(q=4, b=1, b_star=1, y=1),
     "q^i != 1 for 1 <= i <= d: fails at i=2"),
    (F1, "gf:5", 3, dict(q=2, b=1, c=2, b_star=1, y=1),
     "c != b q^i for 1 <= i <= 2d-1: fails at i=1"),
    (F1, "gf:5", 3, dict(q=2, b=1, c=4, b_star=1, c_star=2, y=1),
     "c* != b* q^i for 1 <= i <= 2d-1: fails at i=1"),
    (F1, "gf:5", 3, dict(q=2, b=1, b_star=1, y=1, z=1), "y,z distinct"),
    (F1, "gf:5", 3, dict(q=2, b=1, b_star=1, y=2),
     "phi_i != 0 for 1 <= i <= d: phi_2 = 0 for this y,z choice"),
    (F2, "gf:5", 3, dict(b=1, b_star=1, y=1), "Char(F) = d+1: char 5 != 4"),
    (F2, "gf:5", 4, dict(b=1, c=1, b_star=1, y=1),
     "2b != c(1-i) for 1 <= i <= 2d-1: fails at i=4"),
    (F2, "gf:5", 4, dict(b=1, c=1, b_star=1, c_star=3, y=1),
     "2b* != c*(1-i) for 1 <= i <= 2d-1: fails at i=2"),
    (F2, "gf:5", 4, dict(b=1, b_star=1, y=1, z=2), "2y != z"),
    (F3, "ext:gf:3:1,0,1", 6, dict(b=1, c=1, b_star=1, c_star=1, z=1),
     "d odd and d >= 5"),
    (F3, "ext:gf:3:1,0,1", 3, dict(b=1, c=1, b_star=1, c_star=1, z=1),
     "d odd and d >= 5"),
    (F3, "ext:gf:3:1,0,1", 7, dict(b=1, c=1, b_star=1, c_star=1, z=1),
     "Char(F) = (d+1)/2: char 3 != 4"),
    (F3, "ext:gf:3:1,0,1", 5, dict(c=1, b_star=1, c_star=1, z=1),
     "b, b*, c, c* nonzero: b"),
    (F3, "ext:gf:3:1,0,1", 5, dict(b=1, c=1, c_star=1, z=1),
     "b, b*, c, c* nonzero: b*"),
    (F3, "ext:gf:3:1,0,1", 5, dict(b=1, b_star=1, c_star=1, z=1),
     "b, b*, c, c* nonzero: c"),
    (F3, "ext:gf:3:1,0,1", 5, dict(b=1, c=1, b_star=1, z=1),
     "b, b*, c, c* nonzero: c*"),
    (F3, "ext:gf:3:1,0,1", 5, dict(b=1, c=2, b_star=1, c_star="0+1*w", z=1),
     "2b != -ic for odd 1 <= i <= 2d-1: fails at i=5"),
    (F3, "ext:gf:3:1,0,1", 5, dict(b=1, c=2, b_star=1, c_star=1, z=1),
     "2b* != -ic* for odd 1 <= i <= 2d-1: fails at i=1"),
    (F3, "ext:gf:3:1,0,1", 5, dict(b=1, c="0+1*w", b_star=1, c_star="0+1*w"),
     "z != 0"),
    (F4, "ext:gf:2:1,1,1", 4, dict(b=1, c="0+1*w", b_star=1, c_star="0+1*w", z=1),
     "d = 3"),
    (F4, "gf:5", 3, dict(b=1, c=2, b_star=1, c_star=2, z=1), "Char(F) = 2"),
    (F4, "ext:gf:2:1,1,1", 3, dict(c=1, b_star=1, c_star="0+1*w", z=1),
     "b, b*, c, c* nonzero: b"),
    (F4, "ext:gf:2:1,1,1", 3, dict(b=1, c="0+1*w", c_star=1, z=1),
     "b, b*, c, c* nonzero: b*"),
    (F4, "ext:gf:2:1,1,1", 3, dict(b=1, c=1, b_star=1, c_star="0+1*w", z=1),
     "b != c"),
    (F4, "ext:gf:2:1,1,1", 3, dict(b=1, c="0+1*w", b_star=1, c_star=1, z=1),
     "b* != c*"),
    (F4, "ext:gf:2:1,1,1", 3, dict(b=1, c="0+1*w", b_star=1, c_star="0+1*w"),
     "z != 0"),
]


@pytest.mark.parametrize("family, field, d, params, message", REJECTIONS)
def test_rejection_messages_golden(family, field, d, params, message):
    fp = FamilyParameters.make(family, field_from_string(field), d, **params)
    with pytest.raises(InvalidFamilyParametersError) as e:
        family_generate(fp)
    assert str(e.value) == message
