import pytest

from circhess import (
    Family,
    FamilyParameters,
    ParameterArray,
    cyclotomic_field,
    field_from_string,
    prime_field,
    quotient_extension,
    split_form_build,
    verify_ch_axioms,
)


@pytest.fixture(scope="session")
def gf5():
    return prime_field(5)


@pytest.fixture(scope="session")
def gf7():
    return prime_field(7)


@pytest.fixture(scope="session")
def gf4():
    return field_from_string("ext:gf:2:1,1,1")


@pytest.fixture(scope="session")
def gf9():
    return quotient_extension(prime_field(3), [1, 0, 1], gen="w")


@pytest.fixture(scope="session", params=[
    "gf:5", "gf:7", "ext:gf:2:1,1,1", "ext:gf:2:1,1,0,1", "ext:gf:3:1,0,1",
    "tower"])
def small_finite_field(request):
    """GF(5), GF(7), GF(4), GF(8), GF(9) and GF(16) as the tower
    GF(4)[s]/(s^2 + s + w): small enough to scan."""
    if request.param != "tower":
        return field_from_string(request.param)
    gf4 = field_from_string("ext:gf:2:1,1,1")
    one = gf4.one_element()
    return quotient_extension(gf4, [gf4.generator(), one, one], gen="s")


@pytest.fixture(scope="session")
def cyclo4():
    return cyclotomic_field(4)


@pytest.fixture(scope="session")
def w5_array(gf5):
    """The d = 3 fixture over GF(5): theta = theta* = (1,2,4,3),
    phi = (3,2,4).  All golden numbers were reproduced by hand and by an
    independent brute-force script before being frozen into tests."""
    return ParameterArray.make(gf5, [1, 2, 4, 3], [1, 2, 4, 3], [3, 2, 4])


@pytest.fixture(scope="session")
def w5_params(gf5):
    return FamilyParameters.make(
        Family.F1_GENERIC_Q, gf5, 3, q=2, b=1, b_star=1, y=1, z=0
    )


@pytest.fixture()
def w5_system(w5_array):
    s = split_form_build(w5_array)
    assert verify_ch_axioms(s).is_ch
    return s
