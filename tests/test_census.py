from fractions import Fraction

import pytest

from cyclact.census import (
    OUT_OF_RANGE,
    SMOOTH,
    TOPOLOGICAL,
    ActionQuery,
    CensusReport,
    c_of_n,
    classification,
    euler_characteristic,
    existence_check,
)
from cyclact.errors import OutOfTable, PreconditionFailed


def q(n, m, genus, pk=None):
    return ActionQuery(n=n, m=m, genus=genus, pontryagin=pk)


def test_query_validation():
    with pytest.raises(PreconditionFailed):
        q(1, 3, 2)
    with pytest.raises(PreconditionFailed):
        q(3, 1, 2)
    with pytest.raises(PreconditionFailed):
        q(3, 3, -1)
    with pytest.raises(PreconditionFailed):
        q(4, 2, 5, ())
    q(4, 2, 5, (1,))
    q(3, 2, 5)


@pytest.mark.parametrize(
    "args, named",
    [
        ((3, 3.0, 4), "m must be an int, got a float"),
        (("3", 3, 4), "n must be an int, got a 1-character string"),
        ((3, 3, True), "genus must be an int, got a bool"),
        ((True, 3, 4), "n must be an int, got a bool"),
        ((8, 7, 6, (1, True)), "a pontryagin residue must be an int, got a bool"),
        ((8, 7, 6, (1, 2.0)), "a pontryagin residue must be an int, got a float"),
        ((4, 7, 6, "1"), "pontryagin data must be a list or tuple, got a 1-character string"),
        ((4, 7, 6, {1}), "pontryagin data must be a list or tuple, got a set"),
    ],
)
def test_a_query_names_a_value_that_is_not_an_int(args, named):
    # before the check, ActionQuery(3, 3.0, 4) was accepted and classification
    # raised a bare TypeError from Fraction; a bool passed as an int
    with pytest.raises(PreconditionFailed) as info:
        classification(ActionQuery(*args))
    assert str(info.value) == named


def test_bound_table():
    assert c_of_n(4) == 3
    assert c_of_n(5) == 3
    assert c_of_n(6) == 3
    assert c_of_n(7) == 3
    assert c_of_n(8) == 5
    assert c_of_n(9) == 5
    with pytest.raises(OutOfTable):
        c_of_n(10)


def test_bound_table_names_an_n_that_is_not_an_int():
    # c_of_n("4") named "n = 4" as out of the table; c_of_n([4]) raised a
    # bare TypeError
    for n, named in (("4", "a 1-character string"), ([4], "a list"), (4.0, "a float"), (True, "a bool")):
        with pytest.raises(PreconditionFailed, match=f"^n must be an int, got {named}$"):
            c_of_n(n)


def test_euler_characteristic_values():
    assert euler_characteristic(q(3, 3, 4)) == Fraction(-2)
    assert euler_characteristic(q(2, 5, 4)) == Fraction(2)
    assert euler_characteristic(q(4, 3, 1)) == Fraction(4, 3)


def test_existence_is_divisibility_of_shifted_genus():
    ok, reason = existence_check(q(3, 3, 4))
    assert ok and "divisible" in reason
    ok, reason = existence_check(q(4, 3, 3))
    assert not ok
    # even n: m must divide g + 1; odd n: m must divide g - 1
    for n in (2, 3, 4, 5):
        for m in (2, 3, 4, 5, 6):
            for g in range(0, 12):
                want = (g + (-1) ** n) % m == 0
                got, _ = existence_check(q(n, m, g, None))
                assert got == want
                chi = euler_characteristic(q(n, m, g))
                even_integer = chi.denominator == 1 and chi.numerator % 2 == 0
                assert got == even_integer


def test_surface_case_is_topological_with_open_note():
    rep = classification(q(2, 5, 4))
    assert rep.exists
    assert rep.class_count == 1
    assert rep.conjugation_kind == TOPOLOGICAL
    assert rep.quotient_descriptors == ()
    assert rep.euler_char == 2
    assert any("open" in note for note in rep.notes)


def test_three_dimensional_case_counts_by_parity():
    rep = classification(q(3, 3, 4))
    assert rep.class_count == 1
    assert rep.conjugation_kind == SMOOTH
    assert rep.quotient_descriptors == ("(L^3_3 x S^3) # 1(S^3 x S^3)",)
    rep = classification(q(3, 2, 3))
    assert rep.class_count == 2
    assert rep.quotient_descriptors == (
        "(L^3_2 x S^3) # 1(S^3 x S^3)",
        "S(xi) # 1(S^3 x S^3)",
    )
    assert any("Stiefel-Whitney" in note for note in rep.notes)


def test_high_dimensional_case_parameterized_by_residues():
    rep = classification(q(8, 7, 6, (1, 1)))
    assert rep.class_count == 49
    assert rep.parameterization == "(Z/7)^2"
    assert rep.conjugation_kind == SMOOTH
    assert rep.realizable_module == "I^2 (+) Z[Z/m]^(2r)"
    assert rep.quotient_descriptors == (
        "N(xi(p1=1, p2=1)) # 1(S^8 x S^8) # (1/m) Sigma",
    )
    rep = classification(q(9, 7, 8, (0, 0)))
    assert rep.class_count == 49
    assert rep.realizable_module == "Z^2 (+) Z[Z/m]^(2r)"
    assert rep.quotient_descriptors == (
        "S(xi(p1=0, p2=0)) # 1(S^9 x S^9) # (1/m) Sigma",
    )
    assert rep.euler_char == -2


def test_single_residue_dimensions_use_linear_count():
    rep = classification(q(4, 5, 4, (2,)))
    assert rep.class_count == 5
    assert rep.parameterization == "(Z/5)^1"
    rep = classification(q(5, 7, 8, (3,)))
    assert rep.class_count == 7
    rep = classification(q(7, 5, 6, (0,)))
    assert rep.class_count == 5


def test_small_prime_factors_leave_the_classified_range():
    rep = classification(q(8, 6, 5, (0, 0)))
    assert rep.exists
    assert rep.parameterization == OUT_OF_RANGE
    assert rep.class_count is None
    assert any("C(8) = 5" in note for note in rep.notes)
    rep = classification(q(4, 3, 2, (0,)))
    assert rep.parameterization == OUT_OF_RANGE
    rep = classification(q(10, 11, 10, (0, 0)))
    assert rep.parameterization == OUT_OF_RANGE
    assert any("no guard constant" in note for note in rep.notes)


def test_nonexistence_reports_are_bare():
    rep = classification(q(4, 3, 3, (0,)))
    assert not rep.exists
    assert rep.class_count is None
    assert rep.conjugation_kind is None
    assert rep.quotient_descriptors == ()
    assert rep.euler_char is None


def test_report_json_key_set():
    payload = classification(q(3, 3, 4)).to_json()
    assert set(payload) == {
        "query", "exists", "reason", "classCount", "parameterization",
        "conjugationKind", "quotientDescriptors", "realizableModule",
        "eulerChar", "notes",
    }
    assert payload["query"] == {
        "n": 3, "m": 3, "genus": 4, "pontryagin": None,
    }


def test_missing_pontryagin_data_leaves_the_bundle_generic():
    rep = classification(q(6, 5, 4, None))
    assert rep.class_count == 5
    assert rep.quotient_descriptors == ("N(xi) # 1(S^6 x S^6) # (1/m) Sigma",)
