import json
import math
import re
import time

import pytest

from cyclact.cli import main
from cyclact.errors import BadIndex, OddModulus, PreconditionFailed
from cyclact.spectral import (
    COMPUTED,
    OMEGA_SPIN,
    PAPER_CITED,
    CohomologyClass,
    RingCase,
    cohomology_basis,
    d2_rank,
    e2_entry,
    e2_page,
    parse_class,
    ring_case,
    spin_line_report,
    steenrod_square,
    w2_class,
)


def test_ring_case_splits_on_residue_mod_four():
    assert ring_case(2) is RingCase.POLY
    assert ring_case(6) is RingCase.POLY
    assert ring_case(10) is RingCase.POLY
    assert ring_case(4) is RingCase.TRUNC
    assert ring_case(8) is RingCase.TRUNC
    with pytest.raises(OddModulus):
        ring_case(5)


def test_class_arithmetic_is_characteristic_two():
    x = CohomologyClass.monomial(2, 3, 0)
    assert (x + x).is_zero()
    assert x + CohomologyClass.zero(2) == x
    y = CohomologyClass.monomial(4, 0, 1)
    assert y * y == CohomologyClass.monomial(4, 0, 2)
    x4 = CohomologyClass.monomial(4, 1, 0)
    assert (x4 * x4).is_zero()
    assert x4 * y == CohomologyClass.monomial(4, 1, 1)


def test_class_repr_and_parse_roundtrip():
    for m, text in ((2, "x^3"), (4, "x*y^2"), (4, "y"), (2, "1"), (4, "0")):
        c = parse_class(m, text)
        assert parse_class(m, repr(c)) == c
    assert repr(parse_class(4, "x*y^2")) == "x*y^2"
    assert parse_class(2, "x^2+x^2").is_zero()


@pytest.mark.parametrize(
    "text",
    ["+", "x+", "+x", "x++x", " + ", "x^3 + " + "y" * 3000 + "+"],
    ids=["plus", "trailing", "leading", "doubled", "spaced", "long"],
)
def test_an_empty_monomial_is_an_error_not_the_unit(text):
    # "+" used to read as 1 + 1 = 0 and "x+" as x + 1, a degree mismatch
    with pytest.raises(BadIndex) as info:
        parse_class(6, text)
    assert "empty monomial" in str(info.value) and len(str(info.value)) < 60


@pytest.mark.parametrize(
    "text",
    ["*", "x*", "*x", "x**y", "x*+y", "x^*2", "x^3*" + "y" * 3000 + "*"],
    ids=["star", "trailing", "leading", "doubled", "before-plus", "glued-exponent", "long"],
)
def test_an_empty_factor_is_an_error_not_the_unit(text):
    # "*" used to read as 1, "x*" as x and "x^*2" as x^2
    with pytest.raises(BadIndex) as info:
        parse_class(4, text)
    assert len(str(info.value)) < 60


def test_factors_with_and_without_a_star_agree():
    assert parse_class(4, "x*y") == parse_class(4, "xy") == CohomologyClass.monomial(4, 1, 1)
    assert parse_class(4, "x*y^2") == parse_class(4, "xy^2") == CohomologyClass.monomial(4, 1, 2)
    assert parse_class(4, "1*x") == parse_class(4, "x")


def test_an_empty_class_is_zero_and_a_sum_cancels():
    for text in ("", "0", "x+x", "x^2 + x^2"):
        assert parse_class(6, text).is_zero()


@pytest.mark.parametrize("text", ["+", "x+"])
def test_the_cli_rejects_an_empty_monomial_with_one_document(capsys, text):
    code = main(["--json", "ahss", "sq", "--m", "6", "--k", "2", "--class", text])
    out = capsys.readouterr().out
    assert code == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "BadIndex"


@pytest.mark.parametrize(
    "m, named", [(5.5, "a float"), (True, "a bool"), ("6", "a 1-character string")]
)
def test_the_page_and_the_line_name_a_modulus_that_is_not_an_int(m, named):
    # e2_page(5.5) returned entries [5.5] and the 6-line concluded "zero"
    for call in (e2_page, spin_line_report):
        with pytest.raises(PreconditionFailed, match=f"m must be an int, got {named}"):
            call(m)


@pytest.mark.parametrize(
    "value, named", [("4", "a 1-character string"), (4.0, "a float"), (True, "a bool")]
)
def test_the_ring_names_a_modulus_or_degree_that_is_not_an_int(value, named):
    # ring_case("4") raised a bare TypeError, and so did everything built on it
    calls = [
        ("m", lambda: ring_case(value)),
        ("m", lambda: CohomologyClass.monomial(value, 1)),
        ("m", lambda: d2_rank(value, 4)),
        ("m", lambda: cohomology_basis(value, 2)),
        ("degree", lambda: cohomology_basis(4, value)),
        ("p", lambda: d2_rank(4, value)),
        ("k", lambda: steenrod_square(value, CohomologyClass.monomial(4, 1))),
    ]
    for name, call in calls:
        with pytest.raises(PreconditionFailed, match=f"^{name} must be an int, got {named}$"):
            call()


def test_a_class_names_an_exponent_or_text_of_the_wrong_type():
    # monomial(4, 1, 1.5) printed as x*y^1.5, monomial(4, True, 0) gave x,
    # and parse_class(4, 5) raised a bare AttributeError
    for i, j, named in ((1, 1.5, "a float"), (True, 0, "a bool"), (0, "1", "a 1-character string")):
        with pytest.raises(PreconditionFailed, match=f"^an exponent must be an int, got {named}$"):
            CohomologyClass.monomial(4, i, j)
    for text, named in ((5, "5"), (None, "a NoneType"), (["x"], "a list")):
        with pytest.raises(PreconditionFailed, match=f"^a class must be a string, got {named}$"):
            parse_class(4, text)


def test_a_class_names_terms_and_operands_of_the_wrong_shape():
    # a term that is not a pair raised a bare TypeError from unpacking, and
    # steenrod_square(1, 5) a bare AttributeError
    for terms, message in (
        (frozenset([1]), "a term must be a pair of exponents, got 1"),
        (frozenset([(0, 1, 2)]), "a term must be a pair of exponents, got a tuple"),
        (frozenset(["xy"]), "a term must be a pair of exponents, got a 2-character string"),
        ([(0, 1)], "terms must be a frozenset, got a list"),
    ):
        with pytest.raises(PreconditionFailed, match=f"^{re.escape(message)}$"):
            CohomologyClass(4, RingCase.TRUNC, terms)
    for c in (5, None, "x"):
        with pytest.raises(PreconditionFailed, match="^a class must be a CohomologyClass, got "):
            steenrod_square(1, c)


def test_cohomology_basis_is_one_monomial_per_degree():
    assert cohomology_basis(2, 5) == [CohomologyClass.monomial(2, 5, 0)]
    assert cohomology_basis(4, 4) == [CohomologyClass.monomial(4, 0, 2)]
    assert cohomology_basis(4, 5) == [CohomologyClass.monomial(4, 1, 2)]
    assert cohomology_basis(8, 0) == [CohomologyClass.monomial(8, 0, 0)]


def test_steenrod_squares_polynomial_case():
    x = CohomologyClass.monomial(2, 1, 0)
    x2 = CohomologyClass.monomial(2, 2, 0)
    x3 = CohomologyClass.monomial(2, 3, 0)
    assert steenrod_square(0, x3) == x3
    assert steenrod_square(1, x) == x2
    assert steenrod_square(1, x2).is_zero()
    assert steenrod_square(2, x3) == CohomologyClass.monomial(2, 5, 0)
    assert steenrod_square(3, x3) == x3 * x3
    assert steenrod_square(4, x3).is_zero()


def test_steenrod_squares_truncated_case():
    y = CohomologyClass.monomial(4, 0, 1)
    xy = CohomologyClass.monomial(4, 1, 1)
    assert steenrod_square(1, y).is_zero()
    assert steenrod_square(2, y) == y * y
    assert steenrod_square(2, xy) == CohomologyClass.monomial(4, 1, 2)
    assert steenrod_square(2, y * y).is_zero()
    assert steenrod_square(4, y * y) == CohomologyClass.monomial(4, 0, 4)
    assert steenrod_square(3, xy).is_zero()


def test_steenrod_square_parity_is_the_binomial_parity():
    # Sq^k x^i = C(i, k) x^(i+k) in POLY, Sq^2k x y^j = C(j, k) x y^(j+k) in TRUNC
    for n in range(64):
        xn = CohomologyClass.monomial(2, n, 0)
        xyn = CohomologyClass.monomial(4, 1, n)
        for k in range(64):
            odd = math.comb(n, k) % 2 == 1
            assert steenrod_square(k, xn).is_zero() is not odd
            if odd:
                assert steenrod_square(k, xn) == CohomologyClass.monomial(2, n + k, 0)
            assert steenrod_square(2 * k, xyn).is_zero() is not odd
            if odd:
                assert steenrod_square(2 * k, xyn) == CohomologyClass.monomial(
                    4, 1, n + k
                )
            if k:
                assert steenrod_square(2 * k - 1, xyn).is_zero()


def test_steenrod_square_of_a_large_exponent_is_fast(capsys):
    t0 = time.perf_counter()
    code = main(
        ["--json", "ahss", "sq", "--m", "2", "--k", "5000000", "--class", "x^10000000"]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    # C(2k, k) is even for k > 0: k + k carries in binary (Kummer)
    assert json.loads(capsys.readouterr().out)["square"]["terms"] == []
    assert elapsed < 2.0
    # no carries in 2^22 + 2^23, so C(2^23 + 2^22, 2^22) is odd
    big = CohomologyClass.monomial(2, 2**23 + 2**22, 0)
    assert steenrod_square(2**22, big) == CohomologyClass.monomial(2, 2**24, 0)


def test_steenrod_cartan_formula_on_products():
    for m in (2, 4, 6, 8):
        for di in range(1, 5):
            for dj in range(1, 5):
                (a,) = cohomology_basis(m, di)
                (b,) = cohomology_basis(m, dj)
                for k in range(0, 4):
                    lhs = steenrod_square(k, a * b)
                    rhs = CohomologyClass.zero(m)
                    for i in range(k + 1):
                        rhs = rhs + steenrod_square(i, a) * steenrod_square(
                            k - i, b
                        )
                    assert lhs == rhs


def test_w2_class_by_ring_case():
    assert w2_class(2) == CohomologyClass.monomial(2, 2, 0)
    assert w2_class(6) == CohomologyClass.monomial(6, 2, 0)
    assert w2_class(4) == CohomologyClass.monomial(4, 0, 1)
    assert w2_class(8) == CohomologyClass.monomial(8, 0, 1)


def test_d2_rank_values():
    for m in range(2, 21, 2):
        assert d2_rank(m, 5) == 1
        assert d2_rank(m, 5, twisted=True) == 0
        assert d2_rank(m, 6) == 0
        assert d2_rank(m, 6, twisted=True) == 1
        assert d2_rank(m, 7, twisted=True) == 1
    assert d2_rank(4, 4) == 1
    with pytest.raises(PreconditionFailed):
        d2_rank(4, 1)
    with pytest.raises(OddModulus):
        d2_rank(3, 5)


def test_omega_spin_descriptor():
    assert OMEGA_SPIN == ((0,), (2,), (2,), (), (0,), (), (), (), (0, 0))


def test_e2_entries():
    assert e2_entry(3, 0, 0) == (0,)
    assert e2_entry(3, 1, 0) == (3,)
    assert e2_entry(3, 2, 0) == ()
    assert e2_entry(3, 1, 1) == ()
    assert e2_entry(4, 3, 1) == (2,)
    assert e2_entry(4, 4, 2) == (2,)
    assert e2_entry(5, 0, 8) == (0, 0)
    assert e2_entry(5, 2, 3) == ()
    assert e2_entry(5, 1, 4) == (5,)


def test_e2_page_shape():
    page = e2_page(6)
    assert page.page_index == 2
    assert len(page.entries) == 45
    assert page.entry(4, 2) == (2,)
    assert page.entry(9, 0) == ()
    assert len(page.differentials) == 6
    assert e2_page(5).differentials == ()
    assert e2_page(5, twisted=True).entries == e2_page(5).entries
    payload = page.to_json()
    assert set(payload) == {"pageIndex", "entries", "differentials"}
    assert payload["entries"]["4,2"] == [2]


def test_spin_line_report_untwisted_even_uses_one_cited_step():
    for m in (2, 4, 6, 10, 12):
        rep = spin_line_report(m)
        assert rep.conclusion_zero
        assert rep.e2_line[(5, 1)] == (2,)
        assert rep.e2_line[(4, 2)] == (2,)
        assert all(v == () for v in rep.e3_line.values() if v != (2,))
        assert rep.e3_line[(4, 2)] == (2,)
        assert rep.e3_line[(5, 1)] == ()
        cited = [s for s in rep.steps if s["provenance"] == PAPER_CITED]
        assert len(cited) == 1
        assert cited[0]["entry"] == [4, 2]
        assert "d3" in cited[0]["action"]


def test_spin_line_report_twisted_even_is_fully_computed():
    for m in (2, 4, 6, 10, 12):
        rep = spin_line_report(m, twisted=True)
        assert rep.conclusion_zero
        assert all(v == () for v in rep.e3_line.values())
        assert all(s["provenance"] == COMPUTED for s in rep.steps)


def test_spin_line_report_odd_m_is_trivially_zero():
    for m in (3, 5, 7, 9, 11):
        for tw in (False, True):
            rep = spin_line_report(m, tw)
            assert rep.conclusion_zero
            assert all(v == () for v in rep.e2_line.values())
            assert all(s["provenance"] == COMPUTED for s in rep.steps)


def test_spin_line_report_json_sections():
    payload = spin_line_report(4).to_json()
    assert set(payload) == {
        "m", "twisted", "e2Line", "e3Line", "steps", "conclusion",
        "bibliography",
    }
    assert payload["conclusion"] == "zero"
    assert len(payload["bibliography"]) == 2
