import copy
import math
import pickle
import random
import re
import time
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclact import groupring, intlattice
from cyclact.errors import Degenerate, ModulusMismatch, NotDivisible, PreconditionFailed
from cyclact.groupring import (
    STRAIGHT_MAX_M,
    FormParameterKind,
    GroupRingElement,
    NormData,
    _adjugate,
    _class_coeffs,
    _dot_coeffs,
    _norm_data,
    _straight,
    augmentation,
    divide_by_one_minus_gen,
    exact_divide,
    ideal_contains_one,
    ideal_express,
    ideal_normalize,
    involution,
    is_unit,
    mult_matrix,
    param_reduce,
    ring_mul,
)
from cyclact.intlattice import det_int

from oracles import conj_coeffs, cyclotomic, ideal_hnf, naive_hnf, naive_reduce, poly_mul_fold


def el(m, *coeffs):
    c = list(coeffs) + [0] * (m - len(coeffs))
    return GroupRingElement(m, c)


elements = st.integers(2, 9).flatmap(
    lambda m: st.lists(
        st.integers(-6, 6), min_size=m, max_size=m
    ).map(lambda c: GroupRingElement(m, c))
)


def pair(strategy):
    return strategy.flatmap(
        lambda x: st.lists(
            st.integers(-6, 6), min_size=x.m, max_size=x.m
        ).map(lambda c: (x, GroupRingElement(x.m, c)))
    )


@given(pair(elements))
def test_multiplication_matches_fold_oracle(xy):
    x, y = xy
    assert (x * y).coeffs == poly_mul_fold(x.m, x.coeffs, y.coeffs)
    assert ring_mul(x, y) == ring_mul(y, x)


@given(elements)
def test_involution_matches_index_oracle(x):
    assert x.conj().coeffs == conj_coeffs(x.m, x.coeffs)
    assert involution(x) == x.conj()
    assert x.conj().conj() == x


@given(pair(elements))
def test_involution_is_multiplicative(xy):
    x, y = xy
    assert (x * y).conj() == x.conj() * y.conj()


@given(elements)
def test_norm_element_absorbs(x):
    s = GroupRingElement.norm(x.m)
    assert x * s == s * x.aug()
    assert s.conj() == s


@given(pair(elements))
def test_augmentation_is_a_ring_map(xy):
    x, y = xy
    assert augmentation(x * y) == augmentation(x) * augmentation(y)
    assert augmentation(x + y) == augmentation(x) + augmentation(y)
    assert augmentation(x, mod2=True) == augmentation(x) % 2


def test_multiplication_anchor_m5():
    # (1 + g) * (-g - g^3) = 1 - s at m = 5
    x = el(5, 1, 1)
    y = el(5, 0, -1, 0, -1)
    s = GroupRingElement.norm(5)
    assert x * y == GroupRingElement.one(5) - s


def test_mult_matrix_represents_multiplication():
    rng = random.Random(2)
    for _ in range(30):
        m = rng.randint(2, 7)
        x = GroupRingElement(m, [rng.randint(-4, 4) for _ in range(m)])
        mat = mult_matrix(x)
        y = GroupRingElement(m, [rng.randint(-4, 4) for _ in range(m)])
        prod = x * y
        for i in range(m):
            assert prod.coeffs[i] == sum(mat[i][j] * y.coeffs[j] for j in range(m))


def test_exact_divide_solves_and_flags_ambiguity():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(2, 7)
        a = GroupRingElement(m, [rng.randint(-3, 3) for _ in range(m)])
        d = GroupRingElement(m, [rng.randint(-3, 3) for _ in range(m)])
        if d.is_zero():
            continue
        res = exact_divide(a * d, d)
        assert res.quotient * d == a * d
        if not res.ambiguous:
            assert res.quotient == a
    # zero divisor pair: s * (1 - g) = 0, so dividing s by (1 - g) fails
    s = GroupRingElement.norm(4)
    with pytest.raises(NotDivisible):
        exact_divide(s + GroupRingElement.one(4), s)


def test_is_unit_produces_two_sided_inverse():
    m = 5
    u = el(m, -1, 0, 1, 1)  # g^2 + g^3 - 1, inverse g + g^4 - 1
    ok, inv = is_unit(u)
    assert ok
    assert inv == el(m, -1, 1, 0, 0, 1)
    assert u * inv == GroupRingElement.one(m)
    ok, inv = is_unit(el(m, 2))
    assert not ok and inv is None
    ok, inv = is_unit(el(m, 0, 0, 1))
    assert ok and inv == el(m, 0, 0, 0, 1)


def test_ideal_contains_one_examples():
    m = 5
    assert ideal_contains_one([el(m, 1)])
    # 2 and 1 - g give every 1 - g^k, so g^2 + g^3 + g^4 reduces to 3: done
    assert ideal_contains_one([el(m, 2), el(m, 1, -1), el(m, 0, 0, 1, 1, 1)])
    # every generator has even augmentation: 1 is unreachable
    assert not ideal_contains_one([el(m, 2), el(m, 1, -1)])
    assert not ideal_contains_one([el(m, 2), el(m, 0, 2)])
    assert not ideal_contains_one([el(m, 1, -1)])


def test_ideal_contains_one_reads_the_identity_off_the_hermite_oracle():
    # the ideal is the whole ring iff its lattice's canonical basis is the
    # identity; random ideals, some made proper by a common factor
    rng = random.Random(41)
    seen = set()
    for m in range(2, 14):
        identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        for count in (2, 3):
            for draw in range(12):
                gens = [el(m, *(rng.randint(-2, 2) for _ in range(m))) for _ in range(count)]
                if draw % 3 == 0:
                    factor = rng.choice([el(m, 2), el(m, 1, -1), GroupRingElement.norm(m)])
                    gens = [factor * g for g in gens]
                if all(g.is_zero() for g in gens):
                    continue
                want = ideal_hnf(m, [g.coeffs for g in gens]) == identity
                assert ideal_contains_one(gens) is want, (m, gens)
                seen.add(want)
    assert seen == {True, False}


def test_ideal_normalize_anchor_m5():
    # ideal (2, 1 - g) at m = 5
    m = 5
    norm = ideal_normalize([el(m, 2), el(m, 1, -1)])
    assert norm.l == 2
    assert norm.u == el(m, 1, 1)
    assert (norm.a, norm.b) == (1, 2)
    assert norm.v == el(m, 0, -1, 0, -1)
    assert norm.verify()
    s = GroupRingElement.norm(m)
    assert norm.u * norm.v == GroupRingElement.one(m) - s * norm.a


def test_ideal_normalize_anchor_m7():
    # ideal (3, 1 - g) at m = 7
    m = 7
    norm = ideal_normalize([el(m, 3), el(m, 1, -1)])
    assert norm.l == 3
    assert norm.u == el(m, 1, 1, 1)
    assert (norm.a, norm.b) == (1, 2)
    assert norm.v == el(m, 0, -1, 0, 0, -1)
    assert norm.verify()


def test_ideal_normalize_unit_ideal():
    norm = ideal_normalize([GroupRingElement.one(6)])
    assert norm.l == 1
    assert norm.u == GroupRingElement.one(6)
    assert norm.verify()


def test_ideal_normalize_generates_the_same_ideal():
    rng = random.Random(31)
    s_cases = 0
    for _ in range(200):
        m = rng.randint(2, 8)
        gens = [
            GroupRingElement(m, [rng.randint(-2, 2) for _ in range(m)])
            for _ in range(rng.randint(1, 2))
        ]
        try:
            norm = ideal_normalize(gens)
        except (PreconditionFailed, Degenerate):
            continue
        s_cases += 1
        assert norm.verify()
        got = ideal_hnf(m, [norm.u.coeffs])
        want = ideal_hnf(m, [x.coeffs for x in gens])
        assert got == want
    assert s_cases >= 30


def test_geometric_matches_the_folded_sum():
    for m in range(2, 14):
        for l in range(60):
            c = [0] * m
            for i in range(l):
                c[i % m] += 1
            assert GroupRingElement.geometric(m, l).coeffs == tuple(c)


@pytest.mark.parametrize(
    "l, named",
    [(-1, "-1"), (1.5, "a float"), (-(2**70), "<negative 71-bit integer>")],
)
def test_geometric_names_a_bad_length(l, named):
    with pytest.raises(
        PreconditionFailed,
        match=f"^a geometric length must be a nonnegative int, got {re.escape(named)}$",
    ):
        GroupRingElement.geometric(3, l)


@pytest.mark.parametrize(
    "power, named",
    [(1.5, "a float"), (2.0, "a float"), (True, "a bool"), ("a", "a 1-character string")],
)
def test_gen_and_shift_name_a_power_that_is_not_an_int(power, named):
    # gen(5, 1.5) and shift(2.0) raised a bare TypeError from slicing
    with pytest.raises(PreconditionFailed, match=f"^a power of gen must be an int, got {named}$"):
        GroupRingElement.gen(5, power)
    with pytest.raises(PreconditionFailed, match=f"^a power of gen must be an int, got {named}$"):
        GroupRingElement.gen(5).shift(power)


def test_ideal_normalize_with_huge_augmentation_is_fast():
    gen = GroupRingElement(5, [200000001] + [200000000] * 4)
    t0 = time.perf_counter()
    norm = ideal_normalize([gen])
    assert time.perf_counter() - t0 < 2.0
    assert norm.l == 1000000001
    assert norm.verify()


def test_ideal_normalize_rejections():
    with pytest.raises(PreconditionFailed):
        ideal_normalize([GroupRingElement.norm(4)])
    with pytest.raises(PreconditionFailed):
        ideal_normalize([el(4, 2)])
    with pytest.raises(Degenerate):
        ideal_normalize([GroupRingElement.zero(5)])


def test_no_generators_is_degenerate_at_every_entry_point():
    # each entry point reports what ideal_normalize([]) does, not IndexError
    for call in (
        lambda: ideal_normalize([]),
        lambda: ideal_contains_one([]),
        lambda: ideal_express([], GroupRingElement.one(3)),
    ):
        with pytest.raises(Degenerate, match="no generators"):
            call()


def test_ideal_express_names_a_target_of_another_modulus():
    for target in (GroupRingElement.one(4), GroupRingElement.one(2)):
        with pytest.raises(ModulusMismatch, match=f"^target m={target.m} vs generators m=3$"):
            ideal_express([GroupRingElement.one(3)], target)
    assert ideal_express([GroupRingElement.one(3)], GroupRingElement.one(3)) == [GroupRingElement.one(3)]


def test_positive_variant_identity():
    m = 5
    norm = ideal_normalize([el(m, 2), el(m, 1, -1)])
    v_t, a_t, b_t = norm.positive_variant()
    assert b_t == 3  # inverse of l = 2 modulo 5
    assert a_t == -1
    assert v_t == el(m, 1, 0, 1, 0, 1)
    s = GroupRingElement.norm(m)
    assert norm.u * v_t + s * a_t == GroupRingElement.one(m)


def test_positive_variant_is_the_stride_sum():
    # the closed form (v + s, a - l, m - b) against the definition:
    # b2*l + a2*m = 1 with 0 < b2 < m, v2 = 1 + g^l + ... + g^((b2-1)l)
    for m in range(2, 31):
        s = GroupRingElement.norm(m)
        # l past m too: the augmentation need not be reduced mod m
        for l in range(1, 2 * m):
            if math.gcd(l, m) != 1:
                continue
            norm = ideal_normalize([GroupRingElement.geometric(m, l)])
            b2 = next(b for b in range(1, m) if (b * l) % m == 1)
            a2 = (1 - b2 * l) // m
            v2 = GroupRingElement.zero(m)
            for j in range(b2):
                v2 = v2 + GroupRingElement.gen(m, j * l)
            assert norm.positive_variant() == (v2, a2, b2)
            assert norm.u * v2 + s * a2 == GroupRingElement.one(m)
            # even modulus forces odd b2
            if m % 2 == 0:
                assert b2 % 2 == 1
            # b shifted by a period keeps every identity but leaves that range
            shifted = NormData(norm.u, norm.v - s, l, norm.a + l, norm.b + m)
            assert norm.verify() and not shifted.verify()
            assert shifted.u * shifted.v == GroupRingElement.one(m) - s * shifted.a


def test_param_reduce_classes():
    m = 4
    g2 = GroupRingElement.gen(m, 2)
    assert not param_reduce(g2, FormParameterKind.TILDE).is_zero()
    assert param_reduce(el(m, 0, 1, 0, 1), FormParameterKind.TILDE).is_zero()
    assert param_reduce(GroupRingElement.one(m), FormParameterKind.TILDE).is_zero()
    s = GroupRingElement.norm(m)
    assert param_reduce(s, FormParameterKind.TILDE) == param_reduce(
        g2, FormParameterKind.TILDE
    )
    # PLUS does not contain 1
    assert not param_reduce(GroupRingElement.one(m), FormParameterKind.PLUS).is_zero()
    # MINUS kills antisymmetric elements
    x = el(m, 0, 3, 1)
    assert param_reduce(x - x.conj(), FormParameterKind.MINUS).is_zero()


def test_param_reduce_odd_modulus_norm_vanishes():
    for m in (3, 5, 7):
        s = GroupRingElement.norm(m)
        assert param_reduce(s, FormParameterKind.TILDE).is_zero()


def _parameter_lattice_rows(m, kind):
    """Generators of the form parameter: gen^i +- gen^(m-i), plus 1 for TILDE."""
    sign = -1 if kind is FormParameterKind.MINUS else 1
    rows = [[1] + [0] * (m - 1)] if kind is FormParameterKind.TILDE else []
    for i in range(m):
        row = [0] * m
        row[i] += 1
        row[(m - i) % m] += sign
        rows.append(row)
    return rows


def test_param_reduce_matches_hermite_representative():
    rng = random.Random(31)
    for m in range(2, 14):
        for kind in FormParameterKind:
            basis = naive_hnf(_parameter_lattice_rows(m, kind), m)
            for bound in (3, 10**6):
                for _ in range(10):
                    x = GroupRingElement(
                        m, [rng.randint(-bound, bound) for _ in range(m)]
                    )
                    rep = param_reduce(x, kind).rep.coeffs
                    assert rep == naive_reduce(basis, x.coeffs)


def test_class_coeffs_is_param_reduces_representative_on_tuples():
    # the solver and the certificate compare classes as _class_coeffs tuples;
    # each is param_reduce's representative, the Hermite-reduced one
    rng = random.Random(3101)
    for m in range(2, 14):
        for kind in FormParameterKind:
            basis = naive_hnf(_parameter_lattice_rows(m, kind), m)
            for bound in (3, 2**90):
                for _ in range(6):
                    c = tuple(rng.randint(-bound, bound) for _ in range(m))
                    got = _class_coeffs(m, kind, c)
                    assert got == param_reduce(GroupRingElement(m, c), kind).rep.coeffs
                    assert got == naive_reduce(basis, c)


def test_norm_data_divide_names_an_operand_that_is_not_an_element_of_its_modulus():
    norm = ideal_normalize([el(5, 1, 1)])
    with pytest.raises(PreconditionFailed, match="^an element must be a GroupRingElement, got 5$"):
        norm.divide(5)
    with pytest.raises(ModulusMismatch, match="^m=3 vs m=5$"):
        norm.divide(el(3, 1))
    with pytest.raises(ModulusMismatch, match="^m=3 vs m=5$"):
        ideal_normalize([el(5, 1, 1), el(3, 1)])


@given(elements)
def test_param_reduce_is_idempotent(x):
    for kind in FormParameterKind:
        cls = param_reduce(x, kind)
        assert param_reduce(cls.rep, kind) == cls


def _check_unit_against_det(x):
    ok, inv = is_unit(x)
    assert ok == (det_int(mult_matrix(x)) in (1, -1))
    if ok:
        assert x * inv == GroupRingElement.one(x.m)
    else:
        assert inv is None
    return ok


def test_unit_check_against_det():
    rng = random.Random(12)
    for _ in range(40):
        m = rng.randint(2, 7)
        _check_unit_against_det(
            GroupRingElement(m, [rng.randint(-2, 2) for _ in range(m)])
        )
    # augmentation +-1 passes the screen, but 2 - g (det 2^m - 1) and its
    # multiples are no units
    for m in range(2, 13):
        one, g = GroupRingElement.one(m), GroupRingElement.gen(m)
        x = one * 2 - g
        for y in (x, x * (one + g - g.conj()), -x * x, x.conj() * g):
            assert y.aug() in (1, -1)
            assert not _check_unit_against_det(y)
    # 1 - g + g^2 = Phi_6(g) vanishes at the primitive 6th roots of unity:
    # a zero divisor of augmentation 1, whose matrix is singular
    phi6 = el(6, 1, -1, 1)
    assert det_int(mult_matrix(phi6)) == 0
    assert not _check_unit_against_det(phi6)
    for m in range(2, 13):
        for k in range(1, m):
            if math.gcd(k, m) == 1:
                assert _check_unit_against_det(_bass_unit(m, k))


def _bass_unit(m, k):
    """u_k^phi(m) + ((1 - k^phi(m))/m)*s with u_k = 1 + g + ... + g^(k-1): a unit."""
    phi = sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)
    x = GroupRingElement.one(m)
    for _ in range(phi):
        x = x * GroupRingElement.geometric(m, k)
    return x + GroupRingElement.norm(m) * ((1 - k**phi) // m)


def test_is_unit_is_fast_at_wide_moduli():
    rng = random.Random(60)
    t0 = time.perf_counter()
    for m, k in ((60, 7), (100, 3)):
        x = _bass_unit(m, k) * GroupRingElement.gen(m, 3)
        ok, inv = is_unit(x)
        assert ok and x * inv == GroupRingElement.one(m)
        # g -> -1 is a ring map onto Z for even m, so a unit maps to +-1;
        # y passes the augmentation screen but not this one
        while True:
            c = [rng.randint(-2, 2) for _ in range(m)]
            c[0] += 1 - sum(c)
            if sum(c[0::2]) - sum(c[1::2]) not in (1, -1):
                break
        assert is_unit(GroupRingElement(m, c)) == (False, None)
    assert time.perf_counter() - t0 < 10.0


def _rand(rng, m, h=3):
    return GroupRingElement(m, [rng.randint(-h, h) for _ in range(m)])


def test_norm_data_divide_matches_exact_divide():
    rng = random.Random(41)
    for m in range(2, 14):
        for l in [l for l in range(1, 3 * m) if math.gcd(l, m) == 1][:6]:
            u = GroupRingElement.geometric(m, l)
            norm = ideal_normalize([u * GroupRingElement.gen(m, rng.randrange(m))])
            assert norm.u == u
            for _ in range(4):
                x = u * _rand(rng, m)
                assert norm.divide(x) == exact_divide(x, u).quotient
                y = x + _rand(rng, m, 1)
                try:
                    want = exact_divide(y, u).quotient
                except NotDivisible:
                    with pytest.raises(NotDivisible):
                        norm.divide(y)
                else:
                    assert norm.divide(y) == want
            if l > 1:
                with pytest.raises(NotDivisible):
                    norm.divide(GroupRingElement.one(m))


def test_division_by_one_minus_gen_matches_exact_divide():
    rng = random.Random(43)
    for m in range(2, 14):
        c = GroupRingElement.one(m) - GroupRingElement.gen(m)
        for _ in range(10):
            x = c * _rand(rng, m)
            res = exact_divide(x, c)
            assert res.ambiguous
            assert divide_by_one_minus_gen(x) == res.quotient
        x = GroupRingElement.one(m)
        with pytest.raises(NotDivisible):
            exact_divide(x, c)
        with pytest.raises(NotDivisible):
            divide_by_one_minus_gen(x)


def test_trivial_units_match_the_determinant_path():
    for m in range(2, 14):
        for k in range(m):
            for sign in (1, -1):
                x = GroupRingElement.gen(m, k) * sign
                ok, inv = is_unit(x)
                assert ok and det_int(mult_matrix(x)) in (1, -1)
                assert inv == exact_divide(GroupRingElement.one(m), x).quotient
                assert inv == GroupRingElement.gen(m, -k) * sign
        # 2*g has a single nonzero coefficient but is no unit
        assert is_unit(GroupRingElement.gen(m, 1) * 2) == (False, None)


def test_trusted_results_equal_public_ones():
    rng = random.Random(47)
    for m in range(2, 14):
        x, y = _rand(rng, m), _rand(rng, m)
        norm = ideal_normalize([GroupRingElement.geometric(m, 1)])
        results = [
            x * y, x + y, x - y, -x, x * 3, 3 * x, x.conj(), x.shift(rng.randrange(m)),
            GroupRingElement.geometric(m, rng.randint(0, 40)),
            param_reduce(x, FormParameterKind.TILDE).rep,
            param_reduce(x, FormParameterKind.MINUS).rep,
            norm.divide(x),
            divide_by_one_minus_gen(x - GroupRingElement.integer(m, x.aug())),
            GroupRingElement.from_json({"m": m, "coeffs": list(x.coeffs)}),
        ]
        for r in results:
            public = GroupRingElement(m, list(r.coeffs))
            assert r == public and hash(r) == hash(public)
            assert type(r.coeffs) is tuple and len(r.coeffs) == m
            assert all(type(c) is int for c in r.coeffs)


def test_from_json_accepts_integers_only():
    assert GroupRingElement.from_json({"m": 3, "coeffs": [1, -2, 0]}) == el(3, 1, -2)
    for bad in (
        {"m": 3, "coeffs": [1.7, 0, 0]},
        {"m": 3, "coeffs": [True, 0, 0]},
        {"m": 3, "coeffs": ["1", 0, 0]},
        {"m": 3, "coeffs": [1, 0]},
        {"m": 3.0, "coeffs": [1, 0, 0]},
        {"m": 1, "coeffs": [1]},
        {"coeffs": [1, 0, 0]},
        [1, 0, 0],
    ):
        with pytest.raises(PreconditionFailed):
            GroupRingElement.from_json(bad)


NOT_WHOLE = "ideal plus the norm ideal is not the whole ring"


def test_ideal_normalize_rejects_with_the_same_error():
    cases = [
        [el(5, 1, -1)],  # zero augmentation
        [el(5, 1, -1), el(5, 0, 2, -2)],  # zero augmentation, rank < m
        [el(4, 2)],  # gcd(l, m) = 2
        [el(6, 3), el(6, 1, 2)],  # gcd(l, m) = 3
        [el(5, 4), el(5, 2, -2)],  # gcd(l, m) = 1 but A lies in 2*Lambda
        [GroupRingElement.norm(4)],
    ]
    for gens in cases:
        with pytest.raises(PreconditionFailed) as info:
            ideal_normalize(gens)
        assert str(info.value) == NOT_WHOLE
    rng = random.Random(53)
    for _ in range(300):
        m = rng.randint(2, 9)
        gens = [_rand(rng, m, 2) for _ in range(rng.randint(1, 2))]
        if all(g.is_zero() for g in gens):
            continue
        whole = ideal_contains_one(gens + [GroupRingElement.norm(m)])
        try:
            norm = ideal_normalize(gens)
        except PreconditionFailed as exc:
            assert not whole and str(exc) == NOT_WHOLE
        else:
            assert whole and norm.verify()
            for g in gens:
                assert exact_divide(g, norm.u).quotient * norm.u == g


def test_constructor_validates_instead_of_coercing():
    assert GroupRingElement(3, (1, -2, 0)) == el(3, 1, -2)
    for m, coeffs in (
        (3, [1.7, True, "2"]),
        (3, [1, 0, True]),
        (3, [1, 0, 2.0]),
        (3, [1, 0]),
        (3, [1, 0, 0, 0]),
        (True, [1, 0]),
        (2.0, [1, 0]),
        (1, [1]),
        (0, []),
        (-1, []),
    ):
        with pytest.raises(PreconditionFailed):
            GroupRingElement(m, coeffs)
    for n in (1.5, True, "1"):
        with pytest.raises(PreconditionFailed):
            GroupRingElement.integer(3, n)
    # the message names a rejected value by its type or size, never echoes it
    with pytest.raises(PreconditionFailed) as info:
        GroupRingElement.integer(3, "x" * 100000)
    assert str(info.value) == "an integer must be an int, got a 100000-character string"
    with pytest.raises(PreconditionFailed):
        GroupRingElement.norm(1)
    # zero and one are one shared instance per modulus, which is still checked
    assert GroupRingElement.zero(4) is GroupRingElement.zero(4) == el(4)
    assert GroupRingElement.one(4) is GroupRingElement.one(4) == el(4, 1)
    for m in (True, 2.0, 1, [2], "2"):
        for make in (GroupRingElement.zero, GroupRingElement.one):
            with pytest.raises(PreconditionFailed):
                make(m)


def test_division_errors_report_bits_past_the_digit_limit():
    # repr of a 5,000-digit coefficient passes the int-to-string digit
    # limit; each error must still come out as the named error
    huge = 10**5000 + 1
    with pytest.raises(NotDivisible, match="16610-bit"):
        exact_divide(GroupRingElement(2, [huge, 0]), GroupRingElement(2, [2, 0]))
    with pytest.raises(NotDivisible):
        divide_by_one_minus_gen(GroupRingElement(3, [huge, 0, 0]))
    norm = ideal_normalize([el(5, 1, 1)])
    with pytest.raises(NotDivisible):
        norm.divide(GroupRingElement(5, [huge, 0, 0, 0, 0]))
    # l = 10^5000 + 1 is prime to 3, but (l) + (s) is not the whole ring
    with pytest.raises(PreconditionFailed, match="not the whole ring"):
        ideal_normalize([GroupRingElement(3, [huge, 0, 0])])


def test_ideal_normalize_accepts_exactly_the_ideals_prime_to_the_norm():
    # generators u_l * w_i are accepted iff the w_i generate the unit
    # ideal; mixed with random ones, over a quarter of the ideals are accepted
    rng = random.Random(59)
    accepted = 0
    for _ in range(400):
        m = rng.randint(2, 12)
        gens = [_rand(rng, m, 2) for _ in range(rng.randint(1, 2))]
        if rng.randrange(4):
            l = rng.choice([l for l in range(1, 2 * m) if math.gcd(l, m) == 1])
            gens = [GroupRingElement.geometric(m, l) * w for w in gens]
        if all(w.is_zero() for w in gens):
            continue
        s = GroupRingElement.norm(m)
        if not ideal_contains_one(gens + [s]):
            with pytest.raises(PreconditionFailed, match=NOT_WHOLE):
                ideal_normalize(gens)
            continue
        accepted += 1
        # the fields follow from l alone: b*l = -1 mod m with 0 < b <= m,
        # a = (1 + b*l)/m and v = -g*(1 + g^l + ... + g^((b-1)l))
        l = math.gcd(*(w.aug() for w in gens))
        b = next(b for b in range(1, m + 1) if (b * l + 1) % m == 0)
        v = GroupRingElement.zero(m)
        for j in range(b):
            v = v - GroupRingElement.gen(m, 1 + j * l)
        want = NormData(GroupRingElement.geometric(m, l), v, l, (1 + b * l) // m, b)
        assert ideal_normalize(gens) == want
    assert accepted >= 100


def test_modulus_errors_report_bits_past_the_digit_limit():
    # str of a 5,000-digit modulus passes the int-to-string digit limit;
    # the error must still be PreconditionFailed, with the size in bits
    huge = 10**5000
    with pytest.raises(PreconditionFailed, match="negative 16610-bit"):
        GroupRingElement(-huge, [])
    with pytest.raises(PreconditionFailed, match="length <16610-bit"):
        GroupRingElement(huge, [])
    with pytest.raises(PreconditionFailed, match="16610-bit"):
        GroupRingElement.norm(-huge)
    # small moduli are still reported by value
    with pytest.raises(PreconditionFailed, match="got -3$"):
        GroupRingElement(-3, [])
    with pytest.raises(PreconditionFailed, match="length 3$"):
        GroupRingElement(3, [1])


def _operand(rng, m, shape):
    """A coefficient tuple of the given sparsity: monomial, sparse or dense."""
    c = [0] * m
    if shape == "zero":
        return tuple(c)
    if shape in ("one", "monomial", "integer"):
        k = 0 if shape != "monomial" else rng.randrange(m)
        c[k] = 1 if shape == "one" else rng.choice([-1, 1, -3, 2, 7])
        return tuple(c)
    if shape == "sparse":
        for k in rng.sample(range(m), rng.randint(2, max(2, m // 2))):
            c[k] = rng.choice([-2, -1, 1, 3])
        return tuple(c)
    bound = 2**80 if shape == "wide" else 4
    return tuple(rng.randint(-bound, bound) for _ in range(m))


def test_product_matches_the_plain_convolution_on_every_sparsity():
    # the kernel rotates and scales by a monomial factor when exactly one
    # pair is live; each pairing of operand shapes, both ways round, alone,
    # beside pairs with a zero factor and beside a second live pair
    shapes = ("zero", "one", "integer", "monomial", "sparse", "dense", "wide")
    rng = random.Random(67)
    for m in range(2, 14):
        zero = (0,) * m
        for sx in shapes:
            for sy in shapes:
                for _ in range(2):
                    xs, ys = _operand(rng, m, sx), _operand(rng, m, sy)
                    want = poly_mul_fold(m, xs, ys)
                    got = GroupRingElement(m, xs) * GroupRingElement(m, ys)
                    assert got.coeffs == want, (m, sx, sy)
                    assert type(got.coeffs) is tuple and len(got.coeffs) == m
                    dense = _operand(rng, m, "dense")
                    dead = [(zero, dense), (xs, ys), (dense, zero), (zero, zero)]
                    assert _dot_coeffs(m, dead) == want, (m, sx, sy)
                    us, vs = _operand(rng, m, "sparse"), _operand(rng, m, "monomial")
                    both = tuple(map(add, want, poly_mul_fold(m, us, vs)))
                    assert _dot_coeffs(m, [(xs, ys), (us, vs)]) == both, (m, sx, sy)
                    assert _dot_coeffs(m, [(us, vs), (xs, ys)]) == both, (m, sx, sy)


def _oracle_sum(m, pairs):
    out = (0,) * m
    for a, b in pairs:
        out = tuple(map(add, out, poly_mul_fold(m, a, b)))
    return out


def test_kernel_matches_the_oracle_on_both_sides_of_the_straight_line_cap():
    # 0-9 live pairs cross the 4-pair chunk boundaries at 4 and 8, with dead
    # pairs mixed in; m runs past the cap into the window loop
    shapes = ("one", "integer", "monomial", "sparse", "dense", "wide")
    rng = random.Random(24)
    for m in range(2, 25):
        zero = (0,) * m
        for live in range(10):
            for _ in range(2):
                pairs = [
                    tuple(_operand(rng, m, rng.choice(shapes)) for _ in "ab")
                    for _ in range(live)
                ]
                want = _oracle_sum(m, pairs)
                for _ in range(rng.randint(0, 3)):
                    dead = (zero, _operand(rng, m, rng.choice(shapes)))
                    pairs.insert(rng.randint(0, len(pairs)), dead[:: rng.choice((1, -1))])
                got = _dot_coeffs(m, iter(pairs))
                assert got == want, (m, live)
                assert type(got) is tuple and len(got) == m


def test_straight_line_kernels_stay_bounded():
    # one compiled function per (m, chunk size): 11 moduli times 4 sizes,
    # all held at once, and nothing above the cap
    _straight.cache_clear()
    rng = random.Random(2401)
    for m in range(2, STRAIGHT_MAX_M + 1):
        for k in range(1, 13):
            pairs = [
                (_operand(rng, m, "dense"), _operand(rng, m, "wide")) for _ in range(k)
            ]
            assert _dot_coeffs(m, pairs) == _oracle_sum(m, pairs), (m, k)
    info = _straight.cache_info()
    assert info.currsize == info.misses == info.maxsize == (STRAIGHT_MAX_M - 1) * 4
    for m in (STRAIGHT_MAX_M + 1, 16, 17, 31):
        for k in range(1, 13):
            pairs = [
                (_operand(rng, m, "sparse"), _operand(rng, m, "dense")) for _ in range(k)
            ]
            assert _dot_coeffs(m, pairs) == _oracle_sum(m, pairs), (m, k)
    assert _straight.cache_info().misses == info.misses


def test_parameter_classes_add_only_to_classes_of_their_kind():
    m = 4
    one = GroupRingElement.one(m)
    tilde = param_reduce(one, FormParameterKind.TILDE)
    minus = param_reduce(one, FormParameterKind.MINUS)
    g2 = param_reduce(GroupRingElement.gen(m, 2), FormParameterKind.TILDE)
    assert tilde + g2 == g2 and (g2 + g2).is_zero()
    with pytest.raises(PreconditionFailed, match="TILDE class and a MINUS class"):
        tilde + minus
    with pytest.raises(TypeError):
        tilde + 1
    with pytest.raises(TypeError):
        1 + tilde


def test_param_reduce_names_a_kind_that_is_not_a_form_parameter_kind():
    # a str kind used to fall through to the PLUS rule: the TILDE class of 1
    # is 0, yet "TILDE" gave rep 1
    one = GroupRingElement.one(3)
    for kind, named in (("TILDE", "a 5-character string"), (None, "a NoneType"), (0, "0")):
        with pytest.raises(PreconditionFailed, match=f"^a form parameter kind must be a FormParameterKind, got {named}$"):
            param_reduce(one, kind)
    assert param_reduce(one, FormParameterKind.TILDE).is_zero()


def test_norm_data_verify_answers_false_on_malformed_fields():
    m = 3
    one, zero = GroupRingElement.one(m), GroupRingElement.zero(m)
    # l = -1 passes the gcd and Bezout checks; l = 1.0 is not an int
    assert NormData(one, zero, -1, 0, 1).verify() is False
    assert NormData(one, zero, 1.0, 1, 2).verify() is False
    assert NormData(one, zero, 0, 1, 1).verify() is False
    assert NormData(one, zero, True, 1, 2).verify() is False
    assert NormData(one, zero, 1, 1.0, 2).verify() is False
    assert NormData(one, zero, 1, 1, 2.0).verify() is False
    # every key the normalization can ask for still builds verified data
    for m in range(2, 17):
        for l in range(1, 3 * m):
            if math.gcd(l, m) == 1:
                assert _norm_data(m, l).verify(), (m, l)


def test_elements_copy_and_pickle_through_the_constructor():
    for x in (GroupRingElement.one(3), el(5, 2, -1, 0, 7), el(4, 2**90, -3)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is GroupRingElement and y == x and hash(y) == hash(x)
        # the state is rebuilt by the public constructor, which validates
        assert x.__reduce__() == (GroupRingElement, (x.m, x.coeffs))


def _zero_divisor_multiples(rng, m):
    """One multiple Phi_d * r, folded into Z[Z/m], for each d | m."""
    for d in range(1, m + 1):
        if m % d == 0:
            phi = [0] * m
            for i, a in enumerate(cyclotomic(d)):
                phi[i % m] += a
            yield d, poly_mul_fold(m, phi, _rand(rng, m).coeffs)


# the even-m halving (2, 4, 8, 16, 32), the odd-prime split (3, 5, 7, 11, 13,
# 15, 21, 35), the Faddeev-LeVerrier level at a repeated prime (9, 25, 27,
# 49, 81, 125) and their mixes, such as 18 -> 9, 45 -> 9, 50 -> 25,
# 75 -> 25 and 100 -> 50 -> 25
ADJUGATE_MODULI = list(range(2, 41)) + [45, 49, 50, 63, 75, 81, 100, 125]


def test_the_adjugate_is_the_determinant_over_the_element():
    rng = random.Random(2704)
    for m in ADJUGATE_MODULI:
        for _ in range(4 if m <= 40 else 1):
            c = _rand(rng, m).coeffs
            d, y = _adjugate(c)
            assert d == det_int(mult_matrix(GroupRingElement(m, c)))
            if d:
                assert poly_mul_fold(m, c, y) == (d,) + (0,) * (m - 1)
            else:
                assert y is None
        # s and 1 - g are zero divisors; a trivial unit has d = +-1
        assert _adjugate(GroupRingElement.norm(m).coeffs) == (0, None)
        assert _adjugate((GroupRingElement.one(m) - GroupRingElement.gen(m)).coeffs) == (0, None)
        d, y = _adjugate(GroupRingElement.gen(m, 1).coeffs)
        assert d in (1, -1) and GroupRingElement(m, y) == d * GroupRingElement.gen(m, -1)
        # Phi_d vanishes at the primitive d-th roots of unity, so every
        # multiple of it is a zero divisor
        for d, c in _zero_divisor_multiples(rng, m):
            assert _adjugate(c) == (0, None), (m, d)
    # coefficients near 2^90 take the same walk
    for m in (6, 7, 12, 45):
        c = tuple(2**90 + rng.randint(-(2**40), 2**40) * k for k in range(m))
        d, y = _adjugate(c)
        assert d == det_int(mult_matrix(GroupRingElement(m, c))) != 0
        assert poly_mul_fold(m, c, y) == (d,) + (0,) * (m - 1)


def test_the_adjugate_runs_no_elimination(monkeypatch):
    # every modulus walks the tower down to m = 1 with ring products alone:
    # no multiplication matrix is built and no determinant eliminated
    def no_elimination(*args):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(groupring, "mult_matrix", no_elimination)
    monkeypatch.setattr(intlattice, "det_int", no_elimination)
    rng = random.Random(30)
    moduli = list(range(2, 10)) + [10, 12, 18, 21, 25, 27, 30, 45, 49, 50, 63, 75, 81, 100, 125, 201]
    for m in moduli:
        for _ in range(3):
            c = _rand(rng, m).coeffs
            d, y = _adjugate(c)
            if m <= 30:
                assert d == det_int(mult_matrix(GroupRingElement(m, c)))
            assert (y is None) if d == 0 else poly_mul_fold(m, c, y) == (d,) + (0,) * (m - 1)
        for _, c in _zero_divisor_multiples(rng, m):
            assert _adjugate(c) == (0, None), m


@pytest.mark.parametrize(
    "call",
    [
        lambda: ideal_contains_one([GroupRingElement.one(3), 5]),
        lambda: ideal_normalize([5]),
        lambda: ideal_express([5], GroupRingElement.one(3)),
        lambda: ideal_express([GroupRingElement.one(3)], 5),
        lambda: is_unit(5),
        lambda: exact_divide(GroupRingElement.one(3), 2),
        lambda: exact_divide(5, GroupRingElement.one(3)),
        lambda: mult_matrix(5),
    ],
    ids=[
        "ideal_contains_one",
        "ideal_normalize",
        "ideal_express-generator",
        "ideal_express-target",
        "is_unit",
        "exact_divide-divisor",
        "exact_divide-dividend",
        "mult_matrix",
    ],
)
def test_ideal_and_unit_functions_name_an_argument_that_is_not_an_element(call):
    # each raised a bare AttributeError reading .m or .coeffs
    with pytest.raises(PreconditionFailed, match="^an element must be a GroupRingElement, got [25]$"):
        call()
