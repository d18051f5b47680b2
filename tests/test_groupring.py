import math
import random
import re
import time
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclact.errors import Degenerate, NotDivisible, PreconditionFailed
from cyclact.groupring import (
    FormParameterKind,
    GroupRingElement,
    NormData,
    _dot_coeffs,
    augmentation,
    divide_by_one_minus_gen,
    exact_divide,
    ideal_contains_one,
    ideal_normalize,
    involution,
    is_unit,
    mult_matrix,
    param_reduce,
    ring_mul,
)
from cyclact.intlattice import det_int

from oracles import conj_coeffs, ideal_hnf, naive_hnf, naive_reduce, poly_mul_fold


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
