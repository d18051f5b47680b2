import random

import pytest

from cyclact.intlattice import ZLattice, cramer_solve, det_int, row_hnf_transform

from oracles import element_shifts, fraction_det, naive_hnf, transform_certifies


def _random_rows(rng, k, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(k)]


def test_row_hnf_transform_is_unimodular_row_equivalence():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(1, 6)
        rows = _random_rows(rng, k, n)
        H, U, pivots = row_hnf_transform(rows, n)
        assert len(U) == k and all(len(r) == k for r in U)
        assert fraction_det(U) in (1, -1)
        for i in range(k):
            got = [sum(U[i][j] * rows[j][c] for j in range(k)) for c in range(n)]
            assert got == list(H[i])
        assert pivots == sorted(pivots)


def _shift_rows(rng, m, count):
    rows = []
    for _ in range(count):
        rows += element_shifts(m, [rng.randint(-3, 3) for _ in range(m)])
    return rows


def test_transform_certifies_and_transform_free_call_agrees():
    rng = random.Random(17)
    cases = [(_random_rows(rng, rng.randint(1, 7), n), n) for n in range(1, 7)]
    cases += [(_shift_rows(rng, m, rng.randint(1, 3)), m) for m in range(2, 14)]
    for rows, n in cases:
        H, U, pivots = row_hnf_transform(rows, n)
        assert transform_certifies(rows, H, U)
        H2, U2, pivots2 = row_hnf_transform(rows, n, transform=False)
        assert (H2, pivots2) == (H, pivots)
        assert U2 == []
    # a wrong transform is caught
    rows = [[2, 1], [4, 3]]
    H, U, _ = row_hnf_transform(rows, 2)
    assert not transform_certifies(rows, H, [[1, 0], [0, 1]])
    assert not transform_certifies(rows, H, [[2 * a for a in r] for r in U])


def test_transform_bits_stay_linear_in_m_on_ideal_lattices():
    # 3m x m lattices of three-generator ideals over Z[Z/m]; the largest U
    # entry measured over 120 such lattices per m was 9.9*m bits (m = 13)
    rng = random.Random(29)
    for m in range(2, 14):
        for _ in range(4):
            rows = _shift_rows(rng, m, 3)
            H, U, _ = row_hnf_transform(rows, m)
            assert max(abs(x).bit_length() for r in U for x in r) <= 24 * m
            assert transform_certifies(rows, H, U)


def test_transform_free_lattice_answers_membership_only():
    rows = [[2, 0], [0, 3], [2, 3]]
    lat = ZLattice(rows, 2, transform=False)
    full = ZLattice(rows, 2)
    assert lat.basis() == full.basis() and lat.rank == full.rank == 2
    assert lat.contains([4, 3]) and not lat.contains([1, 0])
    assert lat.reduce([5, 7]) == full.reduce([5, 7])
    with pytest.raises(ValueError):
        lat.express([2, 0])
    with pytest.raises(ValueError):
        lat.kernel()


def test_lattice_basis_matches_naive_hnf():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        k = rng.randint(1, 7)
        rows = _random_rows(rng, k, n)
        lat = ZLattice(rows, n)
        oracle = naive_hnf(rows, n)
        # both spans must contain each other's basis vectors
        for v in oracle:
            assert lat.contains(list(v))
        assert ZLattice([list(v) for v in oracle] or [[0] * n], n).rank == lat.rank
        for v in lat.basis():
            direct = naive_hnf([list(v)] + [list(w) for w in oracle], n)
            assert direct == oracle


def test_contains_and_express_roundtrip():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = _random_rows(rng, rng.randint(1, 5), n, -4, 4)
        lat = ZLattice(rows, n)
        combo = [rng.randint(-3, 3) for _ in rows]
        target = [sum(c * r[j] for c, r in zip(combo, rows)) for j in range(n)]
        assert lat.contains(target)
        coeffs = lat.express(target)
        assert coeffs is not None
        rebuilt = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        assert rebuilt == target


def test_express_rejects_outside_vectors():
    lat = ZLattice([[2, 0], [0, 2]], 2)
    assert lat.express([1, 0]) is None
    assert not lat.contains([1, 1])
    assert lat.contains([2, -4])


def test_kernel_rows_are_left_null_vectors():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(1, 6)
        rows = _random_rows(rng, k, n, -5, 5)
        ker = ZLattice(rows, n).kernel()
        for comb in ker:
            assert len(comb) == k
            image = [sum(c * r[j] for c, r in zip(comb, rows)) for j in range(n)]
            assert image == [0] * n
        # kernel rank + row-space rank = number of rows
        assert len(ker) + ZLattice(rows, n).rank == k


def test_same_lattice_detects_equality_and_difference():
    a = ZLattice([[1, 2], [0, 3]], 2)
    b = ZLattice([[1, 5], [0, 3], [1, 2]], 2)
    c = ZLattice([[1, 2], [0, 6]], 2)
    assert a.same_lattice(b)
    assert not a.same_lattice(c)


def test_det_int_matches_fraction_gaussian():
    rng = random.Random(77)
    for _ in range(80):
        n = rng.randint(1, 6)
        rows = _random_rows(rng, n, n, -7, 7)
        assert det_int(rows) == fraction_det(rows)


def test_det_int_rejects_nonsquare():
    with pytest.raises(ValueError):
        det_int([[1, 2, 3], [4, 5, 6]])


def test_cramer_solve_scales_the_solution_by_the_determinant():
    # det_int's elimination, carrying the right-hand side: A*y = det(A)*b
    rng = random.Random(83)
    solved = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = _random_rows(rng, n, n, -7, 7)
        if rng.randrange(3) == 0:
            # a zero leading entry forces a row swap
            rows[0][0] = 0
        b = [rng.randint(-40, 40) for _ in range(n)]
        det = fraction_det(rows)
        if det == 0:
            with pytest.raises(ValueError):
                cramer_solve(rows, b)
            continue
        d, y = cramer_solve(rows, b)
        assert d == det
        assert [sum(r[j] * y[j] for j in range(n)) for r in rows] == [d * c for c in b]
        solved += 1
    assert solved > 150
    with pytest.raises(ValueError):
        cramer_solve([[1, 2, 3], [4, 5, 6]], [1, 2])
    with pytest.raises(ValueError):
        cramer_solve([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError):
        cramer_solve([[1, 2], [2, 4]], [1, 1])


def test_identity_heavy_rows_keep_the_transform_and_the_form():
    # rows that are mostly unit vectors, with a few dense rows, zero rows
    # and repeats: the row updates touch only the pivot row's nonzero
    # entries, so a skipped entry would show in U, H or the pivots
    rng = random.Random(71)
    for _ in range(150):
        n = rng.randint(1, 9)
        rows = []
        for i in rng.sample(range(n), rng.randint(1, n)):
            rows.append([rng.choice([1, -1, 1, 2, -3]) if j == i else 0 for j in range(n)])
        rows += _random_rows(rng, rng.randint(0, 3), n, -40, 40)
        rows += [list(r) for r in rng.sample(rows, min(2, len(rows)))]
        rows += [[0] * n for _ in range(rng.randint(0, 2))]
        rng.shuffle(rows)
        before = [list(r) for r in rows]
        k = len(rows)
        H, U, pivots = row_hnf_transform(rows, n)
        assert rows == before
        assert transform_certifies(rows, H, U)
        assert abs(fraction_det(U)) == 1 and len(U) == k
        for i in range(k):
            got = [sum(U[i][j] * rows[j][c] for j in range(k)) for c in range(n)]
            assert got == list(H[i])
        H2, U2, pivots2 = row_hnf_transform(rows, n, transform=False)
        assert (H2, pivots2, U2) == (H, pivots, [])
        assert tuple(tuple(r) for r in H[: len(pivots)]) == naive_hnf(rows, n)
