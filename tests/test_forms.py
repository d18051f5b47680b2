import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclact.complement import (
    Branch,
    EmbeddingSpec,
    TraceStep,
    _branch_module,
    _shear_step,
    sample_spec,
    solve,
)
from cyclact.errors import (
    BadIndex,
    DimensionMismatch,
    ModulusMismatch,
    NotComplement,
    PreconditionFailed,
    RankTooLarge,
    ZeroVector,
)
from cyclact.forms import (
    _gram_and_mu,
    _gram_matrix,
    _label_index,
    _parse_label,
    QuadraticModule,
    RingMatrix,
    RingVector,
    is_primitive,
    isometry_check,
    isometry_inverse,
    lambda_eval,
    mu_eval,
    ring_det,
    transvection,
    verify_lagrangian_complement,
)
from cyclact.groupring import (
    FormParameterKind,
    GroupRingElement,
    NormData,
    _norm_data,
    param_reduce,
)

from oracles import (
    conj_coeffs,
    dense_ring_matmul,
    gram_inverse,
    in_form_parameter,
    is_isometry,
    leibniz_det,
    poly_mul_fold,
)


def el(m, *coeffs):
    c = list(coeffs) + [0] * (m - len(coeffs))
    return GroupRingElement(m, c)


def rand_el(rng, m, h=2):
    return GroupRingElement(m, [rng.randint(-h, h) for _ in range(m)])


def tilde(m, rank=2):
    return QuadraticModule(m, rank, -1, FormParameterKind.TILDE)


def minus(m, rank=2):
    return QuadraticModule(m, rank, 1, FormParameterKind.MINUS)


def test_module_validates_sign_parameter_pairing():
    QuadraticModule(4, 2, -1, FormParameterKind.TILDE)
    QuadraticModule(4, 2, -1, FormParameterKind.PLUS)
    QuadraticModule(4, 2, 1, FormParameterKind.MINUS)
    with pytest.raises(PreconditionFailed):
        QuadraticModule(4, 2, 1, FormParameterKind.TILDE)
    with pytest.raises(PreconditionFailed):
        QuadraticModule(4, 2, -1, FormParameterKind.MINUS)
    with pytest.raises(PreconditionFailed):
        QuadraticModule(4, 0, -1, FormParameterKind.TILDE)
    for m in (1, 2.0, True):
        with pytest.raises(PreconditionFailed, match="^modulus must be an integer >= 2"):
            QuadraticModule(m, 2, -1, FormParameterKind.TILDE)


def test_basis_vectors_and_labels():
    Q = tilde(3)
    assert Q.e(1) == Q.vector({"e1": el(3, 1)})
    assert Q.f(2) == Q.vector({"f2": el(3, 1)})
    with pytest.raises(BadIndex):
        Q.vector({"e3": el(3, 1)})
    with pytest.raises(BadIndex):
        Q.vector({"x1": el(3, 1)})
    # e1..e16 and f1..f16 come from a table and any other label is parsed:
    # both routes give the same index or raise the same error
    labels = ["e1", "f2", "e16", "f17", "e01", "f002", "e0", "g1", "e", "E1", "e1 ",
              "e" + "9" * 5000, ["e1"]]
    for rank in (1, 2, 16, 17):
        for label in labels:
            try:
                want = _parse_label(label, rank)
            except BadIndex as exc:
                with pytest.raises(BadIndex, match=f"^{re.escape(str(exc))}$"):
                    _label_index(label, rank)
            else:
                assert _label_index(label, rank) == want


def test_lambda_on_basis_pairs():
    Q = tilde(3)
    one = GroupRingElement.one(3)
    assert lambda_eval(Q, Q.e(1), Q.f(1)) == one
    assert lambda_eval(Q, Q.f(1), Q.e(1)) == -one
    assert lambda_eval(Q, Q.e(1), Q.f(2)).is_zero()
    assert lambda_eval(Q, Q.e(1), Q.e(2)).is_zero()
    P = minus(3)
    assert lambda_eval(P, Q.f(1), Q.e(1)) == one


def test_gram_matrix_is_the_standard_block_form():
    Q = tilde(2, rank=2)
    G = Q.gram_matrix()
    one = GroupRingElement.one(2)
    for i in range(2):
        assert G.rows[i][2 + i] == one
        assert G.rows[2 + i][i] == -one
    zero_positions = sum(
        1 for r in range(4) for c in range(4) if G.rows[r][c].is_zero()
    )
    assert zero_positions == 12


def test_lambda_sesquilinearity_random():
    rng = random.Random(4)
    for m, Q in ((3, tilde(3)), (4, tilde(4)), (5, minus(5))):
        for _ in range(20):
            x = RingVector([rand_el(rng, m) for _ in range(Q.dim)])
            y = RingVector([rand_el(rng, m) for _ in range(Q.dim)])
            c = rand_el(rng, m)
            assert lambda_eval(Q, x.scaled(c), y) == c * lambda_eval(Q, x, y)
            assert lambda_eval(Q, x, y.scaled(c)) == lambda_eval(Q, x, y) * c.conj()
            assert lambda_eval(Q, y, x) == lambda_eval(Q, x, y).conj() * Q.eps


def test_mu_of_rank_one_combination_is_the_product_class():
    rng = random.Random(8)
    for m in (2, 3, 4, 5, 6):
        Q = tilde(m)
        for _ in range(30):
            a = rand_el(rng, m)
            b = rand_el(rng, m)
            v = Q.vector({"e2": a, "f2": b})
            assert mu_eval(Q, v) == param_reduce(a * b.conj(), Q.kind)


def test_mu_norm_pairing_parity():
    # [v * s] is [g^(m/2)] exactly when the augmentation of v is odd
    for m in (2, 4, 6):
        Q = tilde(m)
        s = GroupRingElement.norm(m)
        target = param_reduce(GroupRingElement.gen(m, m // 2), Q.kind)
        for coeffs in ([1], [0, 1], [1, 1], [2, 1], [1, -2]):
            v = el(m, *coeffs)
            got = mu_eval(Q, Q.vector({"e2": v, "f2": s}))
            if v.aug() % 2 == 1:
                assert got == target
            else:
                assert got.is_zero()
    for m in (3, 5):
        Q = tilde(m)
        s = GroupRingElement.norm(m)
        for coeffs in ([1], [1, 1], [2, -1, 1]):
            v = el(m, *coeffs)
            assert mu_eval(Q, Q.vector({"e2": v, "f2": s})).is_zero()


def test_is_primitive():
    Q = tilde(5)
    assert is_primitive(Q, Q.e(1))
    assert is_primitive(Q, Q.vector({"e1": el(5, 2), "f2": el(5, 1, 1, 1)}))
    assert not is_primitive(Q, Q.vector({"e1": el(5, 2), "f1": el(5, 0, 2)}))
    with pytest.raises(ZeroVector):
        is_primitive(Q, Q.zero_vector())


def test_transvection_r_shape_entries():
    # base (e1, f2): identity plus r at [e1][e2] and -conj(r) at [f2][f1]
    m = 4
    Q = tilde(m)
    r = el(m, 1, 2, 0, -1)
    M = transvection(Q, ("e1", "f2"), r)
    assert M.rows[0][1] == r
    assert M.rows[3][2] == -r.conj()
    I = RingMatrix.identity(4, m)
    diffs = sum(
        1
        for i in range(4)
        for j in range(4)
        if M.rows[i][j] != I.rows[i][j]
    )
    assert diffs == 2
    assert isometry_check(Q, M)


def test_transvection_t_shape_entries():
    # base (e2, f1): identity plus t at [e1][f2] and conj(t) at [e2][f1]
    # for the skew sign; both completed columns stay isotropic
    m = 4
    Q = tilde(m)
    t = el(m, 2, -1)
    M = transvection(Q, ("e2", "f1"), t)
    assert M.rows[0][3] == t
    assert M.rows[1][2] == t.conj()
    assert isometry_check(Q, M)


def test_transvection_inverse_and_composition():
    rng = random.Random(15)
    for m in (3, 4):
        Q = tilde(m)
        for base in (("e1", "f2"), ("e2", "f1")):
            c = rand_el(rng, m)
            d = rand_el(rng, m)
            M = transvection(Q, base, c)
            N = transvection(Q, base, d)
            assert M * N == transvection(Q, base, c + d)
            assert M * transvection(Q, base, -c) == RingMatrix.identity(Q.dim, m)


def test_isometry_inverse_of_a_cross_transvection_negates_its_parameter():
    # the even-m solver's shears T and R are pulled back this way
    rng = random.Random(16)
    for m in range(2, 9):
        for Q in (tilde(m), minus(m)):
            for base in (("e1", "f2"), ("e2", "f1")):
                c = rand_el(rng, m)
                M = transvection(Q, base, c)
                assert isometry_check(Q, M)
                assert isometry_inverse(Q, M) == transvection(Q, base, -c)


def test_transvection_shear_requires_admissible_parameter():
    m = 4
    Q = tilde(m)
    # c = g + g^3 is symmetric, so conj(c) = -eps*c holds, and its class
    # vanishes in the TILDE quotient
    c = el(m, 0, 1, 0, 1)
    M = transvection(Q, ("e1", "f1"), c)
    assert isometry_check(Q, M)
    assert M.rows[0][2] == -c
    # g is not symmetric; g^2 is symmetric but its class is nonzero
    with pytest.raises(PreconditionFailed):
        transvection(Q, ("e1", "f1"), el(m, 0, 1))
    with pytest.raises(PreconditionFailed):
        transvection(Q, ("e1", "f1"), el(m, 0, 0, 1))
    with pytest.raises(BadIndex):
        transvection(Q, ("e1", "e2"), c)
    with pytest.raises(BadIndex):
        transvection(Q, ("f1", "e2"), c)


def _sparse_entry(rng, m):
    """Zero, a signed monomial c*g^k or a dense element, in equal shares."""
    kind = rng.randrange(3)
    if kind == 0:
        return GroupRingElement.zero(m)
    if kind == 1:
        return rng.choice((-2, -1, 1, 3)) * GroupRingElement.gen(m, rng.randrange(m))
    return rand_el(rng, m, 2)


def test_ring_det_matches_leibniz():
    rng = random.Random(6)
    for _ in range(25):
        m = rng.randint(2, 5)
        n = rng.randint(1, 4)
        M = RingMatrix(
            [[rand_el(rng, m, 2) for _ in range(n)] for _ in range(n)]
        )
        want = leibniz_det(
            M.rows, GroupRingElement.zero(m), GroupRingElement.one(m)
        )
        assert ring_det(M) == want
    # sparse and singular inputs up to rank 6: each memoized cofactor
    # expansion is one kernel call that skips zero entries and zero minors
    cases = []
    for _ in range(12):
        m = rng.randint(2, 7)
        n = rng.randint(1, 6)
        rows = [[_sparse_entry(rng, m) for _ in range(n)] for _ in range(n)]
        shape = rng.randrange(3)
        if shape == 1:  # a zero row
            rows[rng.randrange(n)] = [GroupRingElement.zero(m)] * n
        elif shape == 2 and n > 1:  # singular: one row repeats another
            i, j = rng.sample(range(n), 2)
            rows[i] = list(rows[j])
        cases.append(RingMatrix(rows))
    # a monomial permutation matrix at rank 6: one live term per expansion
    m = 5
    perm = rng.sample(range(6), 6)
    cases.append(RingMatrix([
        [GroupRingElement.gen(m, i + 2) * -1 if j == perm[i] else GroupRingElement.zero(m)
         for j in range(6)]
        for i in range(6)
    ]))
    # the certificate shape [e1, v2, U0, U1] of solved specs on every branch
    for branch, m in ((Branch.ODD_M_SKEW, 5), (Branch.EVEN_M_SKEW, 4), (Branch.EVEN_N_SYM, 6)):
        for _ in range(3):
            cert = solve(sample_spec(branch, m, rng)).certificate
            cases.append(RingMatrix.from_columns(list(cert.S) + list(cert.U)))
    singular = 0
    for M in cases:
        want = leibniz_det(M.rows, GroupRingElement.zero(M.m), GroupRingElement.one(M.m))
        assert ring_det(M) == want
        singular += want.is_zero()
    assert singular > 0


def test_ring_det_rejects_ranks_above_the_memo_bound():
    # the rank check runs before any minor is memoized: a dense rank-17
    # matrix would need 2^17 minors
    m = 3
    one = GroupRingElement.one(m)
    M = RingMatrix([[one] * 17 for _ in range(17)])
    with pytest.raises(RankTooLarge):
        ring_det(M)


def test_transvection_rejects_ranks_above_the_label_table(monkeypatch):
    # the matrix is dense, 2r x 2r: rank 16, the last with canonical labels,
    # still gives an isometry, and rank 17 raises before any matrix is built
    m = 3
    c = el(m, 1, -1)
    Q = QuadraticModule(m, 16, -1, FormParameterKind.TILDE)
    assert isometry_check(Q, transvection(Q, ("e1", "f16"), c))

    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(RingMatrix, "identity", staticmethod(no_matrix))
    Q = QuadraticModule(m, 17, -1, FormParameterKind.TILDE)
    with pytest.raises(RankTooLarge):
        transvection(Q, ("e1", "f2"), c)


def _coeff_rows(rows):
    return [[x.coeffs for x in r] for r in rows]


def test_matrix_products_match_the_dense_reference():
    rng = random.Random(29)
    for m in range(2, 14):
        for n in (1, 2, 3, 4):
            def sparse_matrix():
                rows = [
                    [rand_el(rng, m) if rng.randrange(3) else GroupRingElement.zero(m)
                     for _ in range(n)]
                    for _ in range(n)
                ]
                rows[rng.randrange(n)] = [GroupRingElement.zero(m)] * n
                return RingMatrix(rows)

            A, B = sparse_matrix(), sparse_matrix()
            got = A * B
            assert _coeff_rows(got.rows) == dense_ring_matmul(
                m, _coeff_rows(A.rows), _coeff_rows(B.rows)
            )
            v = RingVector(
                [rand_el(rng, m) if rng.randrange(2) else GroupRingElement.zero(m)
                 for _ in range(n)]
            )
            want = dense_ring_matmul(m, _coeff_rows(A.rows), [[c.coeffs] for c in v.coords])
            assert [c.coeffs for c in (A * v).coords] == [r[0] for r in want]
    zero = RingMatrix([[GroupRingElement.zero(4)]])
    with pytest.raises(ModulusMismatch):
        zero * RingVector([GroupRingElement.zero(5)])
    with pytest.raises(ModulusMismatch):
        zero * RingMatrix([[GroupRingElement.one(5)]])


def test_det_identity_for_the_skew_complement_matrix():
    # det of [[1, a1, 0, -a], [0, uv, -a, 0], [0, s, 1, 0], [0, us, 0, 1]]
    # equals u*v + a*s for arbitrary u, v, a1 and integer a
    rng = random.Random(44)
    for _ in range(30):
        m = rng.randint(2, 6)
        u, v, a1 = rand_el(rng, m), rand_el(rng, m), rand_el(rng, m)
        a = rng.randint(-3, 3)
        s = GroupRingElement.norm(m)
        one = GroupRingElement.one(m)
        zero = GroupRingElement.zero(m)
        a_el = GroupRingElement.integer(m, a)
        M = RingMatrix(
            [
                [one, a1, zero, -a_el],
                [zero, u * v, -a_el, zero],
                [zero, s, one, zero],
                [zero, u * s, zero, one],
            ]
        )
        assert ring_det(M) == u * v + s * a


def test_det_identity_for_the_symmetric_complement_matrix():
    # det of [[1, a1, 0, -conj(a)], [0, 1 + a(1-g), a, 0],
    #         [0, 1-g, 1, 0], [0, b2, 0, 1]] equals 1 identically
    rng = random.Random(45)
    for _ in range(30):
        m = rng.randint(2, 6)
        a, a1, b2 = rand_el(rng, m), rand_el(rng, m), rand_el(rng, m)
        one = GroupRingElement.one(m)
        zero = GroupRingElement.zero(m)
        omg = one - GroupRingElement.gen(m)
        M = RingMatrix(
            [
                [one, a1, zero, -a.conj()],
                [zero, one + a * omg, a, zero],
                [zero, omg, one, zero],
                [zero, b2, zero, one],
            ]
        )
        assert ring_det(M) == one


def test_matrix_inverse_roundtrip():
    rng = random.Random(21)
    m = 4
    Q = tilde(m)
    for base in (("e1", "f2"), ("e2", "f1")):
        M = transvection(Q, base, rand_el(rng, m))
        assert M * M.inverse() == RingMatrix.identity(Q.dim, m)
        assert M.inverse() * M == RingMatrix.identity(Q.dim, m)
    for Q in (tilde(m), minus(m)):
        for base in (("e1", "f2"), ("e2", "f1")):
            M = transvection(Q, base, rand_el(rng, m))
            assert isometry_inverse(Q, M) == M.inverse()
    with pytest.raises(PreconditionFailed):
        RingMatrix(
            [[el(m, 2), el(m, 0)], [el(m, 0), el(m, 1)]]
        ).inverse()


def test_isometry_check_accepts_unit_scaling_rejects_mu_break():
    m = 4
    Q = tilde(m)
    # scaling every coordinate by g preserves both the pairing and the
    # quadratic refinement
    g_scale = [[GroupRingElement.zero(m) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        g_scale[i][i] = el(m, 0, 1)
    assert isometry_check(Q, RingMatrix(g_scale))
    # manual shear e1 -> e1 + g^2*f1: gram is preserved because g^2 is
    # symmetric, but mu picks up the nonzero class [g^2]
    rows = [list(r) for r in RingMatrix.identity(4, m).rows]
    rows[2][0] = el(m, 0, 0, 1)
    M = RingMatrix(rows)
    G = Q.gram_matrix()
    assert M.transpose() * G * M.conj() == G
    assert not isometry_check(Q, M)
    # scaling one coordinate only breaks the gram condition
    rows2 = [list(r) for r in RingMatrix.identity(4, m).rows]
    rows2[0][0] = el(m, 0, 1)
    assert not isometry_check(Q, RingMatrix(rows2))
    assert isometry_check(Q, RingMatrix.identity(4, m))


def test_verify_lagrangian_complement_standard_pair():
    Q = tilde(5)
    S = (Q.e(1), Q.e(2))
    U = (Q.f(1), Q.f(2))
    cert = verify_lagrangian_complement(Q, S, U)
    one = GroupRingElement.one(5)
    assert all(x.is_zero() for row in cert.gram_evidence for x in row)
    assert all(c.is_zero() for c in cert.mu_evidence)
    det, det_inv = cert.det_evidence
    assert det * det_inv == one
    payload = cert.to_json()
    assert set(payload) == {"S", "U", "gram", "mu", "det", "detInverse"}


def test_verify_lagrangian_complement_failure_conditions():
    Q = tilde(5)
    S = (Q.e(1), Q.e(2))
    with pytest.raises(NotComplement) as exc:
        verify_lagrangian_complement(Q, S, (Q.f(1), Q.e(2)))
    assert exc.value.condition in ("gram", "determinant")
    # scaling f2 by 2 keeps mu zero but breaks unimodularity
    with pytest.raises(NotComplement) as exc:
        verify_lagrangian_complement(
            Q, S, (Q.f(1), Q.vector({"f2": el(5, 2)}))
        )
    assert exc.value.condition in ("gram", "determinant")
    # mu violation: add an e-component pairing nontrivially with the f-part
    m = 4
    Q4 = tilde(m)
    S4 = (Q4.e(1), Q4.e(2))
    w = Q4.vector({"e2": el(m, 0, 0, 1), "f2": el(m, 1)})
    with pytest.raises(NotComplement) as exc:
        verify_lagrangian_complement(Q4, S4, (Q4.f(1), w))
    assert exc.value.condition in ("gram", "mu")


def test_vector_matrix_json_roundtrip():
    m = 3
    v = RingVector([el(m, 1, -2), el(m, 0, 0, 5), el(m, 4), el(m, 0)])
    assert RingVector.from_json(v.to_json()) == v
    Q = tilde(m)
    M = transvection(Q, ("e1", "f2"), el(m, 1, 1))
    assert RingMatrix.from_json(M.to_json()) == M


_X = GroupRingElement(3, [1, 2, 0])
_Y = GroupRingElement(2, [1, 1])


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: _X * 1.5, TypeError, None),
        (lambda: _X + None, TypeError, None),
        (lambda: _X - 0, TypeError, None),
        (lambda: _X * RingVector([_X]), TypeError, None),
        (lambda: RingVector([_X]) + [_X], TypeError, None),
        (lambda: RingVector([_X]) - [_X], TypeError, None),
        (lambda: RingVector([_X]) + _X, TypeError, None),
        (lambda: RingVector([1, 2]), PreconditionFailed,
         "^vector entries must be group ring elements, got 1$"),
        (lambda: RingVector([_X, 2.5]), PreconditionFailed,
         "^vector entries must be group ring elements, got a float$"),
        (lambda: RingMatrix([[1]]), PreconditionFailed,
         "^matrix entries must be group ring elements, got 1$"),
        (lambda: RingVector([_X, _Y]), ModulusMismatch, "^mixed moduli in vector$"),
        (lambda: RingMatrix([[_X, _X], [_X, _Y]]), ModulusMismatch,
         "^mixed moduli in matrix$"),
        (lambda: RingMatrix.from_columns([[_X, _X], [_X, 1]]), PreconditionFailed,
         "^matrix entries must be group ring elements, got 1$"),
        (lambda: RingMatrix.from_columns([RingVector([_X, _X]), RingVector([_Y, _Y])]),
         ModulusMismatch, "^mixed moduli in matrix$"),
        (lambda: RingMatrix.from_columns([RingVector([_X, _X]), [_X, _Y]]),
         ModulusMismatch, "^mixed moduli in matrix$"),
        (lambda: RingMatrix.identity(0, 3), DimensionMismatch, "^matrix must be square"),
        (lambda: transvection(tilde(3), ("e1", "f2"), 1), PreconditionFailed,
         "^a transvection parameter must be a group ring element, got 1$"),
        (lambda: EmbeddingSpec(3, Branch.ODD_M_SKEW, 1, _X, _X), PreconditionFailed,
         "^a1 must be a group ring element, got 1$"),
        (lambda: EmbeddingSpec(3, Branch.ODD_M_SKEW, _X, _X, "x"), PreconditionFailed,
         "^b2 must be a group ring element, got a 1-character string$"),
    ],
    ids=["mul-float", "add-none", "sub-int", "mul-vector", "vector-add-list",
         "vector-sub-list", "vector-add-element", "vector-int",
         "vector-float", "matrix-int", "vector-mixed", "matrix-mixed",
         "columns-int", "columns-mixed", "columns-list-mixed", "identity-0",
         "transvection-int", "spec-a1-int", "spec-b2-str"],
)
def test_foreign_operands_and_entries_raise_named_errors(build, error, match):
    # ring operations decline a foreign operand, so Python raises TypeError;
    # a vector, matrix or spec names its first foreign entry by its type
    with pytest.raises(error, match=match):
        build()


def test_cached_constants_are_shared_immutable_and_equal_to_fresh_ones():
    m = 6
    one, zero = GroupRingElement.one(m), GroupRingElement.zero(m)
    for Q in (tilde(m), minus(m), tilde(m, rank=1)):
        G = Q.gram_matrix()
        assert G is dataclasses.replace(Q).gram_matrix()
        r, n = Q.rank, Q.dim
        fresh = [[zero] * n for _ in range(n)]
        for i in range(r):
            fresh[i][r + i] = one
            fresh[r + i][i] = GroupRingElement(m, [Q.eps] + [0] * (m - 1))
        assert G == RingMatrix(fresh)
        with pytest.raises(AttributeError):
            G.rows = ()
    for branch in (Branch.EVEN_M_SKEW, Branch.EVEN_N_SYM):
        assert _branch_module(m, branch) == EmbeddingSpec(m, branch, one, one, zero).module()
    for name, base in (("shear-T", ("e2", "f1")), ("shear-R", ("e1", "f2"))):
        step = _shear_step(m, Branch.EVEN_M_SKEW, name)
        assert step is _shear_step(m, Branch.EVEN_M_SKEW, name)
        assert step == TraceStep(name, transvection(tilde(m), base, one))
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.name = "x"
    for m, l in ((2, 1), (6, 5), (7, 3), (9, 20)):
        data = _norm_data(m, l)
        assert data is _norm_data(m, l)
        # b*l = -1 mod m, and v = -g*(1 + g^l + ... + g^((b-1)l))
        b = (-pow(l, -1, m)) % m
        v = [0] * m
        for j in range(b):
            v[(1 + j * l) % m] -= 1
        fresh = NormData(GroupRingElement.geometric(m, l), GroupRingElement(m, v),
                         l, (1 + b * l) // m, b)
        assert data == fresh and fresh.verify()
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.l = 0


@pytest.mark.parametrize("m", [1, 0, -3, 2.0, True])
def test_cached_constants_reject_a_bad_modulus_every_time_and_cache_nothing(m):
    # m = 2 is cached first, so a key equal to 2 but not an int must miss
    calls = [
        (_gram_matrix, (2, 2, -1), (m, 2, -1)),
        (_branch_module, (2, Branch.EVEN_M_SKEW), (m, Branch.EVEN_M_SKEW)),
        (_shear_step, (2, Branch.EVEN_M_SKEW, "shear-T"), (m, Branch.EVEN_M_SKEW, "shear-T")),
        (_norm_data, (2, 1), (m, 1)),
    ]
    for helper, good, bad in calls:
        helper(*good)
        size = helper.cache_info().currsize
        for _ in range(2):
            with pytest.raises(PreconditionFailed, match="^modulus must be an integer >= 2"):
                helper(*bad)
        assert helper.cache_info().currsize == size


FORMS = [
    (-1, FormParameterKind.TILDE),
    (-1, FormParameterKind.PLUS),
    (1, FormParameterKind.MINUS),
]


def _elementary_isometry(rng, Q):
    """A random generator of the isometry group of Q: a shear, a cross
    transvection (rank 2), a trivial-unit scaling or a hyperbolic swap."""
    m, r = Q.m, Q.rank
    i = rng.randrange(r) + 1
    op = rng.randrange(4 if r == 2 else 3)
    if op == 0:
        # conj(c) = -eps*c, and c = w - eps*conj(w) has class 0
        w = rand_el(rng, m)
        base = (f"e{i}", f"f{i}") if rng.randrange(2) else (f"f{i}", f"e{i}")
        return transvection(Q, base, w - w.conj() * Q.eps)
    rows = [list(row) for row in RingMatrix.identity(Q.dim, m).rows]
    e, f = i - 1, r + i - 1
    if op == 1:
        # e_i -> t e_i, f_i -> t f_i with t = +-g^k, so t*conj(t) = 1
        t = GroupRingElement.gen(m, rng.randrange(m)) * rng.choice((1, -1))
        rows[e][e] = rows[f][f] = t
    elif op == 2:
        # e_i -> f_i, f_i -> eps*e_i
        zero = GroupRingElement.zero(m)
        rows[e][e] = rows[f][f] = zero
        rows[f][e] = GroupRingElement.one(m)
        rows[e][f] = GroupRingElement.integer(m, Q.eps)
    else:
        return transvection(Q, rng.choice((("e1", "f2"), ("e2", "f1"))), rand_el(rng, m))
    return RingMatrix(rows)


def _random_isometry(rng, Q):
    M = RingMatrix.identity(Q.dim, Q.m)
    for _ in range(rng.randint(1, 4)):
        M = M * _elementary_isometry(rng, Q)
    return M


def _tuples(M):
    return [[x.coeffs for x in row] for row in M.rows]


def _modules():
    for m in range(2, 13):
        for rank in (1, 2):
            for eps, kind in FORMS:
                yield QuadraticModule(m, rank, eps, kind)


def test_isometry_inverse_matches_the_gram_product_and_the_adjugate():
    rng = random.Random(71)
    for Q in _modules():
        for _ in range(2):
            M = _random_isometry(rng, Q)
            inv = isometry_inverse(Q, M)
            assert _tuples(inv) == gram_inverse(Q.m, Q.rank, Q.eps, _tuples(M))
            assert inv == M.inverse()
            assert M * inv == RingMatrix.identity(Q.dim, Q.m)


def test_isometry_check_agrees_with_the_definition():
    rng = random.Random(73)
    seen = {True: 0, False: 0}
    for Q in _modules():
        M = _random_isometry(rng, Q)
        candidates = [M]
        # one entry moved by a small element: mostly breaks the Gram matrix
        rows = [list(row) for row in M.rows]
        i, j = rng.randrange(Q.dim), rng.randrange(Q.dim)
        rows[i][j] = rows[i][j] + rand_el(rng, Q.m, 1)
        candidates.append(RingMatrix(rows))
        # an f_1 -> f_1 + c*e_1 shear with conj(c) = -eps*c keeps the Gram
        # matrix; it keeps mu exactly when c's class vanishes
        rows = [list(row) for row in RingMatrix.identity(Q.dim, Q.m).rows]
        w = rand_el(rng, Q.m)
        c = w - w.conj() * Q.eps
        if Q.eps == -1:
            # 1 has class 0 under TILDE only, g^(m/2) under neither
            middle = (0, Q.m // 2) if Q.m % 2 == 0 else (0,)
            c = c + GroupRingElement.gen(Q.m, rng.choice(middle))
        rows[0][Q.rank] = c
        candidates.append(M * RingMatrix(rows))
        # e_1 -> e_1 + w*f_1 for a random w keeps every lambda(M e_i, M e_j)
        # with i != j; lambda(e_1, e_1) becomes conj(w) + eps*w
        rows = [list(row) for row in RingMatrix.identity(Q.dim, Q.m).rows]
        rows[Q.rank][0] = w
        candidates.append(M * RingMatrix(rows))
        for cand in candidates:
            want = is_isometry(Q.m, Q.rank, Q.eps, Q.kind.value, _tuples(cand))
            assert isometry_check(Q, cand) == want
            seen[want] += 1
    assert seen[True] >= 70 and seen[False] >= 130


# --- the fused dot kernel against the dense oracles ---------------------------

# small coefficients, and some above 2^64 so no product fits a machine word
coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@st.composite
def coordinates(draw, m):
    """A coefficient tuple: zero, a signed monomial, or dense."""
    shape = draw(st.sampled_from(("zero", "monomial", "dense")))
    if shape == "zero":
        return (0,) * m
    if shape == "monomial":
        c = [0] * m
        c[draw(st.integers(0, m - 1))] = draw(st.sampled_from((1, -1, 2, 3**50)))
        return tuple(c)
    return tuple(draw(st.lists(coefficients, min_size=m, max_size=m)))


@st.composite
def module_with_vectors(draw, count):
    """(Q, vectors as lists of coefficient tuples), m = 2..16, ranks 1..3."""
    m = draw(st.integers(2, 16))
    eps, kind = draw(st.sampled_from(FORMS))
    Q = QuadraticModule(m, draw(st.integers(1, 3)), eps, kind)
    return Q, [[draw(coordinates(m)) for _ in range(Q.dim)] for _ in range(count)]


def _ring_vector(m, coords):
    return RingVector([GroupRingElement(m, c) for c in coords])


def _oracle_sum(m, terms):
    """sum sign * a * b over (sign, a, b), every product by poly_mul_fold."""
    acc = (0,) * m
    for sign, a, b in terms:
        acc = tuple(s + sign * t for s, t in zip(acc, poly_mul_fold(m, a, b)))
    return acc


@settings(deadline=None)
@given(module_with_vectors(2))
def test_lambda_eval_matches_the_fold_oracle(case):
    Q, (x, y) = case
    m, r = Q.m, Q.rank
    want = _oracle_sum(
        m,
        [(1, x[k], conj_coeffs(m, y[r + k])) for k in range(r)]
        + [(Q.eps, x[r + k], conj_coeffs(m, y[k])) for k in range(r)],
    )
    assert lambda_eval(Q, _ring_vector(m, x), _ring_vector(m, y)).coeffs == want


@settings(deadline=None)
@given(module_with_vectors(1))
def test_mu_eval_matches_the_fold_oracle(case):
    Q, (x,) = case
    m, r = Q.m, Q.rank
    lift = _oracle_sum(m, [(1, x[k], conj_coeffs(m, x[r + k])) for k in range(r)])
    got = mu_eval(Q, _ring_vector(m, x))
    assert got == param_reduce(GroupRingElement(m, lift), Q.kind)
    assert in_form_parameter(
        m, tuple(a - b for a, b in zip(lift, got.rep.coeffs)), Q.kind.value
    )


@st.composite
def matrix_cases(draw):
    """(m, A, B, v) with A's first row holding at most one live entry."""
    m = draw(st.integers(2, 16))
    n = draw(st.integers(1, 3))

    def matrix():
        return [[draw(coordinates(m)) for _ in range(n)] for _ in range(n)]

    A, B = matrix(), matrix()
    A[0] = [(0,) * m] * n
    A[0][draw(st.integers(0, n - 1))] = draw(coordinates(m))
    return m, A, B, [draw(coordinates(m)) for _ in range(n)]


@settings(deadline=None)
@given(matrix_cases())
def test_ring_matrix_products_match_the_dense_oracle(case):
    m, A, B, v = case

    def ring_matrix(rows):
        return RingMatrix([[GroupRingElement(m, c) for c in row] for row in rows])

    got = ring_matrix(A) * ring_matrix(B)
    assert _coeff_rows(got.rows) == dense_ring_matmul(m, A, B)
    got = ring_matrix(A) * _ring_vector(m, v)
    assert [c.coeffs for c in got.coords] == [
        row[0] for row in dense_ring_matmul(m, A, [[c] for c in v])
    ]


@settings(deadline=None)
@given(module_with_vectors(3))
def test_verify_reads_the_full_lambda_table_off_half_of_it(case):
    """The gram evidence, the mu classes and the first failure match a full
    lambda_eval table, on U that is mostly not Lagrangian."""
    Q, vectors = case
    U = [_ring_vector(Q.m, x) for x in vectors[: Q.rank]]
    table = [[lambda_eval(Q, u, w) for w in U] for u in U]
    gram, mus = _gram_and_mu(Q, [[c.coeffs for c in u.coords] for u in U])
    assert [list(row) for row in gram] == table
    assert list(mus) == [mu_eval(Q, u) for u in U]
    S = [Q.e(i) for i in range(1, Q.rank + 1)]
    nonzero = [
        (i, j, x)
        for i, row in enumerate(table)
        for j, x in enumerate(row)
        if not x.is_zero()
    ]
    odd = [(i, c) for i, c in enumerate(mus) if not c.is_zero()]
    if nonzero:
        i, j, x = nonzero[0]
        want = f"gram: lambda(U[{i}], U[{j}]) is nonzero ({x.bits()} bits)"
    elif odd:
        i, c = odd[0]
        want = f"mu: mu(U[{i}]) is nonzero ({c.rep.bits()}-bit representative)"
    else:
        return
    with pytest.raises(NotComplement) as exc:
        verify_lagrangian_complement(Q, S, U)
    assert str(exc.value) == want


def test_verify_certificates_carry_the_full_lambda_table():
    rng = random.Random(14)
    for Q in _modules():
        for _ in range(2):
            M = _random_isometry(rng, Q)
            r = Q.rank
            S = [M.column(i) for i in range(r)]
            U = [M.column(r + i) for i in range(r)]
            cert = verify_lagrangian_complement(Q, S, U)
            assert [list(row) for row in cert.gram_evidence] == [
                [lambda_eval(Q, u, w) for w in U] for u in U
            ]
            assert list(cert.mu_evidence) == [mu_eval(Q, u) for u in U]
