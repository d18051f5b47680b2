import copy
import dataclasses
import math
import pickle
import random
import time
from fractions import Fraction
from operator import mul

import pytest

from cyclact import complement, intlattice
from cyclact.complement import (
    Branch,
    EmbeddingSpec,
    rank2_vector_isometry,
    run_sweep,
    sample_spec,
    solve,
    solve_even_m,
    solve_even_n,
    solve_odd_m,
)
from cyclact.errors import (
    AugmentationObstruction,
    DimensionMismatch,
    ModulusMismatch,
    PreconditionFailed,
)
from cyclact.forms import (
    QuadraticModule,
    RingMatrix,
    RingVector,
    isometry_check,
    isometry_inverse,
    lambda_eval,
    mu_eval,
    verify_lagrangian_complement,
)
from cyclact.groupring import (
    FormParameterKind,
    GroupRingElement,
    _normalize,
    _reduced_bezout_pair,
    divide_by_one_minus_gen,
    ideal_contains_one,
    ideal_express,
    mult_matrix,
    param_reduce,
)
from cyclact.intlattice import ZLattice, det_int

from oracles import (
    dense_ring_matmul,
    element_shifts,
    fraction_solve,
    generic_transport,
    hermite_bezout_pair,
    pull_back,
    round_off,
)


def el(m, *coeffs):
    c = list(coeffs) + [0] * (m - len(coeffs))
    return GroupRingElement(m, c)


def coords(v):
    return tuple(c.coeffs for c in v.coords)


def spec_of(m, branch, a1, a2, b2):
    return EmbeddingSpec(m, branch, el(m, *a1), el(m, *a2), el(m, *b2))


def test_odd_branch_trivial_spec_gives_the_standard_complement():
    spec = spec_of(5, Branch.ODD_M_SKEW, [0], [1], [0])
    trace = solve_odd_m(spec)
    assert [s.name for s in trace.steps] == ["vector-transport"]
    assert trace.norm.l == 1
    assert trace.norm.a * 5 - trace.norm.b * 1 == 1
    assert coords(trace.U[0]) == (
        (0,) * 5, (0,) * 5, (1, 0, 0, 0, 0), (0,) * 5,
    )
    assert coords(trace.U[1]) == (
        (0,) * 5, (0,) * 5, (0,) * 5, (1, 0, 0, 0, 0),
    )
    assert trace.replay()


def test_odd_branch_nontrivial_spec():
    spec = spec_of(3, Branch.ODD_M_SKEW, [0, 1], [1, 1], [0, 0, 1])
    trace = solve_odd_m(spec)
    assert coords(trace.U[0]) == ((0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 0, 0))
    assert coords(trace.U[1]) == ((0, 0, 0), (0, 0, -1), (0, 0, 0), (0, 0, 0))
    assert trace.replay()
    cert = trace.certificate
    assert all(x.is_zero() for row in cert.gram_evidence for x in row)


def test_odd_branch_preconditions():
    with pytest.raises(PreconditionFailed):
        solve_odd_m(spec_of(5, Branch.ODD_M_SKEW, [1], [0], [0])).replay()
    with pytest.raises(PreconditionFailed):
        solve_odd_m(spec_of(4, Branch.ODD_M_SKEW, [0], [1], [0]))


def test_norm_multiplier_keeps_the_tilde_class():
    # the skew solver reads the (e2, f2) block's mu class before dividing by
    # u: for symmetric c and N = u*conj(u) with l odd, [N*c] = [c]
    rng = random.Random(17)
    tilde = FormParameterKind.TILDE
    for m in range(2, 13, 2):
        for l in range(1, 3 * m):
            if math.gcd(l, m) != 1:
                continue
            u = GroupRingElement.geometric(m, l)
            N = u * u.conj()
            for _ in range(5):
                t = el(m, *(rng.randint(-3, 3) for _ in range(m)))
                c = t + t.conj() + el(m, rng.randint(-3, 3))
                c = c + rng.randint(-3, 3) * GroupRingElement.gen(m, m // 2)
                assert param_reduce(N * c, tilde) == param_reduce(c, tilde)


def test_spec_invariants_are_read_off_one_product():
    # validate and the skew solver read lambda(v2, v2) and the shear off
    # P = a2*conj(b2); pinned here on random inputs, sampled by no branch
    # and mostly invalid: lambda(v2, v2) = P - conj(P) in the skew module,
    # aug lambda(v2, v2) = 2*aug(a2)*aug(b2) in the even-n module, and a
    # symmetric P leaves the TILDE class of s exactly when m is even and
    # P_(m/2) is even
    rng = random.Random(29)
    tilde = FormParameterKind.TILDE

    def draw(m, symmetric):
        c = [rng.randint(-3, 3) for _ in range(m)]
        if symmetric:
            c = [c[min(i, m - i)] for i in range(m)]
        return el(m, *c)

    seen = set()
    for m in range(2, 13):
        skew = QuadraticModule(m, 2, -1, tilde)
        sym = QuadraticModule(m, 2, 1, FormParameterKind.MINUS)
        s = GroupRingElement.norm(m)
        c = GroupRingElement.one(m) - GroupRingElement.gen(m)
        s_class = param_reduce(s, tilde)
        for _ in range(40):
            # a2 and b2 both symmetric make P symmetric
            symmetric = rng.randrange(2) == 0
            a1, a2, b2 = draw(m, False), draw(m, symmetric), draw(m, symmetric)
            P = a2 * b2.conj()
            v2 = RingVector([a1, a2, s, b2])
            isotropic = lambda_eval(skew, v2, v2).is_zero()
            assert isotropic == (P == P.conj())
            v2 = RingVector([a1, a2, c, b2])
            assert lambda_eval(sym, v2, v2).aug() == 2 * a2.aug() * b2.aug()
            for Ps in ([P] if isotropic else []) + [draw(m, True)]:
                shear = param_reduce(Ps, tilde) != s_class
                assert shear == (m % 2 == 0 and Ps.coeffs[m // 2] % 2 == 0)
                seen.add((m % 2, shear))
            seen.add(("isotropic", isotropic))
    assert seen == {(0, False), (0, True), (1, False), ("isotropic", False), ("isotropic", True)}


_EVEN_M_SHAPES = (
    # a2*conj(b2) = g is already in the class of s: no shear
    spec_of(2, Branch.EVEN_M_SKEW, [0], [1], [0, 1]),
    # class 0 and aug(b2) odd: shear-T adds s to a2
    spec_of(2, Branch.EVEN_M_SKEW, [1], [1], [1]),
    # class 0 and aug(b2) even: shear-R subtracts s from b2
    spec_of(4, Branch.EVEN_M_SKEW, [1, 1, 1, 1], [1], [0]),
)


@pytest.mark.parametrize(
    "spec, steps",
    zip(_EVEN_M_SHAPES, (["vector-transport"], ["shear-T", "vector-transport"],
                         ["shear-R", "vector-transport"])),
    ids=["no-shear", "shear-T", "shear-R"],
)
def test_even_m_shapes_certify_and_replay(spec, steps):
    m = spec.m
    Q = spec.module()
    trace = solve_even_m(spec)
    assert [s.name for s in trace.steps] == steps
    assert all(s.kind == "ambient" and isometry_check(Q, s.matrix) for s in trace.steps)
    # after the shear, the block's class is the class of s
    v2 = spec.vectors()[1]
    for step in trace.steps[:-1]:
        v2 = step.matrix * v2
    block = param_reduce(v2[1] * v2[3].conj(), Q.kind)
    assert block == param_reduce(GroupRingElement.norm(m), Q.kind)
    assert all(lambda_eval(Q, u, w).is_zero() for u in trace.U for w in trace.U)
    assert all(mu_eval(Q, u).is_zero() for u in trace.U)
    verify_lagrangian_complement(Q, spec.vectors(), trace.U)
    assert trace.replay()
    assert trace.to_json()["h"] is None


def _block_quotients(spec, trace):
    """A skew solve's normalized quotients: v2's (e2, f2) block after the shear, over u."""
    v2 = spec.vectors()[1]
    for step in trace.steps[:-1]:
        v2 = step.matrix * v2
    return trace.norm.divide(v2[1]), trace.norm.divide(v2[3])


def _trivial_unit(x):
    return [c for c in x.coeffs if c] in ([1], [-1])


def _quotients(x1, x2):
    """_normalize's data and quotients for the generators (x1, x2), the quotients as elements."""
    data, quotients = _normalize([x1, x2])
    return data, [GroupRingElement(x1.m, q) for q in quotients]


def _reduced_pair(x1, x2):
    """_reduced_bezout_pair of two elements, as a pair of elements, or None."""
    pair = _reduced_bezout_pair(x1.coeffs, x2.coeffs)
    return None if pair is None else tuple(GroupRingElement(x1.m, c) for c in pair)


def test_skew_closed_forms_match_the_generic_pull_back():
    # the solver maps v2 and pulls the standard complement back in closed
    # form; the oracle multiplies by every step matrix and its inverse
    rng = random.Random(71)
    specs = [
        sample_spec(branch, m, rng)
        for branch, moduli in (
            (Branch.ODD_M_SKEW, (3, 5, 7, 9)),
            (Branch.EVEN_M_SKEW, (2, 4, 6, 8)),
        )
        for m in moduli
        for _ in range(6)
    ] + list(_EVEN_M_SHAPES)
    trivial = set()
    for spec in specs:
        m = spec.m
        Q = spec.module()
        trace = solve(spec)
        a_t = GroupRingElement.integer(m, trace.norm.positive_variant()[1])
        one = GroupRingElement.one(m)
        U_std = (Q.vector({"e2": -a_t, "f1": one}), Q.vector({"e1": -a_t, "f2": one}))
        assert tuple(map(coords, trace.U)) == pull_back(Q, trace.steps, U_std)
        v2 = [[c.coeffs] for c in spec.vectors()[1].coords]
        for step in trace.steps:
            M = [[x.coeffs for x in row] for row in step.matrix.rows]
            v2 = dense_ring_matmul(m, M, v2)
        assert coords(trace.normalized_S[1]) == tuple(c for (c,) in v2)
        trivial.add(any(map(_trivial_unit, _block_quotients(spec, trace))))
    assert trivial == {True, False}


def test_even_n_closed_forms_match_the_generic_pull_back():
    # the even-n solver swaps and negates v2's (e2, f2) block and pulls the
    # normalized complement back in closed form; the oracle multiplies by
    # every step matrix and its inverse
    rng = random.Random(72)
    step_lists = set()
    for m in range(2, 10):
        Q = QuadraticModule(m, 2, 1, FormParameterKind.MINUS)
        one = GroupRingElement.one(m)
        for _ in range(8):
            spec = sample_spec(Branch.EVEN_N_SYM, m, rng)
            trace = solve(spec)
            x = trace.normalized_S[1][1]
            assert x.aug() == 1
            a = divide_by_one_minus_gen(x - one)
            U_norm = (Q.vector({"e2": a, "f1": one}), Q.vector({"e1": -a.conj(), "f2": one}))
            assert tuple(map(coords, trace.U)) == pull_back(Q, trace.steps, U_norm)
            v2 = [[c.coeffs] for c in spec.vectors()[1].coords]
            for step in trace.steps:
                M = [[e.coeffs for e in row] for row in step.matrix.rows]
                v2 = dense_ring_matmul(m, M, v2)
            assert coords(trace.normalized_S[1]) == tuple(c for (c,) in v2)
            step_lists.add(tuple(step.name for step in trace.steps))
    assert step_lists == {
        (),
        ("swap-e2-f2",),
        ("negate-block-2",),
        ("swap-e2-f2", "negate-block-2"),
    }


def _unit_row_transports(rng):
    """Rank-1 transports between vectors (1, c), with Bezout pairs (1 - beta*c, beta).

    c is a fixed base plus w - eps*conj(w), so both vectors are isotropic
    with the base's mu class; the bases make the completions' classes
    differ, so shears other than 0 are taken.
    """
    for m in (2, 3, 4, 6):
        one, zero = GroupRingElement.one(m), GroupRingElement.zero(m)
        half = GroupRingElement.gen(m, m // 2) if m % 2 == 0 else zero
        skew_bases = (zero, one, half, one + half)
        for eps, kind, bases in (
            (-1, FormParameterKind.TILDE, skew_bases),
            (-1, FormParameterKind.PLUS, skew_bases),
            (1, FormParameterKind.MINUS, (zero,)),
        ):
            Q = QuadraticModule(m, 1, eps, kind)
            for base in bases:
                for _ in range(3):
                    pairs = []
                    for _ in range(2):
                        w = el(m, *(rng.randint(-1, 1) for _ in range(m)))
                        beta = el(m, *(rng.randint(-1, 1) for _ in range(m)))
                        c = base + w - eps * w.conj()
                        pairs.append((RingVector([one, c]), (one - beta * c, beta)))
                    (x, p), (y, q) = pairs
                    yield Q, x, y, p, q


def test_transport_matches_the_generic_product(monkeypatch):
    # the transport writes [y, y_c] * [x, x']^-1 out entry by entry; the
    # oracle completes, shears and multiplies densely through gram_inverse
    calls = []

    def recording(*args):
        calls.append(args)
        return rank2_vector_isometry(*args)

    monkeypatch.setattr(complement, "rank2_vector_isometry", recording)
    rng = random.Random(73)
    for branch, moduli in ((Branch.ODD_M_SKEW, (3, 5, 7, 9)), (Branch.EVEN_M_SKEW, (2, 4, 6, 8))):
        for m in moduli:
            for _ in range(8):
                solve(sample_spec(branch, m, rng))
    assert len(calls) == 64
    calls += _unit_row_transports(random.Random(79))
    compared = 0
    for Q, x, y, p, q in calls:
        M = rank2_vector_isometry(Q, x, y, p, q)
        if x == y:
            assert M == RingMatrix.identity(2, Q.m)
            continue
        want = generic_transport(
            Q.m, Q.eps, Q.kind.value, coords(x), coords(y),
            tuple(c.coeffs for c in p), tuple(c.coeffs for c in q),
        )
        assert [[e.coeffs for e in row] for row in M.rows] == want
        compared += 1
    assert compared > 150


def test_even_m_branch_rejects_odd_modulus():
    with pytest.raises(PreconditionFailed):
        solve_even_m(spec_of(3, Branch.EVEN_M_SKEW, [0], [1], [0]))


def test_even_n_branch_trivial_spec():
    spec = spec_of(3, Branch.EVEN_N_SYM, [0], [1], [0])
    trace = solve_even_n(spec)
    assert trace.steps == ()
    assert coords(trace.U[0]) == ((0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 0, 0))
    assert coords(trace.U[1]) == ((0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0))
    assert trace.replay()


def test_even_n_branch_nontrivial_spec():
    spec = spec_of(3, Branch.EVEN_N_SYM, [1], [2, -1], [1, -1])
    trace = solve_even_n(spec)
    # U completes to a complement; the exact connecting coefficient is a
    # choice modulo the annihilator of 1-g, so only structure is pinned
    assert trace.U[0].coords[2] == el(3, 1)
    assert trace.U[0].coords[3].is_zero()
    assert trace.U[1].coords[2].is_zero()
    assert trace.U[1].coords[3] == el(3, 1)
    assert trace.replay()


def test_even_n_branch_augmentation_obstruction():
    spec = spec_of(4, Branch.EVEN_N_SYM, [0], [1, -1], [0])
    with pytest.raises(AugmentationObstruction):
        solve_even_n(spec)


def test_even_n_swap_and_negation_are_their_own_isometry_inverse():
    # a2 of augmentation 0 is swapped with b2, then negated to augmentation 1
    for m in range(2, 8):
        spec = spec_of(m, Branch.EVEN_N_SYM, [1], [1, -1], [-1])
        Q = spec.module()
        trace = solve_even_n(spec)
        assert [s.name for s in trace.steps] == ["swap-e2-f2", "negate-block-2"]
        for step in trace.steps:
            assert isometry_check(Q, step.matrix)
            assert isometry_inverse(Q, step.matrix) == step.matrix
            assert step.matrix * step.matrix == RingMatrix.identity(Q.dim, m)
        assert trace.replay()


def test_solve_dispatches_on_branch():
    spec = spec_of(5, Branch.ODD_M_SKEW, [0], [1], [0])
    assert solve(spec).branch is Branch.ODD_M_SKEW
    spec = spec_of(3, Branch.EVEN_N_SYM, [0], [1], [0])
    assert solve(spec).branch is Branch.EVEN_N_SYM
    # each branch's own solver refuses a spec of another branch
    specs = {
        solve_odd_m: spec_of(5, Branch.ODD_M_SKEW, [0], [1], [0]),
        solve_even_m: spec_of(4, Branch.EVEN_M_SKEW, [0], [1], [0]),
        solve_even_n: spec,
    }
    for solver, own in specs.items():
        assert solver(own).branch is own.branch
        for other in specs.values():
            if other is not own:
                with pytest.raises(PreconditionFailed, match="spec branch is not"):
                    solver(other)


def test_certificates_hold_for_all_branch_examples():
    cases = [
        spec_of(5, Branch.ODD_M_SKEW, [0], [1], [0]),
        spec_of(3, Branch.ODD_M_SKEW, [0, 1], [1, 1], [0, 0, 1]),
        spec_of(2, Branch.EVEN_M_SKEW, [0], [1], [0, 1]),
        spec_of(3, Branch.EVEN_N_SYM, [1], [2, -1], [1, -1]),
    ]
    for spec in cases:
        trace = solve(spec)
        Q = spec.module()
        v1, v2 = spec.vectors()
        assert trace.certificate.S == (v1, v2)
        # the certified determinant witnesses S + U spanning everything
        det, dinv = trace.certificate.det_evidence
        assert det * dinv == GroupRingElement.one(spec.m)


def bezout(x):
    """(p, q) with p*x1 + q*x2 = 1, from the shift lattice of x's entries."""
    return ideal_express(list(x.coords), GroupRingElement.one(x.m))


def transport(Q, x, y):
    return rank2_vector_isometry(Q, x, y, bezout(x), bezout(y))


def test_rank2_vector_isometry_identity_and_shear():
    m = 4
    Q = QuadraticModule(m, 1, -1, FormParameterKind.TILDE)
    x = RingVector([el(m, 1), el(m, 0)])
    assert transport(Q, x, x).rows[0][0] == el(m, 1)
    y = RingVector([el(m, 1), el(m, 0, 1, 0, 1)])
    M = transport(Q, x, y)
    assert M * x == y
    assert isometry_check(Q, M)


def test_rank2_vector_isometry_rejects_invariant_mismatches():
    m = 4
    Q = QuadraticModule(m, 1, -1, FormParameterKind.TILDE)
    x = RingVector([el(m, 1), el(m, 0)])
    with pytest.raises(PreconditionFailed):
        transport(Q, x, RingVector([el(m, 1), el(m, 0, 0, 1)]))
    with pytest.raises(PreconditionFailed):
        transport(Q, x, RingVector([el(m, 1), el(m, 0, 1)]))
    # (2, 0) is not primitive, so every claimed Bezout pair fails the check
    with pytest.raises(PreconditionFailed, match="Bezout"):
        rank2_vector_isometry(
            Q, RingVector([el(m, 2), el(m, 0)]), x, (el(m, 1), el(m, 0)), bezout(x)
        )
    # a malformed pair is named before any product is taken, in either slot
    one, zero = el(m, 1), el(m, 0)
    for bad, error, match in (
        ((el(3, 1), el(3, 0)), ModulusMismatch, "Bezout pair has m=3 vs module m=4"),
        ((one, el(5, 0)), ModulusMismatch, "Bezout pair has m=5 vs module m=4"),
        ((one,), DimensionMismatch, "Bezout pair has 1 entries, not 2"),
        ((one, zero, zero), DimensionMismatch, "Bezout pair has 3 entries, not 2"),
        ((1, 0), PreconditionFailed, "Bezout pair entries must be group ring elements"),
    ):
        for name, pairs in (("source", (bad, (one, zero))), ("target", ((one, zero), bad))):
            with pytest.raises(error, match=f"^{name} {match}"):
                rank2_vector_isometry(Q, x, x, *pairs)


def test_rank2_vector_isometry_rejects_non_isotropic_source():
    # x and g*x agree on primitivity, lambda and mu, but lambda(x, x) =
    # conj(g) - g is nonzero, so no constructive transport applies
    m = 3
    Q = QuadraticModule(m, 1, -1, FormParameterKind.TILDE)
    x = RingVector([el(m, 1), el(m, 0, 1)])
    y = x.scaled(GroupRingElement.gen(m))
    with pytest.raises(PreconditionFailed, match="isotropic"):
        transport(Q, x, y)


def test_rank2_vector_isometry_generic_transport():
    rng = random.Random(99)
    m = 5
    Q = QuadraticModule(m, 1, -1, FormParameterKind.TILDE)
    x = RingVector([el(m, 1), el(m, 0)])
    for _ in range(10):
        k = rng.randrange(m)
        u = GroupRingElement.gen(m, k)
        y = RingVector([u, el(m, 0)])
        M = transport(Q, x, y)
        assert M * x == y
        assert isometry_check(Q, M)


def test_embedding_spec_json_roundtrip():
    spec = spec_of(3, Branch.ODD_M_SKEW, [0, 1], [1, 1], [0, 0, 1])
    assert EmbeddingSpec.from_json(spec.to_json()) == spec
    bare = {"m": 3, "branch": "odd-m", "a1": [0, 1, 0], "a2": [1, 1, 0], "b2": [0, 0, 1]}
    assert EmbeddingSpec.from_json(bare) == spec


def test_trace_json_has_the_declared_sections():
    spec = spec_of(2, Branch.EVEN_M_SKEW, [0], [1], [0, 1])
    payload = solve(spec).to_json()
    assert set(payload) == {
        "branch", "steps", "normData", "h", "normalizedS", "U", "certificate",
    }
    assert payload["branch"] == "even-m"
    assert all(set(s) == {"name", "kind", "matrix"} for s in payload["steps"])


def test_sampled_specs_always_validate(monkeypatch):
    # sample_spec runs no check and no Hermite form of its own: each spec is
    # valid by construction, so validate() must pass on every draw, at every
    # modulus of the branch's parity in 2..13
    real = intlattice.row_hnf_transform
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(intlattice, "row_hnf_transform", counted)
    rng = random.Random(7)
    plans = [
        (Branch.ODD_M_SKEW, range(3, 14, 2)),
        (Branch.EVEN_M_SKEW, range(2, 14, 2)),
        (Branch.EVEN_N_SYM, range(2, 14)),
    ]
    for branch, moduli in plans:
        for m in moduli:
            for _ in range(40):
                before = len(calls)
                spec = sample_spec(branch, m, rng)
                assert len(calls) == before, (branch, m)
                spec.validate()
    # validate's unit-ideal test is a Hermite form, so the counter was live
    assert calls


def _kernel_specs(branch, m, rng, count):
    """Skew specs drawn without the sampler's u_l * (w1, w2) construction.

    b2 is a small combination of the Hermite basis of the kernel of
    b -> a2*conj(b) - conj(a2)*b, so lambda(v2, v2) = 0; a draw is kept
    when (a2, s, b2) is the unit ideal.
    """
    s = GroupRingElement.norm(m)
    specs = []
    for _ in range(400):
        a2 = el(m, *(rng.randint(-2, 2) for _ in range(m)))
        if a2.is_zero():
            continue
        rows = []
        for j in range(m):
            gj = GroupRingElement.gen(m, j)
            rows.append((a2 * gj.conj() - a2.conj() * gj).coeffs)
        ker = ZLattice(ZLattice(rows, m).kernel(), m).basis()
        b2 = el(m)
        for row in ker:
            b2 = b2 + rng.randint(-2, 2) * el(m, *row)
        if ideal_contains_one([a2, s, b2]):
            a1 = el(m, *(rng.randint(-2, 2) for _ in range(m)))
            specs.append(EmbeddingSpec(m, branch, a1, a2, b2))
            if len(specs) == count:
                return specs
    raise AssertionError(f"too few kernel specs at {branch.value} m={m}")


def test_every_valid_skew_spec_is_a_geometric_multiple_of_a_unimodular_pair():
    # the sampler draws only u_l * (w1, w2); specs reached another way must
    # have that shape too, with l = gcd(aug a2, aug b2)
    rng = random.Random(29)
    for branch, moduli in ((Branch.ODD_M_SKEW, (3, 5, 7)), (Branch.EVEN_M_SKEW, (2, 4, 6))):
        for m in moduli:
            for spec in _kernel_specs(branch, m, rng, 4):
                data, (w1, w2) = _quotients(spec.a2, spec.b2)
                p, q = ideal_express([w1, w2], GroupRingElement.one(m))
                l = math.gcd(spec.a2.aug(), spec.b2.aug())
                assert data.u == GroupRingElement.geometric(m, l)
                assert (data.u * w1, data.u * w2) == (spec.a2, spec.b2)
                assert p * w1 + q * w2 == GroupRingElement.one(m)
                sym = w1 * w2.conj()
                assert sym == sym.conj()
                assert solve(spec).replay()


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 12])
def test_nearest_bezout_pair_depends_on_the_vector_alone(m):
    # pins facts, not which pair comes out: the solver's reduced pair is a
    # Bezout pair, and the oracle's round-off takes any pair of (x1, x2) to
    # it, the reduced pair itself included
    rng = random.Random(37 + m)
    one = GroupRingElement.one(m)
    for _ in range(10):
        x1, x2 = complement._skew_pair_sample(rng, m)
        p, q = ideal_express([x1, x2], one)
        rp, rq = _reduced_pair(x1, x2)
        assert rp * x1 + rq * x2 == one
        assert round_off(x1, x2, p, q) == (rp, rq)
        assert round_off(x1, x2, rp, rq) == (rp, rq)
        beta0 = el(m, *(rng.randint(-99, 99) for _ in range(m)))
        assert round_off(x1, x2, p + beta0 * x2, q - beta0 * x1) == (rp, rq)
        _, quotients = _quotients(x1, x2)
        assert _reduced_pair(*quotients) == (rp, rq)
        assert round_off(*quotients, *ideal_express(quotients, one)) == (rp, rq)
        for i, x in enumerate(quotients):
            if _trivial_unit(x):
                start = [GroupRingElement.zero(m)] * 2
                start[i] = x.conj()
                assert round_off(*quotients, *start) == (rp, rq)
        # round-off leaves the pair's coordinates along the syzygy shifts
        # g^k*(x2, -x1) in [-1/2, 1/2): projections from plain inner products
        shifts = [
            a + [-c for c in b]
            for a, b in zip(element_shifts(m, x2.coeffs), element_shifts(m, x1.coeffs))
        ]
        pair = list(rp.coeffs + rq.coeffs)
        gram = [[sum(map(mul, a, b)) for b in shifts] for a in shifts]
        z = fraction_solve(gram, [sum(map(mul, pair, a)) for a in shifts])
        assert all(-Fraction(1, 2) <= c < Fraction(1, 2) for c in z)


def test_specs_with_l_past_the_modulus_solve():
    # the sampler keeps l < m for small certificates; u_l * (w1, w2) with
    # l in [m, 3m) coprime to m is valid too and must certify
    rng = random.Random(31)
    for branch, moduli in ((Branch.ODD_M_SKEW, (3, 5, 7)), (Branch.EVEN_M_SKEW, (2, 4, 6))):
        for m in moduli:
            for l in range(m, 3 * m):
                if math.gcd(l, m) != 1:
                    continue
                w1, w2 = complement._skew_pair_sample(rng, m)
                u = GroupRingElement.geometric(m, l)
                a1 = el(m, *(rng.randint(-2, 2) for _ in range(m)))
                assert solve(EmbeddingSpec(m, branch, a1, u * w1, u * w2)).replay()


def test_even_n_unit_ideal_is_an_augmentation_gcd():
    rng = random.Random(13)
    zero = GroupRingElement.zero
    for m in range(2, 13):
        one_minus_g = GroupRingElement.one(m) - GroupRingElement.gen(m)
        for _ in range(30):
            a2, b2 = (el(m, *(rng.randint(-3, 3) for _ in range(m))) for _ in range(2))
            unit = ideal_contains_one([a2, b2, one_minus_g])
            assert (math.gcd(a2.aug(), b2.aug()) == 1) == unit
            # with aug(b2) = 0, lambda(v2, v2) has augmentation 0 and
            # validate reaches its unit-ideal test
            b2 = b2 * one_minus_g
            if a2.aug() == 0:
                continue
            spec = EmbeddingSpec(m, Branch.EVEN_N_SYM, zero(m), a2, b2)
            if ideal_contains_one([a2, b2, one_minus_g]):
                spec.validate()
            else:
                with pytest.raises(PreconditionFailed, match="unit ideal"):
                    spec.validate()


def test_run_sweep_solves_everything_and_is_deterministic():
    r1 = run_sweep(Branch.ODD_M_SKEW, 5, 25, seed=11)
    assert r1.solved == 25
    assert r1.failures == ()
    assert r1.exhausted == 0
    r2 = run_sweep(Branch.ODD_M_SKEW, 5, 25, seed=11)
    j1, j2 = r1.to_json(), r2.to_json()
    j1.pop("elapsedSeconds"), j2.pop("elapsedSeconds")
    assert j1 == j2
    r3 = run_sweep(Branch.EVEN_M_SKEW, 6, 15, seed=3)
    assert r3.solved == 15 and r3.failures == ()
    r4 = run_sweep(Branch.EVEN_N_SYM, 3, 15, seed=3)
    assert r4.solved == 15 and r4.failures == ()
    assert run_sweep(Branch.ODD_M_SKEW, 5, 0, seed=3).solved == 0
    with pytest.raises(PreconditionFailed, match="nonnegative"):
        run_sweep(Branch.ODD_M_SKEW, 5, -3, seed=3)
    for count, named in ((1.5, "a float"), ("2", "a 1-character string"), (True, "a bool")):
        with pytest.raises(PreconditionFailed, match=f"^a sweep count must be a nonnegative int, got {named}$"):
            run_sweep(Branch.ODD_M_SKEW, 5, count, seed=3)


def _isotropic_walk(rng, Q):
    """A primitive isotropic vector reached from (1, 0) by random moves.

    A shear adds c times one entry to the other, with conj(c) = -eps*c (c
    symmetric for eps = -1, antisymmetric for eps = +1); the swap sends
    (w1, w2) to (w2, -eps*w1); a scaling multiplies both entries by +-g^k.
    Every move keeps lambda(w, w) = 0 and the unit ideal.
    """
    m, eps = Q.m, Q.eps
    w1, w2 = GroupRingElement.one(m), GroupRingElement.zero(m)
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(4)
        if op < 2:
            t = el(m, *[rng.randint(-1, 1) for _ in range(m)])
            if eps == 1:
                c = t - t.conj()
            else:
                c = t + t.conj() + el(m, rng.randint(-1, 1))
                if m % 2 == 0:
                    c = c + GroupRingElement.gen(m, m // 2) * rng.randint(-1, 1)
            if op == 0:
                w2 = w2 + c * w1
            else:
                w1 = w1 + c * w2
        elif op == 2:
            w1, w2 = w2, w1 * -eps
        else:
            t = GroupRingElement.gen(m, rng.randrange(m)) * rng.choice((1, -1))
            w1, w2 = t * w1, t * w2
    return RingVector([w1, w2])


def test_rank2_vector_isometry_transports_every_form_parameter():
    rng = random.Random(505)
    forms = [
        (-1, FormParameterKind.TILDE),
        (-1, FormParameterKind.PLUS),
        (1, FormParameterKind.MINUS),
    ]
    for m in range(2, 10):
        for eps, kind in forms:
            Q = QuadraticModule(m, 1, eps, kind)
            pairs = 0
            while pairs < 6:
                x, y = _isotropic_walk(rng, Q), _isotropic_walk(rng, Q)
                assert lambda_eval(Q, x, x).is_zero()
                if mu_eval(Q, x) != mu_eval(Q, y):
                    continue
                M = transport(Q, x, y)
                assert M * x == y
                assert isometry_check(Q, M)
                pairs += 1


@pytest.mark.parametrize(
    "kind, x, y",
    [
        # mu(x) = [g]; the completions' classes differ by [g], which the
        # shear by 1 moves and the shear by g alone does not
        (FormParameterKind.TILDE, [[1], [1, 1]], [[1, -2], [-1, 1]]),
        # mu(x) = [1 + g]; the completions' classes differ by [1] + [g],
        # which only a shear with c_0 and c_(m/2) both odd moves
        (FormParameterKind.PLUS, [[1], [-1, -1]], [[1, 1], [-1, -2]]),
    ],
)
def test_rank2_vector_isometry_when_the_completions_need_a_shear(kind, x, y):
    m = 2
    Q = QuadraticModule(m, 1, -1, kind)
    x = RingVector([el(m, *c) for c in x])
    y = RingVector([el(m, *c) for c in y])
    M = transport(Q, x, y)
    assert M * x == y
    assert isometry_check(Q, M)


def test_sample_spec_rejects_bad_moduli_before_drawing():
    rng = random.Random(1)
    state = rng.getstate()
    for branch, m, detail in (
        (Branch.ODD_M_SKEW, 40, "odd-m branch requires odd modulus"),
        (Branch.EVEN_M_SKEW, 7, "even-m branch requires even modulus"),
        (Branch.ODD_M_SKEW, 1, "modulus must be an integer >= 2"),
        (Branch.EVEN_N_SYM, 0, "modulus must be an integer >= 2"),
        # a modulus that is not an int fails before its parity is read
        (Branch.ODD_M_SKEW, "3", "modulus must be an integer >= 2, got a 1-character string"),
        (Branch.EVEN_M_SKEW, 4.0, "modulus must be an integer >= 2, got a float"),
        (Branch.EVEN_M_SKEW, True, "modulus must be an integer >= 2, got a bool"),
    ):
        t0 = time.perf_counter()
        with pytest.raises(PreconditionFailed, match=detail):
            sample_spec(branch, m, rng)
        with pytest.raises(PreconditionFailed, match=detail):
            run_sweep(branch, m, 1, seed=0)
        assert time.perf_counter() - t0 < 1.0
    assert rng.getstate() == state



def _fallback_spec():
    """An odd-m 9 spec whose quotients' determinants keep a common factor 2."""
    rng = random.Random(1)
    return [sample_spec(Branch.ODD_M_SKEW, 9, rng) for _ in range(10)][9]


def _hermite_counter(monkeypatch):
    real = intlattice.row_hnf_transform
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(intlattice, "row_hnf_transform", counted)
    return calls


def test_hermite_forms_per_solve_stay_within_budget(monkeypatch):
    # a skew solve takes its Bezout pair from a trivial unit quotient or
    # from the extended gcd of determinants, with no Hermite form; one form
    # runs only when that gcd stays above 1, as for _fallback_spec. even-n
    # decides everything by augmentations
    moduli = [
        (Branch.ODD_M_SKEW, (3, 5, 7)),
        (Branch.EVEN_M_SKEW, (2, 4, 6)),
        (Branch.EVEN_N_SYM, (2, 3, 4)),
    ]
    rng = random.Random(61)
    cases = [
        (sample_spec(branch, m, rng), 0)
        for branch, ms in moduli
        for m in ms
        for _ in range(15)
    ]
    # the sampler's even-m specs all take a shear; these take none, one
    # shear-T and one shear-R
    cases += [(spec, 0) for spec in _EVEN_M_SHAPES]
    cases.append((_fallback_spec(), 1))
    calls = _hermite_counter(monkeypatch)
    trivial = set()
    for spec, budget in cases:
        calls.clear()
        trace = solve(spec)
        assert len(calls) == budget, (spec.to_json(), len(calls))
        if spec.branch is not Branch.EVEN_N_SYM:
            trivial.add(any(map(_trivial_unit, _block_quotients(spec, trace))))
    assert trivial == {True, False}


def test_the_reduced_bezout_pair_equals_the_hermite_oracle():
    # the solver's pair starts from determinants, the oracle's from a
    # Hermite form with transform; the round-off makes them equal
    rng = random.Random(2701)
    paths = set()
    for m in range(2, 14):
        branch = Branch.ODD_M_SKEW if m % 2 else Branch.EVEN_M_SKEW
        for _ in range(12):
            spec = sample_spec(branch, m, rng)
            x1, x2 = _block_quotients(spec, solve(spec))
            pair = _reduced_pair(x1, x2)
            assert pair == hermite_bezout_pair(x1, x2), spec.to_json()
            assert pair[0] * x1 + pair[1] * x2 == GroupRingElement.one(m)
            paths.add(any(map(_trivial_unit, (x1, x2))))
    assert paths == {True, False}


def test_the_hermite_fallback_runs_once_where_the_determinants_keep_a_factor(monkeypatch):
    spec = _fallback_spec()
    x1, x2 = _block_quotients(spec, solve(spec))
    m = spec.m
    # N = x1*conj(x1) + x2*conj(x2) and the folded combinations, in order
    ys = [x1 * x1.conj() + x2 * x2.conj(), x1, x2, x1 + x2, x1 - x2]
    assert math.gcd(*(det_int(mult_matrix(y)) for y in ys)) == 2
    calls = _hermite_counter(monkeypatch)
    pair = _reduced_pair(x1, x2)
    assert len(calls) == 1
    assert pair == hermite_bezout_pair(x1, x2)
    assert pair[0] * x1 + pair[1] * x2 == GroupRingElement.one(m)


def test_a_proper_ideal_gives_no_pair_on_both_routes(monkeypatch):
    calls = _hermite_counter(monkeypatch)
    g6 = GroupRingElement.gen(6)
    one6 = GroupRingElement.one(6)
    routes = [
        # 1 - g + g^2 and s both vanish at a primitive 6th root of unity, so
        # det mult(N) = 0 and no Hermite form runs. aug(b2) = 0 is even, so
        # the solver's shear-R makes the quotients (1 - g + g^2, -s)
        (EmbeddingSpec(6, Branch.EVEN_M_SKEW, one6, one6 - g6 + g6 * g6, el(6)), 0),
        # 2 - g vanishes nowhere, but Lambda / (s, 2 - g) = Z / 7: the
        # determinants keep the factor 7 and one Hermite form decides
        (spec_of(3, Branch.ODD_M_SKEW, [1], [2, -1], [0]), 1),
    ]
    for spec, forms in routes:
        with pytest.raises(PreconditionFailed) as by_validate:
            spec.validate()
        calls.clear()
        with pytest.raises(PreconditionFailed) as by_solve:
            solve(spec)
        assert str(by_solve.value) == str(by_validate.value) == complement._SKEW_NOT_UNIT
        assert len(calls) == forms
    s6 = GroupRingElement.norm(6)
    calls.clear()
    assert _reduced_pair(one6 - g6 + g6 * g6, -s6) is None
    assert calls == []
    g3 = GroupRingElement.gen(3)
    assert _reduced_pair(2 * GroupRingElement.one(3) - g3, el(3)) is None
    assert len(calls) == 1


def _unit_ideal_failures(m):
    """(a2, b2) with lambda(v2, v2) = 0 but (a2, s, b2) a proper ideal."""
    g = GroupRingElement.gen(m)
    one = GroupRingElement.one(m)
    zero = GroupRingElement.zero(m)
    sym = one + g + g.conj()
    return [
        (zero, zero),  # a2 = b2 = 0, which the normalization calls Degenerate
        (GroupRingElement.integer(m, m), zero),  # l = m
        (one - g, zero),  # l = 0
        (zero, GroupRingElement.integer(m, 2 * m)),  # l = 2m
        # l = 1, but Lambda / (s, 2 - g) = Z / (2^m - 1)
        (2 * one - g, zero),
        (2 * one - g, (2 * one - g) * sym),
        (zero, 2 * one - g),
    ]


def test_solve_rejects_a_proper_unit_ideal_as_validate_does():
    # the skew solvers answer validate's unit-ideal test from their own
    # Hermite forms; the error class and message must stay validate's
    cases = 0
    for branch, moduli in ((Branch.ODD_M_SKEW, (3, 5, 7)), (Branch.EVEN_M_SKEW, (2, 4, 6))):
        for m in moduli:
            a1 = GroupRingElement(m, [1] + [0] * (m - 1))
            for a2, b2 in _unit_ideal_failures(m):
                spec = EmbeddingSpec(m, branch, a1, a2, b2)
                v2 = spec.vectors()[1]
                assert lambda_eval(spec.module(), v2, v2).is_zero()
                with pytest.raises(PreconditionFailed) as by_validate:
                    spec.validate()
                with pytest.raises(PreconditionFailed) as by_solve:
                    solve(spec)
                assert type(by_solve.value) is type(by_validate.value)
                assert str(by_solve.value) == str(by_validate.value)
                assert "must generate the unit ideal" in str(by_solve.value)
                cases += 1
    assert cases == 42


def test_validate_and_solve_reject_the_same_seeded_skew_specs():
    # (a2, b2) = t*(w1, w2) keeps lambda(v2, v2) = 0 for any t; the unit
    # ideal holds for some t and fails for others
    rng = random.Random(67)
    outcomes = set()
    for m in range(2, 10):
        branch = Branch.ODD_M_SKEW if m % 2 else Branch.EVEN_M_SKEW
        for _ in range(12):
            w1, w2 = complement._skew_pair_sample(rng, m)
            t = rng.choice([
                el(m, *(rng.randint(-1, 2) for _ in range(m))),
                GroupRingElement.geometric(m, rng.randrange(2 * m)),
                GroupRingElement.integer(m, rng.choice([-1, 1, 2, 3])),
            ])
            a1 = el(m, *(rng.randint(-2, 2) for _ in range(m)))
            spec = EmbeddingSpec(m, branch, a1, t * w1, t * w2)
            try:
                spec.validate()
            except PreconditionFailed as exc:
                assert str(exc) == complement._SKEW_NOT_UNIT
                with pytest.raises(PreconditionFailed) as by_solve:
                    solve(spec)
                assert type(by_solve.value) is type(exc)
                assert str(by_solve.value) == str(exc)
                outcomes.add(False)
            else:
                assert solve(spec).replay()
                outcomes.add(True)
    assert outcomes == {True, False}


def test_spec_with_a_modulus_past_the_digit_limit_is_a_precondition_failure():
    spec = {"branch": "odd-m", "a1": [], "a2": [], "b2": []}
    for m in (10**5000, -(10**5000)):
        with pytest.raises(PreconditionFailed, match="16610-bit"):
            EmbeddingSpec.from_json(dict(spec, m=m))


def test_spec_from_json_names_an_object_that_is_not_a_dict():
    # 5 and None raised a bare TypeError; a string holding every key passed
    # the key check and then raised one too
    for obj in (5, None, "m branch a1 a2 b2", ["m", "branch", "a1", "a2", "b2"]):
        with pytest.raises(PreconditionFailed, match="^a spec must be a JSON object$"):
            EmbeddingSpec.from_json(obj)


def _traces_with_every_step():
    """Solved traces whose steps cover shear-T, shear-R, the transport, swap and negate."""
    rng = random.Random(2601)
    specs = list(_EVEN_M_SHAPES) + [
        # aug(a2) = 0 swaps, and then aug(x) = aug(b2) = -1 negates
        spec_of(3, Branch.EVEN_N_SYM, [1], [1, -1], [-1]),
    ]
    for branch, moduli in ((Branch.ODD_M_SKEW, (3, 5, 7)), (Branch.EVEN_M_SKEW, (2, 4, 6)),
                           (Branch.EVEN_N_SYM, (2, 3, 4, 5))):
        specs += [sample_spec(branch, m, rng) for m in moduli for _ in range(6)]
    traces = [solve(spec) for spec in specs]
    names = {step.name for trace in traces for step in trace.steps}
    assert names == {"shear-T", "shear-R", "vector-transport", "swap-e2-f2", "negate-block-2"}
    return traces


def test_a_step_applies_its_live_rows_as_its_dense_matrix_does():
    rng = random.Random(2602)
    for trace in _traces_with_every_step():
        m = trace.certificate.S[0].m
        vs = list(trace.certificate.S)
        vs += [RingVector([el(m, *[rng.randint(-3, 3) for _ in range(m)]) for _ in range(4)])
               for _ in range(3)]
        for step in trace.steps:
            dense = step.matrix
            assert step == complement.TraceStep(step.name, dense)
            assert hash(step) == hash(complement.TraceStep(step.name, dense))
            # the live rows are the rows of the matrix that are not the identity's
            identity = RingMatrix.identity(4, m).rows
            assert [i for i, _ in step.live] == [i for i in range(4) if dense.rows[i] != identity[i]]
            for v in vs:
                assert tuple(step._apply(list(coords(v)))) == coords(dense * v)
        assert trace.replay()


def test_replay_fails_when_one_entry_of_a_recorded_step_changes():
    changed = set()
    for trace in _traces_with_every_step():
        m = trace.certificate.S[0].m
        vs = list(trace.certificate.S)
        for k, step in enumerate(trace.steps):
            rows = [list(r) for r in step.matrix.rows]
            for i, row in step.live:
                for j in range(4):
                    if all(v[j].is_zero() for v in vs):
                        continue  # the entry meets only zero coordinates
                    bent = [list(r) for r in rows]
                    bent[i][j] = bent[i][j] + GroupRingElement.one(m)
                    steps = list(trace.steps)
                    steps[k] = complement.TraceStep(step.name, RingMatrix(bent))
                    assert not dataclasses.replace(trace, steps=tuple(steps)).replay()
                    changed.add(step.name)
            vs = [step.matrix * v for v in vs]
    assert changed == {"shear-T", "shear-R", "vector-transport", "swap-e2-f2", "negate-block-2"}


def _solver_transports():
    calls = []

    def recording(*args):
        calls.append(args)
        return rank2_vector_isometry(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complement, "rank2_vector_isometry", recording)
        rng = random.Random(2603)
        for branch, moduli in ((Branch.ODD_M_SKEW, (3, 5, 7)), (Branch.EVEN_M_SKEW, (2, 4, 6))):
            for m in moduli:
                for _ in range(6):
                    solve(sample_spec(branch, m, rng))
    return calls + list(_unit_row_transports(random.Random(2604)))


def test_the_transport_target_cache_changes_no_result():
    calls = _solver_transports()
    cache = complement._transport_target
    cache.cache_clear()
    warm = [rank2_vector_isometry(*args) for args in calls]
    assert cache.cache_info().hits > 0
    for args, M in zip(calls, warm):
        cache.cache_clear()
        assert rank2_vector_isometry(*args) == M
        assert rank2_vector_isometry(*args) == M


def test_a_failed_transport_raises_as_before_and_caches_nothing():
    m = 4
    Q = QuadraticModule(m, 1, -1, FormParameterKind.TILDE)
    one, zero = el(m, 1), el(m, 0)
    x = RingVector([one, zero])
    q3 = QuadraticModule(3, 1, -1, FormParameterKind.TILDE)
    x3 = RingVector([el(3, 1), el(3, 0, 1)])
    y3 = x3.scaled(GroupRingElement.gen(3))
    cases = (
        (Q, x, x, (one, zero), (zero, one),
         "target Bezout pair does not satisfy p*x1 + q*x2 = 1"),
        (q3, x3, y3, bezout(x3), bezout(y3),
         "source vector is not isotropic: lambda(x, x) must vanish"),
        (Q, x, RingVector([one, el(m, 0, 0, 1)]), (one, zero), (one, zero),
         "mu classes differ between source and target"),
    )
    for Qc, source, target, p, q, message in cases:
        complement._transport_target.cache_clear()
        for _ in range(2):
            with pytest.raises(PreconditionFailed) as info:
                rank2_vector_isometry(Qc, source, target, p, q)
            assert type(info.value) is PreconditionFailed and str(info.value) == message
        assert complement._transport_target.cache_info().currsize == 0


def test_the_transport_target_cache_stays_bounded():
    # (1, n) is isotropic for eps = -1, of class [n] = 0 for odd m, and has
    # Bezout pair (1, 0), so each n is a distinct valid target
    m = 5
    Q = QuadraticModule(m, 1, -1, FormParameterKind.TILDE)
    one, zero = el(m, 1), el(m, 0)
    x = RingVector([one, zero])
    complement._transport_target.cache_clear()
    for n in range(1, 71):
        y = RingVector([one, el(m, n)])
        M = rank2_vector_isometry(Q, x, y, (one, zero), (one, zero))
        assert M * x == y
    assert complement._transport_target.cache_info().currsize == 64


def test_a_pickled_trace_of_each_branch_still_replays():
    rng = random.Random(2703)
    for branch, m in ((Branch.ODD_M_SKEW, 7), (Branch.EVEN_M_SKEW, 6), (Branch.EVEN_N_SYM, 5)):
        trace = solve(sample_spec(branch, m, rng))
        for back in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
            assert back == trace and back.to_json() == trace.to_json()
            assert back.replay() is True
