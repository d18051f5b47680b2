"""Acceptance gate: one test per shipped guarantee, with runtime bounds.

Each criterion is a separate test so `pytest -v` prints one pass/fail
line per guarantee. All comparisons are exact; the randomized parts use
fixed seeds. Stated runtime bounds are asserted, not aspirational.
"""

import itertools
import random
import time

from cyclact.census import ActionQuery, classification, existence_check
from cyclact.complement import Branch, EmbeddingSpec, run_sweep, sample_spec, solve
from cyclact.forms import (
    QuadraticModule,
    RingMatrix,
    isometry_check,
    mu_eval,
    ring_det,
    transvection,
    verify_lagrangian_complement,
)
from cyclact.groupring import (
    FormParameterKind,
    GroupRingElement,
    ideal_contains_one,
    ideal_normalize,
    param_reduce,
)
from cyclact.spectral import PAPER_CITED, d2_rank, spin_line_report

from oracles import ideal_hnf


def rand_el(rng, m, h=2):
    return GroupRingElement(m, [rng.randint(-h, h) for _ in range(m)])


def test_criterion_1_norm_identity():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for m in range(2, 13):
        s = GroupRingElement.norm(m)
        for _ in range(1000):
            x = rand_el(rng, m, 3)
            assert x * s == s * x.aug()
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_ideal_normalization():
    t0 = time.perf_counter()
    rng = random.Random(202)
    for m in range(2, 13):
        s = GroupRingElement.norm(m)
        accepted = 0
        attempts = 0
        while accepted < 200:
            attempts += 1
            assert attempts < 20000
            gens = [rand_el(rng, m) for _ in range(2)]
            if not ideal_contains_one(gens + [s]):
                continue
            norm = ideal_normalize(gens)
            # independent check that u generates the same lattice as the
            # input ideal, plus the certified inverse identity
            assert ideal_hnf(m, [norm.u.coeffs]) == ideal_hnf(
                m, [g.coeffs for g in gens]
            )
            assert norm.u * norm.v == GroupRingElement.one(m) - (
                GroupRingElement.norm(m) * norm.a
            )
            accepted += 1
    assert time.perf_counter() - t0 < 30.0


def test_criterion_3_determinant_anchors():
    t0 = time.perf_counter()
    rng = random.Random(303)
    for _ in range(100):
        m = rng.randint(2, 8)
        u, v, a1 = rand_el(rng, m), rand_el(rng, m), rand_el(rng, m)
        a = rng.randint(-4, 4)
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
    for _ in range(100):
        m = rng.randint(2, 8)
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
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_isometry_anchors():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for m in range(2, 9):
        Q = QuadraticModule(m, 2, -1, FormParameterKind.TILDE)
        for _ in range(20):
            R = transvection(Q, ("e1", "f2"), rand_el(rng, m))
            T = transvection(Q, ("e2", "f1"), rand_el(rng, m))
            assert isometry_check(Q, R)
            assert isometry_check(Q, T)
    plans = [
        (Branch.ODD_M_SKEW, 3),
        (Branch.ODD_M_SKEW, 5),
        (Branch.EVEN_M_SKEW, 2),
        (Branch.EVEN_M_SKEW, 4),
        (Branch.EVEN_N_SYM, 3),
        (Branch.EVEN_N_SYM, 4),
    ]
    checked = 0
    for branch, m in plans:
        for _ in range(15):
            spec = sample_spec(branch, m, rng)
            trace = solve(spec)
            J = spec.module().gram_matrix()
            for step in trace.steps:
                if step.kind != "ambient":
                    continue
                A = step.matrix
                assert A * J * A.conj().transpose() == J
                checked += 1
    assert checked > 0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_5_lagrangian_sweep():
    t0 = time.perf_counter()
    plans = (
        [(Branch.ODD_M_SKEW, m) for m in (3, 5, 7, 9)]
        + [(Branch.EVEN_M_SKEW, m) for m in (2, 4, 6)]
        + [(Branch.EVEN_N_SYM, m) for m in range(2, 8)]
    )
    total = exhausted = 0
    for branch, m in plans:
        report = run_sweep(branch, m, 100, seed=505)
        assert report.failures == (), (branch, m, report.failures)
        total += report.count
        exhausted += report.exhausted
    rate = exhausted / total
    print(f"search-exhausted rate: {rate:.4f} ({exhausted}/{total})")
    assert rate < 0.10
    assert time.perf_counter() - t0 < 300.0


def test_criterion_6_mu_class_anchors():
    t0 = time.perf_counter()
    heights = range(-2, 3)
    # product identity, exhaustive where the pair space allows it
    for m in (2, 3, 4):
        Q = QuadraticModule(m, 2, -1, FormParameterKind.TILDE)
        els = [
            GroupRingElement(m, list(c))
            for c in itertools.product(heights, repeat=m)
        ]
        for a in els:
            for b in els:
                v = Q.vector({"e2": a, "f2": b})
                assert mu_eval(Q, v) == param_reduce(a * b.conj(), Q.kind)
    rng = random.Random(606)
    Q6 = QuadraticModule(6, 2, -1, FormParameterKind.TILDE)
    for _ in range(30000):
        a, b = rand_el(rng, 6), rand_el(rng, 6)
        v = Q6.vector({"e2": a, "f2": b})
        assert mu_eval(Q6, v) == param_reduce(a * b.conj(), Q6.kind)
    # norm pairing, exhaustive over single coefficients for all four m
    for m in (2, 3, 4, 6):
        Q = QuadraticModule(m, 2, -1, FormParameterKind.TILDE)
        s = GroupRingElement.norm(m)
        if m % 2 == 0:
            target = param_reduce(GroupRingElement.gen(m, m // 2), Q.kind)
        for c in itertools.product(heights, repeat=m):
            v = GroupRingElement(m, list(c))
            got = mu_eval(Q, Q.vector({"e2": v, "f2": s}))
            if m % 2 == 1 or v.aug() % 2 == 0:
                assert got.is_zero()
            else:
                assert got == target
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_steenrod_ranks():
    t0 = time.perf_counter()
    for m in range(2, 21, 2):
        assert d2_rank(m, 5) == 1
        assert d2_rank(m, 6, twisted=True) == 1
        assert d2_rank(m, 7, twisted=True) == 1
    assert d2_rank(2, 6) == 0
    assert time.perf_counter() - t0 < 5.0


def test_criterion_8_six_line_reports():
    t0 = time.perf_counter()
    for m in range(2, 13):
        for twisted in (False, True):
            rep = spin_line_report(m, twisted)
            assert rep.conclusion_zero, (m, twisted)
            cited = [s for s in rep.steps if s["provenance"] == PAPER_CITED]
            if m % 2 == 0 and not twisted:
                assert len(cited) == 1
                assert cited[0]["entry"] == [4, 2]
            else:
                assert cited == []
    assert time.perf_counter() - t0 < 5.0


def test_criterion_9_census_gate():
    t0 = time.perf_counter()
    for n in range(2, 10):
        sign = (-1) ** n
        for m in range(2, 13):
            for genus in range(0, 51):
                q = ActionQuery(n=n, m=m, genus=genus, pontryagin=None)
                got, _ = existence_check(q)
                # oracle: the quotient Euler characteristic 2(1+(-1)^n g)/m
                # must be an even integer
                want = (2 * (1 + sign * genus)) % (2 * m) == 0
                assert got == want, (n, m, genus)
                if not got:
                    continue
                rep = classification(q)
                if n == 2:
                    assert rep.class_count == 1
                elif n == 3:
                    assert rep.class_count == (1 if m % 2 == 1 else 2)
    # tabulated counts on the classified range, plus its boundary
    for n, m, genus, want in [
        (4, 5, 4, 5),
        (5, 7, 8, 7),
        (6, 5, 4, 5),
        (7, 5, 6, 5),
        (8, 7, 6, 49),
        (9, 7, 8, 49),
        (9, 11, 12, 121),
        (4, 25, 24, 25),
    ]:
        q = ActionQuery(n=n, m=m, genus=genus, pontryagin=None)
        rep = classification(q)
        assert rep.class_count == want, (n, m, genus)
    for n, m, genus in [(8, 6, 5), (9, 5, 6), (4, 3, 2), (8, 35, 34)]:
        rep = classification(ActionQuery(n=n, m=m, genus=genus, pontryagin=None))
        assert rep.exists and rep.parameterization == "OUT_OF_RANGE", (n, m)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_10_bounded_coefficient_growth():
    # Bezout coefficients for this odd-m spec run to 10^5 bits, and the
    # solve to minutes, unless the Hermite elimination controls entry size
    t0 = time.perf_counter()
    spec = EmbeddingSpec(
        13,
        Branch.ODD_M_SKEW,
        GroupRingElement.zero(13),
        GroupRingElement(13, [13, 6, 13, -8, 3, 2, 7, -5, -5, 7, 2, 3, -8]),
        GroupRingElement(13, [0, 1, 0, 1, -2, -2, -2, 0, 0, -2, -2, -2, 1]),
    )
    trace = solve(spec)
    assert trace.replay()
    verify_lagrangian_complement(spec.module(), spec.vectors(), trace.U)
    bits = max(abs(c).bit_length() for v in trace.U for x in v.coords for c in x.coeffs)
    assert bits < 1000
    assert time.perf_counter() - t0 < 5.0
    # the even-n unit-ideal test is a gcd, so a large modulus stays cheap
    t0 = time.perf_counter()
    report = run_sweep(Branch.EVEN_N_SYM, 101, 1, seed=0)
    assert report.solved == 1 and report.failures == ()
    assert time.perf_counter() - t0 < 5.0


def test_criterion_11_wide_moduli_certificates_stay_small():
    # Babai round-off against the syzygies of each Bezout pair keeps U small
    # as m grows: the largest U entry here measured 27 bits (odd-m m = 31),
    # and 2,763 bits when the Hermite transform's pair was used as it came
    t0 = time.perf_counter()
    plans = [(Branch.ODD_M_SKEW, m) for m in (13, 21, 31)]
    plans += [(Branch.EVEN_M_SKEW, m) for m in (12, 20)]
    for branch, m in plans:
        rng = random.Random(5)
        for _ in range(10):
            spec = sample_spec(branch, m, rng)
            trace = solve(spec)
            assert trace.replay()
            verify_lagrangian_complement(spec.module(), spec.vectors(), trace.U)
            bits = max(abs(c).bit_length() for v in trace.U for x in v.coords for c in x.coeffs)
            assert bits <= 64, (branch, m, bits)
    assert time.perf_counter() - t0 < 10.0
