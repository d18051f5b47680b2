"""Built-in smoke suites behind the `cyclact selftest` command.

Each suite exercises one layer with seeded random data and returns a
per-case tally. A case's check is a generator that yields a note for
each failure, and one runner, `_case`, turns its first note into the
case's status. Summaries are deterministic in (scope, seed): the
equality key excludes wall-clock time, so two runs with the same scope
and seed compare equal even across differing machine speeds.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .census import ActionQuery, classification, existence_check
from .complement import Branch, run_sweep
from .errors import PreconditionFailed, value_text
from .forms import (
    QuadraticModule,
    RingMatrix,
    RingVector,
    isometry_check,
    lambda_eval,
    mu_eval,
    transvection,
)
from .groupring import (
    FormParameterKind,
    GroupRingElement,
    exact_divide,
    ideal_normalize,
    param_reduce,
)
from .spectral import (
    CohomologyClass,
    cohomology_basis,
    d2_rank,
    spin_line_report,
    steenrod_square,
)

@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: tuple
    search_exhausted: tuple

    @property
    def passed(self) -> int:
        return sum(1 for _, status, _ in self.cases if status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for _, status, _ in self.cases if status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for _, status, _ in self.cases if status == "skip")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "fail": self.failed,
            "skipped": self.skipped,
            "cases": [list(c) for c in self.cases],
            "searchExhausted": list(self.search_exhausted),
        }


@dataclass(frozen=True)
class RunSummary:
    scope: str
    seed: int
    suites: tuple
    elapsed_s: float

    @property
    def passed(self) -> int:
        return sum(s.passed for s in self.suites)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.suites)

    @property
    def skipped(self) -> int:
        return sum(s.skipped for s in self.suites)

    @property
    def total(self) -> int:
        return self.passed + self.failed + self.skipped

    def key(self) -> tuple:
        """Comparison key, fixed by (scope, seed); wall-clock time is excluded."""
        return (
            self.scope,
            self.seed,
            tuple((s.name, s.cases, s.search_exhausted) for s in self.suites),
        )

    def to_json(self) -> dict:
        return {
            "scope": self.scope,
            "seed": self.seed,
            "total": self.total,
            "pass": self.passed,
            "fail": self.failed,
            "skipped": self.skipped,
            "suites": [s.to_json() for s in self.suites],
            "elapsedSeconds": round(self.elapsed_s, 3),
        }


def _rand_el(rng: random.Random, m: int, height: int = 3) -> GroupRingElement:
    return GroupRingElement(m, [rng.randint(-height, height) for _ in range(m)])


def _case(name: str, failures) -> tuple:
    """The (name, status, note) of a case whose check yields a note per failure.

    Only the first note is drawn: a generator stops there and draws no more
    random numbers. A check that yields nothing passes.
    """
    note = next(iter(failures), None)
    return (name, "pass", "") if note is None else (name, "fail", note)


def _suite_ring(rng: random.Random) -> SuiteResult:
    def norm_and_involution(m):
        s = GroupRingElement.norm(m)
        for _ in range(40):
            x = _rand_el(rng, m)
            if x * s != s * x.aug():
                yield f"norm identity failed at m={m}"
            if x.conj().conj() != x:
                yield f"involution not involutive at m={m}"

    def divide_roundtrip(m):
        for _ in range(25):
            a, b = _rand_el(rng, m), _rand_el(rng, m)
            if b.is_zero():
                continue
            q = exact_divide(a * b, b).quotient
            if q * b != a * b:
                yield "division roundtrip failed"

    def normalize(m):
        tried = 0
        while tried < 12:
            gens = [_rand_el(rng, m, 2) for _ in range(2)]
            try:
                norm = ideal_normalize(gens)
            except PreconditionFailed:
                continue
            except Exception as exc:  # noqa: BLE001 - tally, do not abort
                yield f"{type(exc).__name__}: {exc}"
                return
            tried += 1
            if not norm.verify():
                yield "norm data failed verification"

    cases = [_case(f"ring/norm-and-involution/m={m}", norm_and_involution(m)) for m in range(2, 9)]
    cases += [_case(f"ring/divide-roundtrip/m={m}", divide_roundtrip(m)) for m in (3, 4, 5, 7)]
    cases += [_case(f"ring/normalize/m={m}", normalize(m)) for m in (3, 4, 6, 7)]
    return SuiteResult("ring", tuple(cases), ())


def _suite_forms(rng: random.Random) -> SuiteResult:
    def sesquilinear(m, eps, kind):
        Q = QuadraticModule(m, 2, eps, kind)
        for _ in range(25):
            x = RingVector([_rand_el(rng, m, 2) for _ in range(Q.dim)])
            y = RingVector([_rand_el(rng, m, 2) for _ in range(Q.dim)])
            c = _rand_el(rng, m, 2)
            xy = lambda_eval(Q, x, y)
            if lambda_eval(Q, x.scaled(c), y) != c * xy:
                yield "left linearity failed"
            if lambda_eval(Q, x, y.scaled(c)) != xy * c.conj():
                yield "right conjugate-linearity failed"
            if lambda_eval(Q, y, x) != xy.conj() * eps:
                yield "hermitian symmetry failed"
            # mu(x + y) = mu(x) + mu(y) + [lambda(x, y)]
            if mu_eval(Q, x + y) != mu_eval(Q, x) + mu_eval(Q, y) + param_reduce(xy, kind):
                yield "quadratic refinement law failed"

    def transvections(m):
        Q = QuadraticModule(m, 2, -1, FormParameterKind.TILDE)
        for base in (("e1", "f2"), ("e2", "f1")):
            for _ in range(10):
                c = _rand_el(rng, m, 2)
                M = transvection(Q, base, c)
                if not isometry_check(Q, M):
                    yield f"transvection {base} not an isometry"
                prod = M * transvection(Q, base, -c)
                if prod != RingMatrix.identity(Q.dim, m):
                    yield f"transvection {base} inverse failed"

    tilde = FormParameterKind.TILDE
    cases = [
        _case(f"forms/sesquilinear/m={m}/{kind.value}", sesquilinear(m, eps, kind))
        for m, eps, kind in ((3, -1, tilde), (4, -1, tilde), (5, 1, FormParameterKind.MINUS))
    ]
    cases += [_case(f"forms/transvections/m={m}", transvections(m)) for m in (3, 4)]
    return SuiteResult("forms", tuple(cases), ())


def _suite_lagrangian(rng: random.Random) -> SuiteResult:
    cases = []
    incidents = []
    plan = [
        (Branch.ODD_M_SKEW, 3),
        (Branch.ODD_M_SKEW, 5),
        (Branch.EVEN_M_SKEW, 2),
        (Branch.EVEN_M_SKEW, 4),
        (Branch.EVEN_N_SYM, 3),
        (Branch.EVEN_N_SYM, 4),
    ]
    for branch, m in plan:
        report = run_sweep(branch, m, 8, rng.randrange(10**6))
        status = "pass" if not report.failures else "fail"
        note = "; ".join(report.failures[:2])
        cases.append((f"lagrangian/sweep/{branch.value}/m={m}", status, note))
        incidents.extend(
            f"{branch.value}/m={m}" for _ in range(report.exhausted)
        )
    return SuiteResult("lagrangian", tuple(cases), tuple(incidents))


def _suite_ahss(rng: random.Random) -> SuiteResult:
    def squares():
        for m in (2, 4, 6, 8):
            for _ in range(20):
                d = rng.randrange(0, 7)
                (c,) = cohomology_basis(m, d)
                top = steenrod_square(d, c)
                if not top.is_zero() and top != c * c:
                    yield "top square is not the cup square"
                if d > 0 and not steenrod_square(d + 1 + rng.randrange(3), c).is_zero():
                    yield "square above the degree did not vanish"
                k = rng.randrange(0, 5)
                d2v = rng.randrange(0, 4)
                (c2,) = cohomology_basis(m, d2v)
                terms = (steenrod_square(i, c) * steenrod_square(k - i, c2) for i in range(k + 1))
                if steenrod_square(k, c * c2) != sum(terms, CohomologyClass.zero(m)):
                    yield "Cartan formula failed"

    six_line = (
        f"line not zero at m={m} twisted={twisted}"
        for m in (2, 3, 4, 5, 6)
        for twisted in (False, True)
        if not spin_line_report(m, twisted).conclusion_zero
    )
    cases = (
        _case("ahss/rank-H3-H5", ("rank mismatch" for m in range(2, 21, 2) if d2_rank(m, 5) != 1)),
        _case("ahss/squares", squares()),
        _case("ahss/six-line", six_line),
    )
    return SuiteResult("ahss", cases, ())


def _suite_census(rng: random.Random) -> SuiteResult:
    def existence():
        for _ in range(150):
            n = rng.randrange(2, 10)
            m = rng.randrange(2, 13)
            g = rng.randrange(0, 60)
            exists, _ = existence_check(ActionQuery(n, m, g))
            if exists != ((g + (-1) ** n) % m == 0):
                yield f"existence mismatch at n={n} m={m} g={g}"

    checks = [
        (ActionQuery(3, 3, 4), 1),
        (ActionQuery(3, 2, 3), 2),
        (ActionQuery(8, 7, 6), 49),
        (ActionQuery(9, 7, 8), 49),
    ]
    counts = (
        f"count {got} != {want} for n={q.n} m={q.m}"
        for q, want in checks
        if (got := classification(q).class_count) != want
    )

    def guard():
        if classification(ActionQuery(8, 6, 5)).parameterization != "OUT_OF_RANGE":
            yield "guard not applied"

    cases = (
        _case("census/existence", existence()),
        _case("census/counts", counts),
        _case("census/guard", guard()),
    )
    return SuiteResult("census", cases, ())


_SUITES = {
    "ring": _suite_ring,
    "forms": _suite_forms,
    "lagrangian": _suite_lagrangian,
    "ahss": _suite_ahss,
    "census": _suite_census,
}
SCOPES = tuple(_SUITES)


def run_suite(name: str, seed: int) -> SuiteResult:
    if not (isinstance(name, str) and name in _SUITES):
        raise PreconditionFailed(f"unknown suite: {value_text(name)}")
    return _SUITES[name](random.Random(f"{seed}:{name}"))


def run_selftest(scope: str = "all", seed: int = 0) -> RunSummary:
    if scope == "all":
        names = list(SCOPES)
    elif isinstance(scope, str) and scope in _SUITES:
        names = [scope]
    else:
        raise PreconditionFailed(f"unknown scope: {value_text(scope)}")
    start = time.monotonic()
    results = sorted((run_suite(n, seed) for n in names), key=lambda s: s.name)
    return RunSummary(scope, seed, tuple(results), time.monotonic() - start)
