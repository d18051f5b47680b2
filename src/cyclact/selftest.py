"""Built-in smoke suites behind the `cyclact selftest` command.

Each suite exercises one layer with seeded random data and returns a
per-case tally. Summaries are deterministic in (scope, seed): the
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
    cohomology_basis,
    d2_rank,
    spin_line_report,
    steenrod_square,
)

SCOPES = ("ring", "forms", "lagrangian", "ahss", "census")


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


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _rand_el(rng: random.Random, m: int, height: int = 3) -> GroupRingElement:
    return GroupRingElement(m, [rng.randint(-height, height) for _ in range(m)])


def _suite_ring(seed: int) -> SuiteResult:
    rng = _rng(seed, "ring")
    cases = []
    for m in range(2, 9):
        ok = True
        note = ""
        s = GroupRingElement.norm(m)
        for _ in range(40):
            x = _rand_el(rng, m)
            if x * s != s * x.aug():
                ok, note = False, f"norm identity failed at m={m}"
                break
            if x.conj().conj() != x:
                ok, note = False, f"involution not involutive at m={m}"
                break
        cases.append((f"ring/norm-and-involution/m={m}", "pass" if ok else "fail", note))
    for m in (3, 4, 5, 7):
        ok = True
        note = ""
        for _ in range(25):
            a, b = _rand_el(rng, m), _rand_el(rng, m)
            if b.is_zero():
                continue
            q = exact_divide(a * b, b).quotient
            if q * b != a * b:
                ok, note = False, "division roundtrip failed"
                break
        cases.append((f"ring/divide-roundtrip/m={m}", "pass" if ok else "fail", note))
    for m in (3, 4, 6, 7):
        ok = True
        note = ""
        tried = 0
        while tried < 12:
            gens = [_rand_el(rng, m, 2) for _ in range(2)]
            try:
                norm = ideal_normalize(gens)
            except PreconditionFailed:
                continue
            except Exception as exc:  # noqa: BLE001 - tally, do not abort
                ok, note = False, f"{type(exc).__name__}: {exc}"
                break
            tried += 1
            if not norm.verify():
                ok, note = False, "norm data failed verification"
                break
        cases.append((f"ring/normalize/m={m}", "pass" if ok else "fail", note))
    return SuiteResult("ring", tuple(cases), ())


def _suite_forms(seed: int) -> SuiteResult:
    rng = _rng(seed, "forms")
    cases = []
    plan = (
        (3, -1, FormParameterKind.TILDE),
        (4, -1, FormParameterKind.TILDE),
        (5, 1, FormParameterKind.MINUS),
    )
    for m, eps, kind in plan:
        Q = QuadraticModule(m, 2, eps, kind)
        ok = True
        note = ""
        for _ in range(25):
            x = RingVector([_rand_el(rng, m, 2) for _ in range(Q.dim)])
            y = RingVector([_rand_el(rng, m, 2) for _ in range(Q.dim)])
            c = _rand_el(rng, m, 2)
            if lambda_eval(Q, x.scaled(c), y) != c * lambda_eval(Q, x, y):
                ok, note = False, "left linearity failed"
                break
            if lambda_eval(Q, x, y.scaled(c)) != lambda_eval(Q, x, y) * c.conj():
                ok, note = False, "right conjugate-linearity failed"
                break
            sym = lambda_eval(Q, y, x)
            if sym != lambda_eval(Q, x, y).conj() * eps:
                ok, note = False, "hermitian symmetry failed"
                break
            r = Q.rank
            lift = GroupRingElement.zero(m)
            for i in range(r):
                lift = lift + (x.coords[i] + y.coords[i]) * (
                    x.coords[r + i] + y.coords[r + i]
                ).conj()
            lift_x = GroupRingElement.zero(m)
            lift_y = GroupRingElement.zero(m)
            for i in range(r):
                lift_x = lift_x + x.coords[i] * x.coords[r + i].conj()
                lift_y = lift_y + y.coords[i] * y.coords[r + i].conj()
            want = param_reduce(lift_x + lift_y + lambda_eval(Q, x, y), kind)
            if param_reduce(lift, kind) != want:
                ok, note = False, "quadratic refinement law failed"
                break
        cases.append(
            (f"forms/sesquilinear/m={m}/{kind.value}", "pass" if ok else "fail", note)
        )
    for m in (3, 4):
        Q = QuadraticModule(m, 2, -1, FormParameterKind.TILDE)
        ok = True
        note = ""
        for base in (("e1", "f2"), ("e2", "f1")):
            for _ in range(10):
                c = _rand_el(rng, m, 2)
                M = transvection(Q, base, c)
                if not isometry_check(Q, M):
                    ok, note = False, f"transvection {base} not an isometry"
                    break
                prod = M * transvection(Q, base, -c)
                if prod != RingMatrix.identity(Q.dim, m):
                    ok, note = False, f"transvection {base} inverse failed"
                    break
            if not ok:
                break
        cases.append((f"forms/transvections/m={m}", "pass" if ok else "fail", note))
    return SuiteResult("forms", tuple(cases), ())


def _suite_lagrangian(seed: int) -> SuiteResult:
    rng = _rng(seed, "lagrangian")
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


def _suite_ahss(seed: int) -> SuiteResult:
    rng = _rng(seed, "ahss")
    cases = []
    ok = all(d2_rank(m, 5) == 1 for m in range(2, 21, 2))
    cases.append(
        ("ahss/rank-H3-H5", "pass" if ok else "fail", "" if ok else "rank mismatch")
    )
    ok = True
    note = ""
    for m in (2, 4, 6, 8):
        for _ in range(20):
            d = rng.randrange(0, 7)
            (c,) = cohomology_basis(m, d)
            if not steenrod_square(d, c).is_zero() and steenrod_square(d, c) != c * c:
                ok, note = False, "top square is not the cup square"
                break
            if d > 0 and not steenrod_square(d + 1 + rng.randrange(3), c).is_zero():
                ok, note = False, "square above the degree did not vanish"
                break
            k = rng.randrange(0, 5)
            d2v = rng.randrange(0, 4)
            (c2,) = cohomology_basis(m, d2v)
            lhs = steenrod_square(k, c * c2)
            rhs = None
            for i in range(k + 1):
                term = steenrod_square(i, c) * steenrod_square(k - i, c2)
                rhs = term if rhs is None else rhs + term
            if lhs != rhs:
                ok, note = False, "Cartan formula failed"
                break
        if not ok:
            break
    cases.append(("ahss/squares", "pass" if ok else "fail", note))
    ok = True
    note = ""
    for m in (2, 3, 4, 5, 6):
        for twisted in (False, True):
            rep = spin_line_report(m, twisted)
            if not rep.conclusion_zero:
                ok, note = False, f"line not zero at m={m} twisted={twisted}"
                break
        if not ok:
            break
    cases.append(("ahss/six-line", "pass" if ok else "fail", note))
    return SuiteResult("ahss", tuple(cases), ())


def _suite_census(seed: int) -> SuiteResult:
    rng = _rng(seed, "census")
    cases = []
    ok = True
    note = ""
    for _ in range(150):
        n = rng.randrange(2, 10)
        m = rng.randrange(2, 13)
        g = rng.randrange(0, 60)
        exists, _ = existence_check(ActionQuery(n, m, g))
        if exists != ((g + (-1) ** n) % m == 0):
            ok, note = False, f"existence mismatch at n={n} m={m} g={g}"
            break
    cases.append(("census/existence", "pass" if ok else "fail", note))
    ok = True
    note = ""
    checks = [
        (ActionQuery(3, 3, 4), 1),
        (ActionQuery(3, 2, 3), 2),
        (ActionQuery(8, 7, 6), 49),
        (ActionQuery(9, 7, 8), 49),
    ]
    for q, want in checks:
        got = classification(q).class_count
        if got != want:
            ok, note = False, f"count {got} != {want} for n={q.n} m={q.m}"
            break
    cases.append(("census/counts", "pass" if ok else "fail", note))
    report = classification(ActionQuery(8, 6, 5))
    ok = report.parameterization == "OUT_OF_RANGE"
    cases.append(
        ("census/guard", "pass" if ok else "fail", "" if ok else "guard not applied")
    )
    return SuiteResult("census", tuple(cases), ())


_SUITES = {
    "ring": _suite_ring,
    "forms": _suite_forms,
    "lagrangian": _suite_lagrangian,
    "ahss": _suite_ahss,
    "census": _suite_census,
}


def run_suite(name: str, seed: int) -> SuiteResult:
    if not (isinstance(name, str) and name in _SUITES):
        raise PreconditionFailed(f"unknown suite: {value_text(name)}")
    return _SUITES[name](seed)


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
