"""Seeded inputs, operations and output checks for the three workloads.

Every operation is a call into cyclact's public API. Its inputs are made in
set-up from the workload seed, so the timed loop only calls the library. The
checks use the plain integer arithmetic below, not the library, wherever the
expected answer can be computed independently.

Operations look library names up through the module objects at call time
(`cy.complement.solve`, not a bound copy), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable


class WrongAnswer(Exception):
    """An operation returned, but its output failed the harness's check."""


@dataclass
class Op:
    """One operation of a workload.

    `call` is the timed work; `check` raises WrongAnswer on a bad result;
    `replay` is JSON that reproduces the operation (spec JSON or CLI argv).
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    replay: dict
    bits: Callable[[Any], int] = None  # output size; max_bits when None

    def out_bits(self, result) -> int:
        return (self.bits or max_bits)(result)


@dataclass(frozen=True)
class Workload:
    name: str
    # (cyclact package, seed, tick) -> ops; tick() is called after each input
    # is made, so set-up can be timed in pieces.
    make: Callable[[Any, int, Callable[[], None]], list]


# --- plain arithmetic in Z[Z/m] on coefficient tuples ------------------------


def conv(a, b) -> list:
    m = len(a)
    out = [0] * m
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % m] += x * y
    return out


def conj(a) -> list:
    m = len(a)
    return [a[(m - i) % m] for i in range(m)]


def add(a, b) -> list:
    return [x + y for x, y in zip(a, b)]


def sub(a, b) -> list:
    return [x - y for x, y in zip(a, b)]


def one(m: int) -> list:
    return [1] + [0] * (m - 1)


def geometric(m: int, l: int) -> list:
    """1 + g + ... + g^(l-1) folded modulo g^m = 1, in closed form."""
    return [l // m + (1 if i < l % m else 0) for i in range(m)]


def lambda_form(x, y, eps: int) -> list:
    """lambda(x, y) for coordinate lists (e_1..e_r, f_1..f_r)."""
    r = len(x) // 2
    m = len(x[0])
    total = [0] * m
    for i in range(r):
        total = add(total, conv(x[i], conj(y[r + i])))
        total = add(total, [eps * c for c in conv(x[r + i], conj(y[i]))])
    return total


def mu_lift(x) -> list:
    r = len(x) // 2
    total = [0] * len(x[0])
    for i in range(r):
        total = add(total, conv(x[i], conj(x[r + i])))
    return total


def in_form_parameter(x, kind: str) -> bool:
    """Membership in the form parameter lattice TILDE, PLUS or MINUS."""
    m = len(x)
    half = m // 2 if m % 2 == 0 else None
    for i in range(1, m):
        j = m - i
        if i == half:
            if kind == "MINUS" and x[i] != 0:
                return False
            if kind != "MINUS" and x[i] % 2:
                return False
        elif i < j and x[i] != (-x[j] if kind == "MINUS" else x[j]):
            return False
    if kind == "MINUS":
        return x[0] == 0
    return kind == "TILDE" or x[0] % 2 == 0


def ring_det(rows) -> list:
    """Leibniz determinant of a small matrix of coefficient lists."""
    n = len(rows)
    m = len(rows[0][0])
    total = [0] * m
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = one(m)
        for i in range(n):
            term = conv(term, rows[i][perm[i]])
        total = add(total, term) if sign > 0 else sub(total, term)
    return total


def max_bits(obj) -> int:
    """Largest bit length of any integer in a result or its JSON form."""
    if hasattr(obj, "to_json"):
        obj = obj.to_json()
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max((max_bits(v) for v in obj), default=0)
    return 0


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# --- sweeps --------------------------------------------------------------------


@dataclass
class SolveResult:
    trace: Any
    replayed: bool


def _check_solve(spec, res: SolveResult) -> None:
    """Replay flag plus an independent check of the returned certificate."""
    _expect(res.replayed, "trace replay mismatch")
    trace = res.trace
    cert = trace.certificate
    S = spec.vectors()
    _expect(tuple(cert.S) == tuple(S), "certificate S is not the input S")
    _expect(tuple(cert.U) == tuple(trace.U), "certificate U is not the returned U")
    Q = spec.module()
    U = [[list(c.coeffs) for c in v.coords] for v in trace.U]
    m = spec.m
    zero = [0] * m
    for u in U:
        for w in U:
            _expect(lambda_form(u, w, Q.eps) == zero, "lambda does not vanish on U")
        _expect(in_form_parameter(mu_lift(u), Q.kind.value), "mu does not vanish on U")
    cols = [[list(c.coeffs) for c in v.coords] for v in list(S) + list(trace.U)]
    n = len(cols)
    d = ring_det([[cols[j][i] for j in range(n)] for i in range(n)])
    d_cert, d_inv = cert.det_evidence
    _expect(d == list(d_cert.coeffs), "certificate determinant is wrong")
    _expect(conv(d, d_inv.coeffs) == one(m), "certificate determinant is not a unit")


def _solve_op(cy, spec, seed: int, index: int) -> Op:
    def call():
        trace = cy.complement.solve(spec)
        return SolveResult(trace, trace.replay())

    spec_json = spec.to_json()
    return Op(
        kind=f"solve {spec.branch.value} m={spec.m}",
        call=call,
        check=lambda res: _check_solve(spec, res),
        bits=lambda res: max_bits([v.to_json() for v in res.trace.U]),
        replay={
            "spec": spec_json,
            "sweep": {"branch": spec.branch.value, "m": spec.m, "seed": seed, "index": index},
            "argv": [
                "lagrangian", "solve", "--branch", spec.branch.value,
                "--m", str(spec.m), "--spec", json.dumps(spec_json),
            ],
        },
    )


def _no_tick() -> None:
    pass


def sweep_ops(cy, seed: int, groups, tick=_no_tick) -> list:
    """Specs drawn as `run_sweep(branch, m, count, seed)` draws them.

    Each (branch, m) group consumes its own random.Random(seed) through
    sample_spec, so op i of a group is spec i of
    `cyclact lagrangian sweep --branch B --m M --seed SEED`. Groups are
    interleaved in proportion to their counts, so every prefix of the list
    has about the same mix as the whole.
    """
    keyed = []
    for g, (branch_name, m, count) in enumerate(groups):
        branch = cy.complement.Branch(branch_name)
        rng = random.Random(seed)
        for i in range(count):
            spec = cy.complement.sample_spec(branch, m, rng)
            keyed.append(((i + 0.5) / count, g, _solve_op(cy, spec, seed, i)))
            tick()
    keyed.sort(key=lambda t: t[:2])
    return [op for _, _, op in keyed]


# Equal spec counts per branch: two odd-m moduli, one even-m, eight even-n.
SWEEP_SMALL = (
    [("odd-m", m, 150) for m in (3, 5)]
    + [("even-m", 2, 300)]
    + [("even-n", m, 38) for m in range(2, 10)]
)

# The largest skew moduli whose solve time is still light-tailed: the HNF
# transform already reaches thousands of bits on some specs. From odd-m
# m = 9 and even-m m = 6 up, a few specs in a thousand take seconds to
# minutes, which no fixed-length run can measure steadily across seeds.
SWEEP_TAIL = [("odd-m", 7, 600), ("even-m", 4, 600)]


# --- algebra-mix ---------------------------------------------------------------


def _rand(rng, m: int, h: int = 2) -> list:
    return [rng.randint(-h, h) for _ in range(m)]


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _op_normalize(cy, rng, m=None) -> Op:
    """ideal_normalize plus exact_divide of each generator by u (criterion 2)."""
    gr = cy.groupring
    E = gr.GroupRingElement
    m = m or rng.randint(2, 12)
    s = E.norm(m)
    while True:
        gens = [E(m, _rand(rng, m)) for _ in range(2)]
        if gr.ideal_contains_one(gens + [s]):
            break
    return _normalize_op(cy, "normalize", gens)


def _op_normalize_big(cy, rng) -> Op:
    """Generators u_l * t with l near 4.5 * 10^5, so geometric(m, l) is costly."""
    E = cy.groupring.GroupRingElement
    m = rng.randint(2, 12)
    l = rng.randint(4 * 10**5, 5 * 10**5)  # a narrow band keeps the cost steady
    while math.gcd(l, m) != 1:
        l += 1
    u = geometric(m, l)
    t = [0] * m
    t[rng.randrange(m)] = rng.choice((1, -1))
    gens = [E(m, conv(u, t)), E(m, conv(u, _rand(rng, m)))]
    return _normalize_op(cy, "normalize l~4.5e5", gens)


def _normalize_op(cy, kind: str, gens) -> Op:
    gr = cy.groupring
    m = gens[0].m

    def call():
        norm = gr.ideal_normalize(gens)
        return norm, [gr.exact_divide(g, norm.u).quotient for g in gens]

    def check(res):
        norm, quots = res
        l = 0
        for g in gens:
            l = math.gcd(l, sum(g.coeffs))
        _expect(norm.l == l, "l is not the gcd of the augmentations")
        _expect(list(norm.u.coeffs) == geometric(m, l), "u is not 1 + g + ... + g^(l-1)")
        _expect(norm.a * m - norm.b * l == 1, "a*m - b*l != 1")
        uv = conv(norm.u.coeffs, norm.v.coeffs)
        _expect(uv == sub(one(m), [norm.a] * m), "u*v != 1 - a*s")
        for g, q in zip(gens, quots):
            _expect(conv(q.coeffs, norm.u.coeffs) == list(g.coeffs), "q*u != x")

    return Op(
        kind=kind,
        call=call,
        check=check,
        replay={"argv": ["ring", "normalize", "--m", str(m),
                         "--gens", json.dumps([list(g.coeffs) for g in gens])]},
    )


def _bass_unit(m: int, k: int) -> list:
    """Bass's unit u_k^phi(m) + ((1 - k^phi(m)) / m) * s, for gcd(k, m) = 1."""
    phi = sum(1 for i in range(1, m + 1) if math.gcd(i, m) == 1)
    x = one(m)
    for _ in range(phi):
        x = conv(x, geometric(m, k))
    c = (1 - k**phi) // m
    return [v + c for v in x]


def _op_unit(cy, rng) -> Op:
    """is_unit on a known unit (Bass unit times +-g^j) or a known non-unit."""
    gr = cy.groupring
    m = rng.randint(3, 12)
    if rng.randrange(2):
        k = rng.choice([k for k in range(2, m) if math.gcd(k, m) == 1])
        t = [0] * m
        t[rng.randrange(m)] = rng.choice((1, -1))
        x, unit = conv(_bass_unit(m, k), t), True
    else:
        x = _rand(rng, m)
        while abs(sum(x)) == 1:
            x = _rand(rng, m)
        unit = False  # a unit has augmentation +-1
    el = gr.GroupRingElement(m, x)

    def check(res):
        _expect(res.is_unit == unit, "is_unit answered wrongly")
        if unit:
            _expect(conv(x, res.inverse.coeffs) == one(m), "x * inverse != 1")

    return Op("is_unit", lambda: gr.is_unit(el), check, {"call": "is_unit", "x": x})


def _random_module(cy, rng, max_rank: int):
    fm = cy.forms
    kind = rng.choice(("TILDE", "PLUS", "MINUS"))
    eps = 1 if kind == "MINUS" else -1
    m = rng.randint(2, 12)
    Q = fm.QuadraticModule(m, rng.randint(1, max_rank), eps, cy.groupring.FormParameterKind[kind])
    return Q


def _vector(cy, Q, coords):
    E = cy.groupring.GroupRingElement
    return cy.forms.RingVector([E(Q.m, c) for c in coords])


def _op_mu(cy, rng) -> Op:
    Q = _random_module(cy, rng, 3)
    x = [_rand(rng, Q.m) for _ in range(Q.dim)]
    v = _vector(cy, Q, x)
    lift = mu_lift(x)

    def check(res):
        rep = list(res.rep.coeffs)
        _expect(in_form_parameter(sub(lift, rep), Q.kind.value), "mu rep is not in the class")
        want = cy.groupring.param_reduce(cy.groupring.GroupRingElement(Q.m, lift), Q.kind)
        _expect(res == want, "mu_eval != param_reduce(sum a_i conj(b_i))")

    replay = {"argv": ["form", "mu", "--m", str(Q.m), "--rank", str(Q.rank),
                       "--sign", str(Q.eps), "--param", Q.kind.value, "--x", json.dumps(x)]}
    return Op("mu_eval", lambda: cy.forms.mu_eval(Q, v), check, replay)


def _op_lambda(cy, rng) -> Op:
    Q = _random_module(cy, rng, 3)
    x = [_rand(rng, Q.m) for _ in range(Q.dim)]
    y = [_rand(rng, Q.m) for _ in range(Q.dim)]
    vx, vy = _vector(cy, Q, x), _vector(cy, Q, y)
    want = lambda_form(x, y, Q.eps)

    def check(res):
        _expect(list(res.coeffs) == want, "lambda_eval is wrong")

    replay = {"argv": ["form", "eval", "--m", str(Q.m), "--rank", str(Q.rank),
                       "--sign", str(Q.eps), "--param", Q.kind.value,
                       "--x", json.dumps(x), "--y", json.dumps(y)]}
    return Op("lambda_eval", lambda: cy.forms.lambda_eval(Q, vx, vy), check, replay)


def _triangular_product(rng, m: int, rank: int):
    """(L*U, prod(diag U)) with L unit lower and U upper triangular."""
    zero = [0] * m
    L = [[one(m) if i == j else (_rand(rng, m, 1) if j < i else zero) for j in range(rank)]
         for i in range(rank)]
    U = [[_rand(rng, m, 1) if j >= i else zero for j in range(rank)] for i in range(rank)]
    M = [[zero] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            acc = zero
            for k in range(rank):
                acc = add(acc, conv(L[i][k], U[k][j]))
            M[i][j] = acc
    det = one(m)
    for i in range(rank):
        det = conv(det, U[i][i])
    return M, det


def _op_det(cy, rng) -> Op:
    E = cy.groupring.GroupRingElement
    m = rng.randint(2, 8)
    rank = rng.randint(1, 6)
    M, want = _triangular_product(rng, m, rank)
    mat = cy.forms.RingMatrix([[E(m, c) for c in row] for row in M])

    def check(res):
        _expect(list(res.coeffs) == want, "ring_det != product of the triangular diagonal")

    return Op(f"ring_det rank {rank}", lambda: cy.forms.ring_det(mat), check,
              {"argv": ["form", "det", "--m", str(m), "--matrix", json.dumps(M)]})


def _op_spin(cy, rng) -> Op:
    m = rng.randint(2, 12)
    twisted = bool(rng.randrange(2))

    def check(res):
        _expect(res.conclusion_zero, "6-line conclusion is not zero")

    argv = ["ahss", "report", "--m", str(m)] + (["--twisted"] if twisted else [])
    return Op("spin_line_report", lambda: cy.spectral.spin_line_report(m, twisted), check, {"argv": argv})


def _square_expected(m: int, k: int, i: int, j: int):
    """Sq^k of the monomial x^i y^j, as a set of monomials, by Cartan."""
    if k == 0:
        return {(i, j)}
    if m % 4 == 2:
        return {(i + k, 0)} if math.comb(i, k) % 2 else set()
    if k % 2 == 0 and math.comb(j, k // 2) % 2:
        return {(i, j + k // 2)}
    return set()


def _monomial_text(i: int, j: int) -> str:
    parts = ([f"x^{i}"] if i else []) + ([f"y^{j}"] if j else [])
    return "*".join(parts) or "1"


def _op_square(cy, rng) -> Op:
    sp = cy.spectral
    m = 2 * rng.randint(1, 10)
    degree = rng.randint(0, 12)
    if m % 4 == 2:
        i, j = degree, 0
    else:
        i, j = degree % 2, degree // 2
    k = rng.randint(0, 6)
    c = sp.CohomologyClass.monomial(m, i, j)
    want = _square_expected(m, k, i, j)

    def check(res):
        _expect(set(res.terms) == want, "Steenrod square disagrees with the Cartan formula")

    argv = ["ahss", "sq", "--m", str(m), "--k", str(k), "--class", _monomial_text(i, j)]
    return Op("steenrod_square", lambda: sp.steenrod_square(k, c), check, {"argv": argv})


def _census_expected(n: int, m: int, genus: int):
    """(exists, class count or None) from the Euler characteristic and C(n)."""
    exists = (genus + (-1) ** n) % m == 0
    if not exists:
        return False, None
    if n == 2:
        return True, 1
    if n == 3:
        return True, 1 if m % 2 else 2
    bound = {4: 3, 5: 3, 6: 3, 7: 3, 8: 5, 9: 5}.get(n)
    if bound is None or any(m % p == 0 for p in (2, 3, 5) if p <= bound):
        return True, None
    return True, m ** (n // 4)


def _census_op(cy, n: int, m: int, genus: int, kind: str) -> Op:
    ce = cy.census
    want = _census_expected(n, m, genus)

    def check(res):
        _expect((res.exists, res.class_count) == want, "census disagrees with chi and C(n)")

    return Op(kind, lambda: ce.classification(ce.ActionQuery(n, m, genus, None)), check,
              {"argv": ["census", "--n", str(n), "--m", str(m), "--g", str(genus)]})


def _op_census(cy, rng) -> Op:
    n, m = rng.randint(2, 11), rng.randint(2, 60)
    return _census_op(cy, n, m, rng.randint(0, 200), "classification")


def _op_census_big(cy, rng) -> Op:
    """m = k * p with p a prime just below 10^12, so that m is factored."""
    p = rng.randint(9 * 10**11, 10**12)
    while not _is_probable_prime(p):
        p += 1
    m = rng.choice((1, 2, 3, 7)) * p
    n = rng.randint(4, 9)
    genus = m - (-1) ** n  # m divides g + (-1)^n, so the classification runs
    return _census_op(cy, n, m, genus, "classification m~1e12")


def _cli_check(expect_code, check_payload):
    def check(res):
        code, out = res
        _expect(code == expect_code, f"exit code {code}, expected {expect_code}")
        lines = out.splitlines()
        _expect(len(lines) == 1, "stdout is not exactly one JSON document")
        check_payload(json.loads(lines[0]))

    return check


def _op_cli(cy, rng) -> Op:
    """One query through cyclact.cli.main in-process, stdout captured."""
    which = rng.randrange(5)
    m = rng.randint(2, 12)
    if which == 0:
        x, y = _rand(rng, m), _rand(rng, m)
        argv = ["ring", "mul", "--m", str(m), "--x", json.dumps(x), "--y", json.dumps(y)]
        want = conv(x, y)
        check = _cli_check(0, lambda d: _expect(d["product"]["coeffs"] == want, "cli product"))
    elif which == 1:
        base = _op_normalize(cy, rng)
        argv = base.replay["argv"]
        m = int(argv[3])

        def payload(d):
            nd = d["normData"]
            uv = conv(nd["u"]["coeffs"], nd["v"]["coeffs"])
            _expect(uv == sub(one(m), [nd["a"]] * m), "cli u*v != 1 - a*s")

        check = _cli_check(0, payload)
    elif which == 2:
        Q = _random_module(cy, rng, 2)
        x = [_rand(rng, Q.m) for _ in range(Q.dim)]
        argv = ["form", "mu", "--m", str(Q.m), "--rank", str(Q.rank), "--sign", str(Q.eps),
                "--param", Q.kind.value, "--x", json.dumps(x)]
        lift, kind = mu_lift(x), Q.kind.value
        check = _cli_check(0, lambda d: _expect(
            in_form_parameter(sub(lift, d["mu"]["coeffs"]), kind), "cli mu class"))
    elif which == 3:
        n, mm, genus = rng.randint(2, 11), rng.randint(2, 60), rng.randint(0, 200)
        exists, count = _census_expected(n, mm, genus)
        argv = ["census", "--n", str(n), "--m", str(mm), "--g", str(genus)]
        code = 2 if not exists else (0 if count is not None else 3)
        check = _cli_check(code, lambda d: _expect(
            (d["census"]["exists"], d["census"]["classCount"]) == (exists, count), "cli census"))
    else:
        m = 2 * rng.randint(1, 6)
        argv = ["ahss", "report", "--m", str(m)] + (["--twisted"] if rng.randrange(2) else [])
        check = _cli_check(0, lambda d: _expect(d["report"]["conclusion"] == "zero", "cli 6-line"))
    argv = ["--json"] + argv

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cy.cli.main(argv)
        return code, buf.getvalue()

    return Op(f"cli {argv[1]} {argv[2]}", call, check, {"argv": argv},
              bits=lambda res: max_bits(json.loads(res[1])))


# Fixed shares per round of 26 queries; the seed shuffles each round and
# draws the inputs, so every seed sees the same mix. mu and lambda queries
# are over half of the mix, so the median falls inside their cluster rather
# than on the edge between two kinds. The costliest kinds alternate, one per
# round, each with a narrow cost band, so the tail is the middle of a
# cluster of similar queries. The normalize queries take m from a fixed
# cycle: their cost grows steeply with m, and a seeded draw of m made set-up
# time and throughput depend on the seed.
ALGEBRA_ROUND = (
    [_op_mu] * 7 + [_op_lambda] * 7 + [_op_unit] * 2
    + [_op_det] * 2 + [_op_cli] * 2 + [_op_spin, _op_square, _op_census]
)
ALGEBRA_COSTLY = (_op_census_big, _op_normalize_big)
NORMALIZE_PER_ROUND = 2
NORMALIZE_M = range(2, 13)


def algebra_ops(cy, seed: int, rounds: int, tick=_no_tick) -> list:
    rng = random.Random(f"algebra-mix/{seed}")
    normalize_m = itertools.cycle(NORMALIZE_M)
    ops = []
    for r in range(rounds):
        makers = list(ALGEBRA_ROUND) + [ALGEBRA_COSTLY[r % 2]] + [
            functools.partial(_op_normalize, m=next(normalize_m))
            for _ in range(NORMALIZE_PER_ROUND)
        ]
        rng.shuffle(makers)
        for make in makers:
            ops.append(make(cy, rng))
            tick()
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-small", lambda cy, seed, tick: sweep_ops(cy, seed, SWEEP_SMALL, tick)),
        Workload("sweep-tail", lambda cy, seed, tick: sweep_ops(cy, seed, SWEEP_TAIL, tick)),
        Workload("algebra-mix", lambda cy, seed, tick: algebra_ops(cy, seed, 40, tick)),
    )
}
