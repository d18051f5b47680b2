"""Command line interface.

Machine-readable JSON goes to stdout, exactly one document per run;
human-readable summaries go to stderr and are suppressed by --json.
Exit codes: 0 success, 1 error, and for `census` 2 when no symmetry
exists and 3 when the query falls outside the classified range.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .census import ActionQuery, classification
from .complement import Branch, EmbeddingSpec, run_sweep, solve
from .errors import CyclactError, PreconditionFailed, value_text
from .forms import (
    QuadraticModule,
    RingMatrix,
    RingVector,
    is_primitive,
    isometry_check,
    lambda_eval,
    mu_eval,
    ring_det,
    transvection,
    verify_lagrangian_complement,
)
from .groupring import (
    FormParameterKind,
    GroupRingElement,
    augmentation,
    exact_divide,
    ideal_normalize,
)
from .selftest import SCOPES, run_selftest
from .spectral import e2_page, parse_class, spin_line_report, steenrod_square


def _emit(args, payload: dict, human) -> None:
    """Write the JSON document and, without --json, the summary human().

    Both texts are built before either is written, so a failure leaves
    stdout free for the error document.
    """
    try:
        text = json.dumps(payload, sort_keys=True)
        summary = "" if args.json else human()
    except ValueError:
        raise PreconditionFailed(
            f"an output integer has more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's limit for integer string conversion"
        ) from None
    sys.stdout.write(text + "\n")
    if summary:
        sys.stderr.write(summary.rstrip() + "\n")


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise PreconditionFailed(f"malformed JSON: {exc}") from None


def _list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise PreconditionFailed(f"{what} must be a JSON list")
    return obj


def _as_element(m: int, obj) -> GroupRingElement:
    """A coefficient list over m, or the {"m", "coeffs"} form; integers only."""
    if isinstance(obj, dict):
        return GroupRingElement.from_json(obj)
    return GroupRingElement.from_json({"m": m, "coeffs": _list(obj, "an element")})


def _element(m: int, text: str) -> GroupRingElement:
    return _as_element(m, _json(text))


def _vector(m: int, obj) -> RingVector:
    if isinstance(obj, str):
        obj = _json(obj)
    return RingVector([_as_element(m, c) for c in _list(obj, "a vector")])


def _matrix(m: int, text: str) -> RingMatrix:
    obj = _list(_json(text), "a matrix")
    return RingMatrix([_vector(m, row).coords for row in obj])


def _module(args) -> QuadraticModule:
    return QuadraticModule(
        args.m, args.rank, args.sign, FormParameterKind[args.param]
    )


def _cmd_ring(args) -> int:
    m = args.m
    if args.ring_op == "mul":
        out = _element(m, args.x) * _element(m, args.y)
        _emit(args, {"product": out.to_json()}, lambda: f"product: {out!r}")
    elif args.ring_op == "conj":
        out = _element(m, args.x).conj()
        _emit(args, {"conj": out.to_json()}, lambda: f"conj: {out!r}")
    elif args.ring_op == "aug":
        val = augmentation(_element(m, args.x), mod2=args.mod2)
        _emit(args, {"augmentation": val}, lambda: f"augmentation: {val}")
    elif args.ring_op == "divide":
        res = exact_divide(_element(m, args.x), _element(m, args.d))
        _emit(
            args,
            {"quotient": res.quotient.to_json(), "ambiguous": res.ambiguous},
            lambda: f"quotient: {res.quotient!r} (ambiguous: {res.ambiguous})",
        )
    else:
        gens = [_as_element(m, g) for g in _list(_json(args.gens), "--gens")]
        norm = ideal_normalize(gens)
        _emit(
            args,
            {"normData": norm.to_json()},
            lambda: f"u = {norm.u!r}, l = {norm.l}, a = {norm.a}, b = {norm.b}",
        )
    return 0


def _cmd_form(args) -> int:
    Q = _module(args)
    if args.form_op == "eval":
        out = lambda_eval(Q, _vector(Q.m, args.x), _vector(Q.m, args.y))
        _emit(args, {"lambda": out.to_json()}, lambda: f"lambda: {out!r}")
    elif args.form_op == "mu":
        out = mu_eval(Q, _vector(Q.m, args.x))
        _emit(args, {"mu": out.to_json()}, lambda: f"mu class: {out.rep!r} ({out.kind.value})")
    elif args.form_op == "primitive":
        flag = is_primitive(Q, _vector(Q.m, args.x))
        _emit(args, {"primitive": flag}, lambda: f"primitive: {flag}")
    elif args.form_op == "isometry":
        flag = isometry_check(Q, _matrix(Q.m, args.matrix))
        _emit(args, {"isometry": flag}, lambda: f"isometry: {flag}")
    elif args.form_op == "transvection":
        M = transvection(Q, tuple(args.base.split(",")), _element(Q.m, args.c))
        _emit(args, {"matrix": M.to_json()}, lambda: f"transvection on ({args.base})")
    elif args.form_op == "det":
        out = ring_det(_matrix(Q.m, args.matrix))
        _emit(args, {"det": out.to_json()}, lambda: f"det: {out!r}")
    else:
        S = [_vector(Q.m, v) for v in _list(_json(args.S), "--S")]
        U = [_vector(Q.m, v) for v in _list(_json(args.U), "--U")]
        cert = verify_lagrangian_complement(Q, S, U)
        _emit(args, {"certificate": cert.to_json()}, lambda: "complement verified")
    return 0


def _cmd_lagrangian(args) -> int:
    if args.lag_op == "solve":
        text = sys.stdin.read() if args.spec == "-" else args.spec
        obj = _json(text)
        if not isinstance(obj, dict):
            raise PreconditionFailed("a spec must be a JSON object")
        # the flags are required: a spec key may repeat one, not contradict it;
        # a non-integer "m" is left to from_json's type check
        m = obj.setdefault("m", args.m)
        if type(m) is int and m != args.m:
            raise PreconditionFailed(
                f'spec key "m" is {value_text(m)} but --m is {value_text(args.m)}'
            )
        branch = Branch.from_cli(obj.setdefault("branch", args.branch))
        if branch is not Branch.from_cli(args.branch):
            raise PreconditionFailed(
                f'spec key "branch" is {branch.value} but --branch is {args.branch}'
            )
        trace = solve(EmbeddingSpec.from_json(obj))
        human = [
            f"branch: {trace.branch.value}",
            f"steps: {', '.join(s.name for s in trace.steps) or '(none)'}",
            "U:",
        ]
        # repr of U is built only when printed: it can pass the digit limit
        _emit(
            args,
            {"trace": trace.to_json()},
            lambda: "\n".join(human + [f"  {v!r}" for v in trace.U]),
        )
    else:
        report = run_sweep(Branch.from_cli(args.branch), args.m, args.count, args.seed)
        human = (
            f"sweep {report.branch.value} m={report.m}: {report.solved} solved, "
            f"{report.exhausted} search-exhausted, {len(report.failures)} failures"
        )
        _emit(args, {"sweep": report.to_json()}, lambda: human)
        return 1 if report.failures else 0
    return 0


def _cmd_ahss(args) -> int:
    if args.ahss_op == "report":
        rep = spin_line_report(args.m, args.twisted)
        page = e2_page(args.m, args.twisted)
        lines = [f"6-line for m={args.m} twisted={args.twisted}:"]
        for step in rep.steps:
            lines.append(f"  {step['entry']}: {step['action']} [{step['provenance']}]")
        lines.append(f"conclusion: {'zero' if rep.conclusion_zero else 'undetermined'}")
        _emit(
            args,
            {"report": rep.to_json(), "e2": page.to_json()},
            lambda: "\n".join(lines),
        )
    else:
        c = parse_class(args.m, getattr(args, "cls"))
        out = steenrod_square(args.k, c)
        _emit(
            args,
            {"input": c.to_json(), "square": out.to_json()},
            lambda: f"Sq^{args.k}({c!r}) = {out!r}",
        )
    return 0


def _cmd_census(args) -> int:
    pont = None
    if args.pontryagin:
        try:
            pont = tuple(int(t) for t in args.pontryagin.split(","))
        except ValueError:  # not an integer, or past the digit limit
            raise PreconditionFailed(
                "--pontryagin must be comma-separated integers; cannot parse a "
                f"{len(args.pontryagin)}-character list"
            ) from None
    report = classification(ActionQuery(args.n, args.m, args.g, pont))
    human = [f"exists: {report.exists} ({report.reason})"]
    if report.class_count is not None:
        human.append(
            f"classes: {report.class_count} up to {report.conjugation_kind} conjugation"
        )
    for d in report.quotient_descriptors:
        human.append(f"  model: {d}")
    for n in report.notes:
        human.append(f"  note: {n}")
    _emit(args, {"census": report.to_json()}, lambda: "\n".join(human))
    if report.parameterization == "OUT_OF_RANGE":
        return 3
    return 0 if report.exists else 2


def _cmd_selftest(args) -> int:
    summary = run_selftest(args.scope, args.seed)
    lines = [
        f"selftest scope={summary.scope} seed={summary.seed}: "
        f"{summary.passed} passed, {summary.failed} failed, "
        f"{summary.skipped} skipped"
    ]
    for suite in summary.suites:
        lines.append(
            f"  {suite.name}: {suite.passed}/{len(suite.cases)} passed"
            + (
                f", {len(suite.search_exhausted)} search-exhausted incidents"
                if suite.search_exhausted
                else ""
            )
        )
    _emit(args, {"selftest": summary.to_json()}, lambda: "\n".join(lines))
    return 1 if summary.failed else 0


class _Usage(Exception):
    """-h/--help was given; main emits the help text as a document."""


class _Parser(argparse.ArgumentParser):
    """argparse that ends in one JSON document, never in its own exit.

    Exit 2 is census's "no symmetry", so a malformed command line ends like
    any other bad input: exit 1 with one error document. argparse quotes
    the offending text after these markers; the detail stops at them.
    Help is raised as _Usage, not printed, and exits 0 with a usage document.
    """

    _ECHOES = (
        "invalid int value",
        "invalid choice",
        "unrecognized arguments",
        "ambiguous option",
    )

    def error(self, message):
        for marker in self._ECHOES:
            at = message.find(marker)
            if at >= 0:
                message = message[: at + len(marker)]
        raise PreconditionFailed(f"{self.prog}: {message}")

    def print_help(self, file=None):
        raise _Usage(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    branches = [b.value for b in Branch]
    params = [k.name for k in FormParameterKind]
    p = _Parser(prog="cyclact")
    p.add_argument("--json", action="store_true", help="suppress human output")
    sub = p.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="group ring arithmetic")
    ring_sub = ring.add_subparsers(dest="ring_op", required=True)
    for name in ("mul", "conj", "aug", "divide", "normalize"):
        sp = ring_sub.add_parser(name)
        sp.add_argument("--m", type=int, required=True)
        if name == "mul":
            sp.add_argument("--x", required=True)
            sp.add_argument("--y", required=True)
        elif name in ("conj", "aug"):
            sp.add_argument("--x", required=True)
            if name == "aug":
                sp.add_argument("--mod2", action="store_true")
        elif name == "divide":
            sp.add_argument("--x", required=True)
            sp.add_argument("--d", required=True)
        else:
            sp.add_argument("--gens", required=True, help="JSON list of coeff lists")

    form = sub.add_parser("form", help="hyperbolic form computations")
    form_sub = form.add_subparsers(dest="form_op", required=True)
    for name in ("eval", "mu", "primitive", "isometry", "transvection", "det", "verify"):
        sp = form_sub.add_parser(name)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--rank", type=int, default=2)
        sp.add_argument("--sign", type=int, default=-1, choices=(-1, 1))
        sp.add_argument("--param", default="TILDE", choices=params)
        if name == "eval":
            sp.add_argument("--x", required=True)
            sp.add_argument("--y", required=True)
        elif name in ("mu", "primitive"):
            sp.add_argument("--x", required=True)
        elif name in ("isometry", "det"):
            sp.add_argument("--matrix", required=True)
        elif name == "transvection":
            sp.add_argument("--base", required=True, help="label pair, e.g. e1,f2")
            sp.add_argument("--c", required=True)
        else:
            sp.add_argument("--S", required=True)
            sp.add_argument("--U", required=True)

    lag = sub.add_parser("lagrangian", help="complement solver and sweeps")
    lag_sub = lag.add_subparsers(dest="lag_op", required=True)
    sp = lag_sub.add_parser("solve")
    sp.add_argument("--branch", required=True, choices=branches)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--spec", required=True, help="JSON with a1, a2, b2; - for stdin")
    sp = lag_sub.add_parser("sweep")
    sp.add_argument("--branch", required=True, choices=branches)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)

    ahss = sub.add_parser("ahss", help="cohomology and the 6-line report")
    ahss_sub = ahss.add_subparsers(dest="ahss_op", required=True)
    sp = ahss_sub.add_parser("report")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--twisted", action="store_true")
    sp = ahss_sub.add_parser("sq")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--class", required=True, dest="cls", help='e.g. "x^3" or "xy^2"')

    census = sub.add_parser("census", help="existence and classification")
    census.add_argument("--n", type=int, required=True)
    census.add_argument("--m", type=int, required=True)
    census.add_argument("--g", type=int, required=True)
    census.add_argument("--pontryagin", default="", help="comma-separated residues")

    st = sub.add_parser("selftest", help="run the built-in suites")
    st.add_argument("--scope", default="all", choices=(*SCOPES, "all"))
    st.add_argument("--seed", type=int, default=0)
    return p


# argparse reads a token like these as a value, not as an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _unknown_option(parser: argparse.ArgumentParser, argv) -> str | None:
    """The first option in argv that its parser does not know, up to any "=".

    A token is an option as argparse reads one: longer than "-", starting
    with "-", no space and no negative number. It is known if it names one
    of the options of the parser it reaches, or abbreviates a long one; a
    subcommand name moves on to that subcommand's parser, and "--" ends
    the options.
    """
    for token in argv:
        if token == "--":
            return None
        if token[:1] != "-" or len(token) == 1 or " " in token or _NEGATIVE.match(token):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction) and token in action.choices:
                    parser = action.choices[token]
            continue
        name = token.partition("=")[0]
        known = parser._option_string_actions
        if name not in known and not (
            name[:2] == "--" and any(o.startswith(name) for o in known)
        ):
            return name
    return None


def _parse_args(argv) -> argparse.Namespace:
    """_parser().parse_args, with an unknown option named where it arose.

    argparse sets an unknown option before a subcommand aside and reads its
    value as the subcommand, an "invalid choice"; past the subcommand it
    reports "unrecognized arguments" without saying which. If argv holds an
    unknown option, either error names the first one instead: as typed up
    to 40 characters, by its length past that, never with its value.
    """
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except PreconditionFailed as exc:
        name = None
        if str(exc).endswith(("invalid choice", "unrecognized arguments")):
            name = _unknown_option(parser, argv)
        if name is None:
            raise
        shown = name if len(name) <= 40 else f"of {len(name)} characters"
        raise PreconditionFailed(f"{parser.prog}: unrecognized option {shown}") from None
    # no option takes a list, but argparse before Python 3.12 stores the
    # value of "--opt=--" as an empty one
    if any(isinstance(value, list) for value in vars(args).values()):
        raise PreconditionFailed(f"{parser.prog}: an option's value is missing")
    return args


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on the first call and kept for the process.

    Parsing reads the parser and never changes it, so one parser serves
    every call; build_parser still returns a fresh one for other callers.
    """
    return build_parser()


_DISPATCH = {
    "ring": _cmd_ring,
    "form": _cmd_form,
    "lagrangian": _cmd_lagrangian,
    "ahss": _cmd_ahss,
    "census": _cmd_census,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # what _emit reads of the arguments, should they not parse
    args = argparse.Namespace(json="--json" in argv)
    try:
        args = _parse_args(argv)
        return _DISPATCH[args.command](args)
    except _Usage as exc:
        _emit(args, {"usage": str(exc)}, lambda: str(exc))
        return 0
    except CyclactError as exc:
        name = type(exc).__name__
        _emit(args, {"error": name, "detail": str(exc)}, lambda: f"error: {name}: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
