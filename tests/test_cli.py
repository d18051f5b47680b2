import json
import sys

import pytest

from cyclact import cli
from cyclact.cli import main
from cyclact.groupring import GroupRingElement


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, (out, err)
    return json.loads(out)


def test_ring_mul(capsys):
    doc = out_json(
        capsys, "ring", "mul", "--m", "5", "--x", "[1,1,0,0,0]",
        "--y", "[0,-1,0,-1,0]",
    )
    assert doc["product"]["coeffs"] == [0, -1, -1, -1, -1]


def test_ring_aug_mod2(capsys):
    doc = out_json(capsys, "ring", "aug", "--m", "4", "--x", "[1,2,0,0]")
    assert doc["augmentation"] == 3
    doc = out_json(
        capsys, "ring", "aug", "--m", "4", "--x", "[1,2,0,0]", "--mod2"
    )
    assert doc["augmentation"] == 1


def test_ring_divide_and_normalize(capsys):
    doc = out_json(
        capsys, "ring", "divide", "--m", "5", "--x", "[1,2,1,0,0]",
        "--d", "[1,1,0,0,0]",
    )
    assert doc["quotient"]["coeffs"] == [1, 1, 0, 0, 0]
    doc = out_json(
        capsys, "ring", "normalize", "--m", "5",
        "--gens", "[[1,1,0,0,0],[0,0,0,0,0]]",
    )
    assert doc["normData"]["l"] == 2
    assert doc["normData"]["u"]["coeffs"] == [1, 1, 0, 0, 0]


def test_form_eval_and_mu(capsys):
    doc = out_json(
        capsys, "form", "eval", "--m", "4",
        "--x", "[[1,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]",
        "--y", "[[0,0,0,0],[0,0,0,0],[1,0,0,0],[0,0,0,0]]",
    )
    assert doc["lambda"]["coeffs"] == [1, 0, 0, 0]
    doc = out_json(
        capsys, "form", "mu", "--m", "4",
        "--x", "[[0,0,0,0],[1,0,0,0],[0,0,0,0],[0,0,1,0]]",
    )
    assert doc["mu"]["coeffs"] == [0, 0, 1, 0]
    assert doc["mu"]["kind"] == "TILDE"


def test_form_transvection_and_det(capsys):
    doc = out_json(
        capsys, "form", "transvection", "--m", "3", "--base", "e1,f2",
        "--c", "[1,0,0]",
    )
    assert doc["matrix"][0][1]["coeffs"] == [1, 0, 0]
    doc = out_json(
        capsys, "form", "det", "--m", "3",
        "--matrix", "[[[1,0,0],[0,1,0]],[[0,0,0],[1,0,0]]]",
    )
    assert doc["det"]["coeffs"] == [1, 0, 0]


def test_form_verify(capsys):
    S = "[[[1,0,0],[0,0,0],[0,0,0],[0,0,0]],[[0,0,0],[1,0,0],[0,0,0],[0,0,0]]]"
    U = "[[[0,0,0],[0,0,0],[1,0,0],[0,0,0]],[[0,0,0],[0,0,0],[0,0,0],[1,0,0]]]"
    doc = out_json(capsys, "form", "verify", "--m", "3", "--S", S, "--U", U)
    assert doc["certificate"]["det"]["coeffs"] == [1, 0, 0]


def test_lagrangian_solve_merges_flags_into_spec(capsys):
    spec = json.dumps({"a1": [0, 0, 0], "a2": [1, 0, 0], "b2": [0, 0, 0]})
    code, out, err = run(
        capsys, "lagrangian", "solve", "--branch", "odd-m", "--m", "3",
        "--spec", spec,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"]["branch"] == "odd-m"
    assert doc["trace"]["U"][0][2]["coeffs"] == [1, 0, 0]
    assert "U:" in err


SOLVE_ODD_M_3 = ["lagrangian", "solve", "--branch", "odd-m", "--m", "3", "--spec"]
ODD_M_3_SPEC = {"a1": [0, 0, 0], "a2": [1, 0, 0], "b2": [0, 0, 0]}


@pytest.mark.parametrize(
    "keys, detail",
    [
        ({"m": 5}, 'spec key "m" is 5 but --m is 3'),
        ({"m": 2**100}, 'spec key "m" is <101-bit integer> but --m is 3'),
        ({"branch": "even-n"}, 'spec key "branch" is even-n but --branch is odd-m'),
        # a whole spec for another branch and modulus: the flags do not yield
        ({"m": 2, "branch": "even-n", "a1": [0, 0], "a2": [1, 0], "b2": [0, 0]},
         'spec key "m" is 2 but --m is 3'),
    ],
    ids=["m", "huge-m", "branch", "other-spec"],
)
def test_lagrangian_solve_spec_keys_that_disagree_with_the_flags_exit_one(
    capsys, keys, detail
):
    spec = json.dumps({**ODD_M_3_SPEC, **keys})
    code, out, err = run(capsys, "--json", *SOLVE_ODD_M_3, spec)
    assert code == 1 and err == ""
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": "PreconditionFailed", "detail": detail}


def test_lagrangian_solve_spec_keys_that_agree_with_the_flags_solve(capsys):
    plain = out_json(capsys, "--json", *SOLVE_ODD_M_3, json.dumps(ODD_M_3_SPEC))
    spec = json.dumps({**ODD_M_3_SPEC, "m": 3, "branch": "odd-m"})
    assert out_json(capsys, "--json", *SOLVE_ODD_M_3, spec) == plain


def _assert_digit_limit_error(code, out):
    # one whole error document, not a traceback or half a document
    assert code == 1
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["error"] == "PreconditionFailed"
    assert f"{sys.get_int_max_str_digits()} digits" in doc["detail"]


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_ring_mul_past_the_digit_limit_is_an_error_document(capsys, flags):
    # each factor parses; their square has 4/3 of the digit limit
    x = "[" + "9" * (sys.get_int_max_str_digits() * 2 // 3) + ",0]"
    code, out, _ = run(capsys, *flags, "ring", "mul", "--m", "2", "--x", x, "--y", x)
    _assert_digit_limit_error(code, out)


def test_lagrangian_solve_past_the_digit_limit_is_an_error_document(capsys):
    # a2 at the digit limit parses; the transport matrix has a larger entry
    big = int("9" * sys.get_int_max_str_digits())
    spec = json.dumps({"a1": [0, 0], "a2": [big, big], "b2": [1, 0]})
    code, out, _ = run(
        capsys, "--json", "lagrangian", "solve", "--branch", "even-m", "--m", "2",
        "--spec", spec,
    )
    _assert_digit_limit_error(code, out)


def test_form_verify_failure_past_the_digit_limit_is_named(capsys):
    # N has 3,000 digits, so det = N^2 has 6,000: the NotComplement
    # message reports its size in bits rather than its digits
    n = "9" * 3000
    S = "[[[1,0],[0,0],[0,0],[0,0]],[[0,0],[1,0],[0,0],[0,0]]]"
    U = f"[[[0,0],[0,0],[{n},0],[0,0]],[[0,0],[0,0],[0,0],[{n},0]]]"
    code, out, _ = run(capsys, "--json", "form", "verify", "--m", "2", "--S", S, "--U", U)
    assert code == 1
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["error"] == "NotComplement"
    assert "determinant" in doc["detail"] and "bits" in doc["detail"]


def test_json_flag_builds_no_summary(capsys, monkeypatch):
    def fail(self):
        raise AssertionError("summary built under --json")

    monkeypatch.setattr(GroupRingElement, "__repr__", fail)
    spec = json.dumps({"a1": [0, 0, 0], "a2": [1, 0, 0], "b2": [0, 0, 0]})
    for argv in (
        ["ring", "mul", "--m", "2", "--x", "[1,2]", "--y", "[3,4]"],
        ["lagrangian", "solve", "--branch", "odd-m", "--m", "3", "--spec", spec],
    ):
        code, out, err = run(capsys, "--json", *argv)
        assert code == 0 and err == ""
        json.loads(out)


def test_retired_flags_exit_one_without_echoing_the_value(capsys):
    # --jobs is gone at both levels, and --seed belongs to the subcommands
    for argv, value in (
        (["--json", "--jobs", "2", "selftest"], "2"),
        (["--json", "selftest", "--jobs", "2"], "2"),
        (["--seed", "9", "--json", "selftest"], "9"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert set(doc) == {"error", "detail"}
        assert value not in out


def test_an_unknown_option_is_named_without_its_value(capsys):
    # argparse would read the value as the subcommand: "invalid choice"
    for argv, detail in (
        (["--json", "--jobs", "2", "selftest"], "cyclact: unrecognized option --jobs"),
        (["--json", "--jobs=2", "2", "selftest"], "cyclact: unrecognized option --jobs"),
        (["--seed", "9", "--json", "selftest"], "cyclact: unrecognized option --seed"),
        (["--json", "--" + "x" * 4998, "7", "selftest"],
         "cyclact: unrecognized option of 5000 characters"),
        # past the subcommand, argparse's "unrecognized arguments" is named too
        (["--json", "selftest", "--jobs=2"], "cyclact: unrecognized option --jobs"),
        (["--json", "ring", "aug", "--m", "3", "--x", "[1]", "--" + "y" * 41],
         "cyclact: unrecognized option of 43 characters"),
        # with no unknown option: argparse's detail
        (["--json", "selftest", "extra"], "cyclact: unrecognized arguments"),
        (["--json", "selftest", "--scope", "bogus"],
         "cyclact selftest: argument --scope: invalid choice"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": "PreconditionFailed", "detail": detail}
    # an abbreviated option and a negative number are no unknown options
    doc = out_json(capsys, "--json", "lagrangian", "sweep", "--branch", "odd-m",
                   "--m", "5", "--cou", "2")
    assert doc["sweep"]["count"] == 2
    code, out, _ = run(capsys, "--json", "ring", "aug", "--m", "-3", "--x", "[1]")
    assert code == 1 and "option" not in json.loads(out)["detail"]


def test_json_flag_silences_stderr(capsys):
    code, out, err = run(capsys, "ahss", "report", "--m", "4")
    assert code == 0 and err != ""
    code, out2, err2 = run(capsys, "--json", "ahss", "report", "--m", "4")
    assert code == 0 and err2 == ""
    assert json.loads(out) == json.loads(out2)


def test_ahss_report_structure(capsys):
    doc = out_json(capsys, "--json", "ahss", "report", "--m", "6")
    assert doc["report"]["conclusion"] == "zero"
    assert doc["e2"]["pageIndex"] == 2
    assert doc["e2"]["entries"]["4,2"] == [2]


def test_ahss_sq(capsys):
    doc = out_json(
        capsys, "--json", "ahss", "sq", "--m", "2", "--k", "2", "--class", "x^3"
    )
    assert doc["square"]["terms"] == [[5, 0]]
    doc = out_json(
        capsys, "--json", "ahss", "sq", "--m", "4", "--k", "1", "--class", "y"
    )
    assert doc["square"]["terms"] == []


def test_census_exit_codes(capsys):
    code, out, _ = run(
        capsys, "--json", "census", "--n", "3", "--m", "3", "--g", "4"
    )
    assert code == 0
    assert json.loads(out)["census"]["classCount"] == 1
    code, out, _ = run(
        capsys, "--json", "census", "--n", "4", "--m", "3", "--g", "3",
        "--pontryagin", "0",
    )
    assert code == 2
    assert json.loads(out)["census"]["exists"] is False
    code, out, _ = run(
        capsys, "--json", "census", "--n", "8", "--m", "6", "--g", "5",
        "--pontryagin", "0,0",
    )
    assert code == 3
    assert json.loads(out)["census"]["parameterization"] == "OUT_OF_RANGE"


def test_errors_become_json_and_exit_one(capsys):
    code, out, err = run(
        capsys, "ring", "divide", "--m", "4", "--x", "[1,1,1,1]",
        "--d", "[0,0,0,0]",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "NotDivisible"
    assert doc["detail"]


def test_selftest_smoke(capsys):
    doc = out_json(
        capsys, "--json", "selftest", "--scope", "ring", "--seed", "5"
    )
    body = doc["selftest"]
    assert body["fail"] == 0
    assert body["pass"] == body["total"]
    assert body["scope"] == "ring"
    assert body["seed"] == 5


def test_stdin_spec(capsys, monkeypatch):
    import io

    spec = json.dumps({"a1": [0, 0, 0], "a2": [1, 0, 0], "b2": [0, 0, 0]})
    monkeypatch.setattr("sys.stdin", io.StringIO(spec))
    code, out, _ = run(
        capsys, "--json", "lagrangian", "solve", "--branch", "even-n",
        "--m", "3", "--spec", "-",
    )
    assert code == 0
    assert json.loads(out)["trace"]["branch"] == "even-n"


ZERO_VEC = "[[0,0,0],[0,0,0],[0,0,0],[0,0,0]]"


@pytest.mark.parametrize(
    "argv",
    [
        # floats are not truncated
        ["ring", "mul", "--m", "3", "--x", "[1.7,0,0]", "--y", "[1,0,0]"],
        # booleans are not integers
        ["ring", "mul", "--m", "3", "--x", "[true,0,0]", "--y", "[1,0,0]"],
        # strings are not coerced
        ["ring", "mul", "--m", "3", "--x", '["a",0,0]', "--y", "[1,0,0]"],
        # malformed JSON
        ["ring", "mul", "--m", "3", "--x", "[1,0", "--y", "[1,0,0]"],
        # the dict form goes through GroupRingElement.from_json
        ["ring", "conj", "--m", "3", "--x", '{"m": 3, "coeffs": [1, 0.5, 0]}'],
        ["ring", "aug", "--m", "3", "--x", '{"m": 3, "coeffs": [false, 0, 0]}'],
        ["ring", "normalize", "--m", "3", "--gens", "[[1,0,0],[2.0,0,0]]"],
        ["ring", "normalize", "--m", "3", "--gens", "[[1,0,0]"],
        # vectors and matrices
        ["form", "mu", "--m", "3", "--x", "[[1,0,0],[0,0,0],[0,0,1.5],[0,0,0]]"],
        ["form", "mu", "--m", "3", "--x", "[[1,0,0],[0,0,0],"],
        ["form", "det", "--m", "3", "--matrix", "[[[1,0,0]],[[true,0,0]]]"],
        ["form", "verify", "--m", "3", "--S", "[" + ZERO_VEC, "--U", "[]"],
        ["lagrangian", "solve", "--branch", "odd-m", "--m", "3", "--spec", "{"],
        ["lagrangian", "solve", "--branch", "odd-m", "--m", "3",
         "--spec", '{"a1": [0,0,0], "a2": [1.0,0,0], "b2": [0,0,0]}'],
        ["lagrangian", "solve", "--branch", "odd-m", "--m", "3",
         "--spec", '{"m": 3.9, "a1": [0,0,0], "a2": [1,0,0], "b2": [0,0,0]}'],
    ],
)
def test_malformed_coefficients_are_precondition_failures(capsys, argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "PreconditionFailed"
    assert doc["detail"]
    assert err == ""


def test_form_det_above_the_rank_bound_is_an_error(capsys):
    one = [1, 0, 0]
    matrix = json.dumps([[one] * 17 for _ in range(17)])
    code, out, _ = run(capsys, "--json", "form", "det", "--m", "3", "--matrix", matrix)
    assert code == 1
    assert json.loads(out)["error"] == "RankTooLarge"


def test_form_transvection_above_the_rank_bound_is_an_error(capsys):
    code, out, _ = run(
        capsys, "--json", "form", "transvection", "--m", "3", "--rank", "17",
        "--base", "e1,f2", "--c", "[1,0,0]",
    )
    assert code == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "RankTooLarge"


LONG = "x" * 3000


@pytest.mark.parametrize(
    "argv, error",
    [
        (["lagrangian", "solve", "--m", "3", "--branch", "odd-m", "--spec", "{}"],
         "PreconditionFailed"),
        (["census", "--n", "8", "--m", "7", "--g", "6", "--pontryagin", "a"],
         "PreconditionFailed"),
        (["census", "--n", "8", "--m", "7", "--g", "6", "--pontryagin", "1.5"],
         "PreconditionFailed"),
        (["form", "transvection", "--m", "3", "--base", "e1", "--c", "[1,0,0]"],
         "BadIndex"),
        (["form", "transvection", "--m", "3", "--base", "e1,f2,f1", "--c", "[1,0,0]"],
         "BadIndex"),
        (["lagrangian", "sweep", "--branch", "odd-m", "--m", "1", "--count", "1"],
         "PreconditionFailed"),
        (["lagrangian", "sweep", "--branch", "odd-m", "--m", "40", "--count", "1"],
         "PreconditionFailed"),
        # an exponent past the interpreter's digit limit for int()
        (["ahss", "sq", "--m", "2", "--k", "1", "--class", "x^" + "9" * 5000],
         "BadIndex"),
        # a long monomial with a bad character, and a '^' with no digits
        (["ahss", "sq", "--m", "2", "--k", "1", "--class", "x^1z" + "1" * 5000],
         "BadIndex"),
        (["ahss", "sq", "--m", "2", "--k", "1", "--class", "x^" + "a" * 3000],
         "BadIndex"),
        # a long residue list, and a residue past the digit limit for int()
        (["census", "--n", "4", "--m", "7", "--g", "6", "--pontryagin", "1," + "x" * 5000],
         "PreconditionFailed"),
        (["census", "--n", "4", "--m", "7", "--g", "6", "--pontryagin", "9" * 5000],
         "PreconditionFailed"),
        (["lagrangian", "sweep", "--branch", "odd-m", "--m", "5", "--count", "-3"],
         "PreconditionFailed"),
        # a long string as the spec's branch or modulus, as a coefficient,
        # and as an element's modulus
        (["lagrangian", "solve", "--m", "3", "--branch", "odd-m", "--spec",
          json.dumps({"branch": LONG, "a1": [0, 0, 0], "a2": [1, 0, 0], "b2": [0, 0, 0]})],
         "PreconditionFailed"),
        (["lagrangian", "solve", "--m", "3", "--branch", "odd-m", "--spec",
          json.dumps({"m": LONG, "a1": [0, 0, 0], "a2": [1, 0, 0], "b2": [0, 0, 0]})],
         "PreconditionFailed"),
        (["lagrangian", "solve", "--m", "3", "--branch", "odd-m", "--spec",
          json.dumps({"a1": [LONG, 0, 0], "a2": [1, 0, 0], "b2": [0, 0, 0]})],
         "PreconditionFailed"),
        (["ring", "mul", "--m", "3", "--x", json.dumps({"m": LONG, "coeffs": [1, 0, 0]}),
          "--y", "[1,0,0]"],
         "PreconditionFailed"),
        # long basis labels: a bad letter, an index out of range, an index
        # past the digit limit for int(), and one label with no comma
        (["form", "transvection", "--m", "3", "--base", "e1,g" + "1" * 3000, "--c", "[1,0,0]"],
         "BadIndex"),
        (["form", "transvection", "--m", "3", "--base", "e1,f" + "1" * 3000, "--c", "[1,0,0]"],
         "BadIndex"),
        (["form", "transvection", "--m", "3", "--base", "e1,f" + "1" * 5000, "--c", "[1,0,0]"],
         "BadIndex"),
        (["form", "transvection", "--m", "3", "--base", LONG, "--c", "[1,0,0]"],
         "BadIndex"),
        # a digit that int() does not read
        (["form", "transvection", "--m", "3", "--base", "e1,f\u00b2", "--c", "[1,0,0]"],
         "BadIndex"),
    ],
)
def test_bad_inputs_exit_one_with_an_error_document(capsys, argv, error):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1
    assert json.loads(out)["error"] == error
    assert err == ""
    # the detail names the problem, it does not echo a long input back
    assert len(out) < 300


HUGE = "9" * 5000


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["ring", "mul", "--m", "abc", "--x", "[1]", "--y", "[1]"], "abc"),
        (["ring", "mul", "--m", HUGE, "--x", "[1]", "--y", "[1]"], HUGE),
        (["census", "--n", "8", "--m", "7", "--g", "zzz"], "zzz"),
        (["lagrangian", "solve", "--branch", "odd-m", "--spec", "{}"], None),
        (["lagrangian", "sweep", "--branch", "qqq", "--m", "3"], "qqq"),
        (["ring", "mul", "--m", "3", "--x", "[1,0,0]", "--y", "[1,0,0]", "--www=zzz"],
         "zzz"),
        # Python 3.11's argparse stores the value of "--gens=--" as []
        (["ring", "normalize", "--m", "3", "--gens=--"], "--gens=--"),
    ],
    ids=["junk-m", "huge-m", "junk-g", "missing-m", "bad-branch", "unknown-flag",
         "double-dash-value"],
)
def test_malformed_command_lines_exit_one_with_an_error_document(capsys, argv, bad):
    # exit 2 is census's "no symmetry", and the usage text is not a document
    code, out, err = run(capsys, "--json", *argv)
    assert code == 1
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert set(doc) == {"error", "detail"}
    assert doc["error"] == "PreconditionFailed"
    assert err == ""
    if bad is None:
        assert "required" in doc["detail"]
    else:
        assert bad not in doc["detail"]
        assert len(doc["detail"]) < 200
    # without --json the summary goes to stderr, the document still to stdout
    code, out, err = run(capsys, *argv)
    assert code == 1 and json.loads(out) == doc
    assert err.startswith("error: PreconditionFailed")


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["--help"], "usage: cyclact [-h]"),
        (["ring", "mul", "-h"], "usage: cyclact ring mul [-h] --m M --x X --y Y"),
    ],
    ids=["top-level", "subcommand"],
)
def test_help_is_one_usage_document(capsys, argv, first_line):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert set(doc) == {"usage"}
    assert doc["usage"].startswith(first_line)
    assert err == ""
    # without --json the text is on stderr too, the document still on stdout
    code, out, err = run(capsys, *argv)
    assert code == 0 and json.loads(out) == doc
    assert err == doc["usage"]


def test_the_reused_parser_keeps_calls_independent(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    calls = [
        ["ring", "mul", "--m", "abc", "--x", "[1]", "--y", "[1]"],
        ["--help"],
        ["--json", "ring", "mul", "--m", "3", "--x", "[1,2,0]", "--y", "[0,1,0]"],
        ["census", "--n", "4", "--m", "3", "--g", "3", "--pontryagin", "0"],
        ["--json", "ring", "divide", "--m", "4", "--x", "[1,1,1,1]", "--d", "[0,0,0,0]"],
    ]
    first = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [1, 0, 0, 2, 1]
    again = [run(capsys, *argv) for argv in reversed(calls)]
    assert again[::-1] == first
    assert len(builds) == 1
