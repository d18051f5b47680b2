"""Fuzzing of the CLI parsers: every run prints one JSON document.

Malformed JSON, floats, booleans, strings, huge integers, wrong lengths,
moduli below 2 and junk label or residue lists must end in exit 1 with an
{"error", "detail"} document, never a traceback. Moduli stay at most 6 so
that well-formed inputs solve quickly.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclact.cli import main

moduli = st.integers(min_value=-1, max_value=6)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=7)
    | st.dictionaries(st.sampled_from(["m", "coeffs", "a1", "a2", "b2"]), inner, max_size=4),
    max_leaves=20,
)


@st.composite
def element(draw, m):
    """A coefficient list near length m, an {"m", "coeffs"} object, or other JSON."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        n = max(m + draw(st.integers(-1, 1)), 0)
        items = st.integers(min_value=-(2**64), max_value=2**64)
        return draw(st.lists(items, min_size=n, max_size=n))
    if kind == 1:
        return {"m": draw(moduli), "coeffs": draw(st.lists(scalars, max_size=7))}
    return draw(json_values)


def text_of(values):
    """JSON text of a drawn value, or text that is not JSON."""
    return values.map(json.dumps) | st.text(max_size=12)


def elements(m):
    return text_of(element(m))


def vectors(m):
    return text_of(st.lists(element(m), max_size=4))


def matrices(m):
    return text_of(st.lists(st.lists(element(m), max_size=4), max_size=4))


@st.composite
def argvs(draw):
    m = draw(moduli)
    form_flags = [
        "--m", str(m), "--rank", str(draw(st.integers(-1, 2))),
        "--sign", draw(st.sampled_from(["-1", "1"])),
        "--param", draw(st.sampled_from(["TILDE", "PLUS", "MINUS"])),
    ]
    branch = draw(st.sampled_from(["odd-m", "even-m", "even-n"]))
    label = st.sampled_from(["e1", "e2", "f1", "f2", "e0", "f3", "x1", ""]) | st.text(max_size=4)
    choice = draw(st.integers(0, 10))
    if choice == 0:
        return ["ring", "mul", "--m", str(m), f"--x={draw(elements(m))}",
                f"--y={draw(elements(m))}"]
    if choice == 1:
        return ["ring", draw(st.sampled_from(["conj", "aug"])), "--m", str(m),
                f"--x={draw(elements(m))}"]
    if choice == 2:
        return ["ring", "divide", "--m", str(m), f"--x={draw(elements(m))}",
                f"--d={draw(elements(m))}"]
    if choice == 3:
        return ["ring", "normalize", "--m", str(m), f"--gens={draw(vectors(m))}"]
    if choice == 4:
        op = draw(st.sampled_from(["mu", "primitive"]))
        return ["form", op, *form_flags, f"--x={draw(vectors(m))}"]
    if choice == 5:
        return ["form", "eval", *form_flags, f"--x={draw(vectors(m))}",
                f"--y={draw(vectors(m))}"]
    if choice == 6:
        op = draw(st.sampled_from(["isometry", "det"]))
        return ["form", op, *form_flags, f"--matrix={draw(matrices(m))}"]
    if choice == 7:
        base = ",".join(draw(st.lists(label, max_size=3)))
        return ["form", "transvection", *form_flags, f"--base={base}",
                f"--c={draw(elements(m))}"]
    if choice == 8:
        spec = draw(st.text(max_size=12) | json_values.map(json.dumps))
        return ["lagrangian", "solve", "--branch", branch, "--m", str(m), f"--spec={spec}"]
    if choice == 9:
        return ["lagrangian", "sweep", "--branch", branch, "--m", str(m), "--count", "1",
                "--seed", str(draw(st.integers(0, 3)))]
    residues = draw(
        st.text(max_size=6)
        | st.lists(st.integers(-(2**70), 2**70), max_size=3).map(lambda r: ",".join(map(str, r)))
    )
    return ["census", "--n", str(draw(st.integers(-1, 10))), "--m", str(m),
            "--g", str(draw(st.integers(-1, 30))), f"--pontryagin={residues}"]


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_cli_prints_one_json_document_and_exits_cleanly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--json", *argv])
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, (argv, lines)
    doc = json.loads(lines[0])
    assert code in ((0, 1, 2, 3) if argv[0] == "census" else (0, 1)), (argv, code)
    if code == 1:
        assert set(doc) == {"error", "detail"}, (argv, doc)
