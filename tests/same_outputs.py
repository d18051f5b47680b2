"""Same-output digests of the solver and of the census, spectral and selftest documents (stdlib only).

    python3 tests/same_outputs.py

Run from any directory; cyclact is imported from `src/` of the checkout this
file sits in, and the sweep groups from its `bench/workloads.py`. Prints two
lines, each `<lines> <sha256>`: the number of JSON lines (sorted keys) and
the SHA-256 over them. Two trees whose lines agree give the same outputs.

Line 1, the solver. Each JSON line holds a spec, `solve(spec).to_json()`
and `replay()`, or the error's class name and message when the solve
raises. The specs: every sweep-small and sweep-tail spec at seeds 1 and 2,
drawn as `run_sweep` draws them (each (branch, m) group from its own
random.Random(seed)), then the first 10 specs from a fresh random.Random(5)
at odd-m 13 and 21, even-m 12 and 20, and even-n 12.

Line 2, the documents. `classification(...).to_json()` for n = 2..11,
m = 2..39, 105, 1001 and 2310, and g = 0..79, each without Pontryagin
residues and with the residues 1, 2, ..., n // 4; then `e2_page` and
`spin_line_report` for m = 2..39, untwisted and twisted; then
`run_selftest("all", seed)` for seeds 0..5 without its `elapsedSeconds`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from cyclact.census import ActionQuery, classification  # noqa: E402
from cyclact.complement import Branch, sample_spec, solve  # noqa: E402
from cyclact.errors import CyclactError  # noqa: E402
from cyclact.selftest import run_selftest  # noqa: E402
from cyclact.spectral import e2_page, spin_line_report  # noqa: E402
from workloads import SWEEP_SMALL, SWEEP_TAIL  # noqa: E402

WIDE = [("odd-m", 13), ("odd-m", 21), ("even-m", 12), ("even-m", 20), ("even-n", 12)]


def specs():
    for seed in (1, 2):
        for branch, m, count in [*SWEEP_SMALL, *SWEEP_TAIL]:
            rng = random.Random(seed)
            for _ in range(count):
                yield sample_spec(Branch(branch), m, rng)
    for branch, m in WIDE:
        rng = random.Random(5)
        for _ in range(10):
            yield sample_spec(Branch(branch), m, rng)


def document_lines():
    moduli = [*range(2, 40), 105, 1001, 2310]
    for n in range(2, 12):
        for m in moduli:
            for g in range(80):
                for residues in (None, tuple(range(1, n // 4 + 1))):
                    yield classification(ActionQuery(n, m, g, residues)).to_json()
    for m in range(2, 40):
        for twisted in (False, True):
            yield e2_page(m, twisted).to_json()
            yield spin_line_report(m, twisted).to_json()
    for seed in range(6):
        doc = run_selftest("all", seed).to_json()
        del doc["elapsedSeconds"]
        yield doc


def line(spec) -> str:
    try:
        trace = solve(spec)
        out = {"trace": trace.to_json(), "replay": trace.replay()}
    except CyclactError as exc:
        out = {"error": type(exc).__name__, "detail": str(exc)}
    return json.dumps({"spec": spec.to_json(), **out}, sort_keys=True)


def digest_line(lines) -> str:
    digest = hashlib.sha256()
    count = 0
    for text in lines:
        digest.update(text.encode() + b"\n")
        count += 1
    return f"{count} {digest.hexdigest()}"


def main() -> None:
    print(digest_line(map(line, specs())))
    print(digest_line(json.dumps(doc, sort_keys=True) for doc in document_lines()))


if __name__ == "__main__":
    main()
