"""Same-output digest of the Lagrangian solver (stdlib only).

    python3 tests/same_outputs.py

Run from any directory; cyclact is imported from `src/` of the checkout this
file sits in, and the sweep groups from its `bench/workloads.py`. Prints one
line, `<lines> <sha256>`: the number of JSON lines and the SHA-256 over them.
Each line (sorted keys) holds a spec, `solve(spec).to_json()` and
`replay()`, or the error's class name and message when the solve raises.

The specs: every sweep-small and sweep-tail spec at seeds 1 and 2, drawn as
`run_sweep` draws them (each (branch, m) group from its own
random.Random(seed)), then the first 10 specs from a fresh random.Random(5)
at odd-m 13 and 21, even-m 12 and 20, and even-n 12. Two trees whose
digests agree give the same specs, traces, certificates and replays.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from cyclact.complement import Branch, sample_spec, solve  # noqa: E402
from cyclact.errors import CyclactError  # noqa: E402
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


def line(spec) -> str:
    try:
        trace = solve(spec)
        out = {"trace": trace.to_json(), "replay": trace.replay()}
    except CyclactError as exc:
        out = {"error": type(exc).__name__, "detail": str(exc)}
    return json.dumps({"spec": spec.to_json(), **out}, sort_keys=True)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for spec in specs():
        digest.update(line(spec).encode() + b"\n")
        count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
