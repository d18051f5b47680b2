"""Every span target of the benchmark's tracer names a function in the package.

The tracer (bench/tracer.py) wraps each TARGETS entry by name, so a change
that deletes or renames one breaks the traced benchmark run. This test reads
the tracer's table and fails in the plain test suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves_in_the_package():
    targets = _targets()
    assert targets
    for span, mod_name, path in targets:
        mod = importlib.import_module(f"cyclact.{mod_name}")
        if "." in path:
            # methods are wrapped where their class defines them
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(mod, cls_name)), span
        else:
            assert callable(getattr(mod, path, None)), span
