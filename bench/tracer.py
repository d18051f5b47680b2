"""Per-layer tracing of cyclact from the outside, without editing `src/`.

`Tracer.install()` replaces each layer's public functions and methods with
wrappers that record a span (name, start, end, parent) in memory.
`from .x import y` copies a binding into the importing module, so a wrapped
function is rebound under every name that holds it in any `cyclact` module.
`uninstall()` puts every original back.

A span's self time is its duration minus the time its child spans cover,
including the wrappers' own bookkeeping, so tracing cost lands in no layer.

An exception counts as an error only if it escapes the outermost span, so
one the library catches itself (a rejected spec in `sample_spec`, a singular
matrix in the solver's transport step) is not an error. It is charged to the
innermost span it left, the layer that raised it, once.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (span name, module, attribute path). Methods are wrapped on their class.
TARGETS = (
    ("intlattice.hnf", "intlattice", "row_hnf_transform"),
    ("intlattice.express", "intlattice", "ZLattice.express"),
    ("intlattice.reduce", "intlattice", "ZLattice.reduce"),
    ("intlattice.reduce", "intlattice", "ZLattice.contains"),
    ("intlattice.det_int", "intlattice", "det_int"),
    ("groupring.mul", "groupring", "GroupRingElement.__mul__"),
    ("groupring.param_reduce", "groupring", "param_reduce"),
    ("groupring.ideal_contains_one", "groupring", "ideal_contains_one"),
    ("groupring.ideal_normalize", "groupring", "ideal_normalize"),
    ("groupring.exact_divide", "groupring", "exact_divide"),
    ("groupring.is_unit", "groupring", "is_unit"),
    ("groupring.geometric", "groupring", "GroupRingElement.geometric"),
    ("forms.lambda_eval", "forms", "lambda_eval"),
    ("forms.mu_eval", "forms", "mu_eval"),
    ("forms.ring_det", "forms", "ring_det"),
    ("forms.inverse", "forms", "RingMatrix.inverse"),
    ("forms.verify", "forms", "verify_lagrangian_complement"),
    ("forms.isometry_check", "forms", "isometry_check"),
    ("complement.sample", "complement", "sample_spec"),
    ("complement.validate", "complement", "EmbeddingSpec.validate"),
    ("complement.transport", "complement", "rank2_vector_isometry"),
    ("complement.solve", "complement", "solve"),
    ("complement.replay", "complement", "SolverTrace.replay"),
    ("spectral.spin_line_report", "spectral", "spin_line_report"),
    ("spectral.steenrod_square", "spectral", "steenrod_square"),
    ("census.classification", "census", "classification"),
    ("cli.main", "cli", "main"),
)

LAYERS = ("intlattice", "groupring", "forms", "complement", "spectral", "census", "cli")

# Names reported with calls and self_s (the others are listed in per_layer).
TIMED = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def _bits(rows) -> int:
    return max((abs(c).bit_length() for row in rows for c in row), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self_s)
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        # id(exception) -> (exception, innermost span it left); holding the
        # exception keeps its id from being reused until the dict is cleared
        self._raised: dict = {}
        self.hnf_cells = 0
        self.hnf_bits_max = 0
        self.cert_bits_max = 0
        self.active = False
        self._open: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._saved: list[tuple] = []  # (owner, attribute, original value)

    # --- installing the wrappers --------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "cyclact" or name.startswith("cyclact."))]
        by_name = {mod.__name__: mod for mod in modules}
        for span, mod_name, path in TARGETS:
            mod = by_name[f"cyclact.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(span, raw.__func__))
                else:
                    new = self._wrap(span, raw)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
            else:
                fn = getattr(mod, path)
                wrapper = self._wrap(span, fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._saved.append((owner, attr, fn))
                            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset_stack(self) -> None:
        """Drop spans left open by an operation that was interrupted."""
        self._open.clear()
        self._raised.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        after = {
            "intlattice.hnf": self._after_hnf,
            "complement.solve": self._after_solve,
        }.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = clock()
            stack = tracer._open
            parent = stack[-1][0] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException as exc:
                origin = tracer._raised.setdefault(id(exc), (exc, name))[1]
                if len(stack) == 1 and stack[0] is frame:  # leaving the outermost span
                    tracer.errors[(origin, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                if not stack:
                    tracer._raised.clear()
                tracer.spans.append((sid, parent, name, start, end, end - start - frame[1]))
                if ok and after is not None:
                    after(args, result)
                if stack:
                    stack[-1][1] += clock() - entered
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hnf(self, args, result) -> None:
        rows, ncols = args
        self.hnf_cells += len(rows) * ncols
        self.hnf_bits_max = max(self.hnf_bits_max, _bits(result[1]))

    def _after_solve(self, args, trace) -> None:
        bits = _bits(c.coeffs for v in trace.U for c in v.coords)
        self.cert_bits_max = max(self.cert_bits_max, bits)

    # --- reading the spans ----------------------------------------------------

    def metrics(self, timeouts: int, exhausted: int) -> dict:
        """Per-layer totals over every span recorded, as {name: value}."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        names = {}
        for sid, _, name, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            names[sid] = name
        validated_in_sample = sum(
            1 for _, parent, name, *_ in self.spans
            if name == "complement.validate" and names.get(parent) == "complement.sample"
        )
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["intlattice.hnf.cells"] = self.hnf_cells
        out["intlattice.hnf.transform_bits_max"] = self.hnf_bits_max
        out["complement.sample.accept_ratio"] = (
            calls["complement.sample"] / validated_in_sample if validated_in_sample else 0.0
        )
        out["complement.exhausted"] = exhausted
        out["complement.timeouts"] = timeouts
        out["complement.cert_bits_max"] = self.cert_bits_max
        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(
                n for (name, _), n in self.errors.items() if name.split(".")[0] == layer
            )
        return out
