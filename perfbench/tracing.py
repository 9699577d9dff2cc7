"""Span tracer that wraps holoconf's public functions from outside the package.

Each call of a wrapped function records a span: name, start, end and the
span that was open when it began (its parent). Spans stay in compact arrays
in memory; ``dump`` writes them out once, at the end. Work counters are
recorded at the same boundaries.

``dual`` functions and the ``Bicomplex`` / ``Jet`` operators run once per
arithmetic operation; wrapping them would trace the tracer, so those layers
are measured by the isolated kernel timings in worker.py instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "holoconf"
LAYERS = ("bicomplex", "charts", "laplace", "algebra", "projective", "sampling", "suites", "report", "cli")
METHODS = (("report", "VerificationReport", "to_json"),)
SAMPLERS = ("chart_points", "upsilon_points", "scale_dimensions", "bicomplex_values")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.outer = array("b")  # 1 unless a span of the same name is already open
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.runs: list[tuple[int, int, Counter]] = []
        self._stack: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # --- recording -----------------------------------------------------------

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        self._open.append(0)
        hook = _HOOKS.get(label)
        name, parent, outer, start, end = self.name, self.parent, self.outer, self.start, self.end
        stack, opened, clock = self._stack, self._open, time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(opened[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            opened[nid] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                t1 = clock()
                opened[nid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if hook is not None:
                    hook(counts, args, result, exc)

        return traced

    def begin_run(self) -> None:
        self.counts.clear()
        self.runs.append((len(self.start), -1, Counter()))

    def end_run(self) -> None:
        lo, _, _ = self.runs[-1]
        self.runs[-1] = (lo, len(self.start), Counter(self.counts))

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of LAYERS where it is defined, and
        replace it in every holoconf module (and module-level dict, such as
        a dispatch table) that bound it by name."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        mods = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val], is_dict=False)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch(val, key, wrappers[item], is_dict=True)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]), is_dict=False)

    def _patch(self, target, key, new, is_dict: bool) -> None:
        old = target[key] if is_dict else getattr(target, key)
        self._patches.append((target, key, old, is_dict))
        if is_dict:
            target[key] = new
        else:
            setattr(target, key, new)

    def uninstall(self) -> None:
        for target, key, old, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = old
            else:
                setattr(target, key, old)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def summary(self, run: int) -> dict:
        """Per function: calls, inclusive seconds (outermost spans only) and
        self seconds (duration minus the part covered by child spans)."""
        lo, hi, _ = self.runs[run]
        name = np.frombuffer(self.name, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        outer = np.frombuffer(self.outer, dtype=np.int8)[lo:hi]
        dur = np.frombuffer(self.end, dtype=np.float64)[lo:hi] - np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        covered = np.zeros(hi - lo)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent] - lo, dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur * outer, minlength=k)
        self_s = np.bincount(name, weights=dur - covered, minlength=k)
        return {
            self.names[i]: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(self_s[i])}
            for i in range(k)
        }

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            run_bounds=np.array([(lo, hi) for lo, hi, _ in self.runs], dtype=np.int64).reshape(-1, 2),
        )


# --- work counters recorded at the span boundaries ----------------------------

def _count_points(counts, args, result, exc):
    if exc is None:
        counts["algebra.field_values.points"] += len(args[1])


def _count_drawn(counts, args, result, exc):
    if exc is None:
        counts["sampling.points_drawn"] += len(result)


def _count_poles(counts, args, result, exc):
    if isinstance(exc, sys.modules[f"{PACKAGE}.projective"].PoleError):
        counts["projective.mobius_apply.poles"] += 1


def _count_bytes(counts, args, result, exc):
    if exc is None:
        counts["report.bytes"] += len(result.encode())


_HOOKS = {
    "algebra.field_values": _count_points,
    "projective.mobius_apply": _count_poles,
    "report.VerificationReport.to_json": _count_bytes,
    **{f"sampling.{s}": _count_drawn for s in SAMPLERS},
}


# --- per-layer metrics of one traced run -------------------------------------

SUITE_NAMES = ("bicomplex", "charts", "laplace", "algebra", "projective")

# per-layer metrics named "<span>.<field>"; field is calls, self_s or s
# (inclusive seconds)
SPAN_METRICS = (
    *(f"suites.{s}.s" for s in SUITE_NAMES),
    "algebra.field_values.calls",
    "algebra.field_values.self_s",
    "algebra.apply_to_function.calls",
    "algebra.apply_to_function.self_s",
    "algebra.structure_table.s",
    "algebra.minkowski_check.s",
    "algebra.act.s",
    "algebra.bracket.calls",
    "algebra.generator.calls",
    "algebra.generator.self_s",
    "laplace.solve.calls",
    "laplace.solve.self_s",
    "laplace.laplacian.calls",
    "laplace.laplacian.self_s",
    "laplace.ylm_ratio.s",
    "charts.basis.calls",
    "charts.basis.self_s",
    "charts.metric.self_s",
    "charts.jacobian_mixed.self_s",
    "charts.jacobian_lower.self_s",
    "charts.invert.calls",
    "bicomplex.involution_projections.calls",
    "bicomplex.involution_projections.self_s",
    "projective.mobius_apply.calls",
    "projective.mobius_apply.self_s",
    "projective.exp_one_param.calls",
    "projective.exp_one_param.self_s",
    "projective.matrix_bracket_table.s",
    "projective.hopf.calls",
    "report.to_json.s",
    "cli.main.calls",
    "cli.main.s",
)
# metric prefix -> span name, where the two differ
SPAN_NAMES = {
    "report.to_json": "report.VerificationReport.to_json",
    **{f"suites.{s}": f"suites.{s}_checks" for s in SUITE_NAMES},
}
COUNTERS = (
    "algebra.field_values.points",
    "projective.mobius_apply.poles",
    "sampling.points_drawn",
    "report.bytes",
)


def run_metrics(tracer: Tracer, run: int) -> dict:
    """Per-layer metrics of one traced run, by benchmark metric name."""
    summary = tracer.summary(run)
    counts = tracer.runs[run][2]
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = summary[SPAN_NAMES.get(span, span)][field]
    for c in COUNTERS:
        out[c] = counts.get(c, 0)
    return out
