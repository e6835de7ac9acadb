"""Per-layer tracing of `mixedsums` from outside the package.

`Recorder.patched()` replaces every binding of the traced functions in the
`mixedsums.*` module namespaces (the modules bind each other's functions
with `from ... import`), plus the traced methods of `FieldTable`,
`MultChar` and `Checker`, with wrappers that record spans or counts. On
exit it puts every original object back.

A span is (name, start, end, parent). Spans stay in memory, in flat arrays,
until `save` writes them out. Children of a span never overlap each other,
because all spans come from one thread's call stack; so a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

ARITH = ("add", "sub", "mul", "pow", "neg", "inv")
MELLIN_DIRECT = ("mellin_v_all", "mellin_p0_all", "double_mellin_matrix",
                 "hyper_kernel_row", "null_locus_sum")
MELLIN_CLOSED = ("mellin_v_closed", "mellin_v_closed_root", "mellin_v_octic",
                 "mellin_p0_closed", "mellin_p0_closed_root", "kummer_closed",
                 "null_locus_closed", "double_mellin_closed", "hyper_kernel_closed",
                 "pair_coeffs", "pair_coeffs_gauss")
SUITES = ("run_classical", "run_transforms", "run_mellin_field", "run_main", "run_mellin")

# Traced callables as (module, attribute path). The span name is the
# module's short name and the attribute path, e.g. "gf.FieldTable.add".
TRACED = (
    [("mixedsums.gf", "build_field")]
    + [("mixedsums.gf", f"FieldTable.{m}") for m in ARITH]
    + [("mixedsums.chars", "MultChar.__call__"), ("mixedsums.chars", "MultChar.values"),
       ("mixedsums.chars", "char_matrix")]
    + [("mixedsums.sums", f) for f in ("gauss_table", "gauss", "jacobi", "hyp2f1_many",
                                       "hasse_davenport_residual")]
    + [("mixedsums.mixed", f) for f in ("make_context", "state_vector", "mixed_table")]
    + [("mixedsums.mellin", f) for f in MELLIN_DIRECT + MELLIN_CLOSED
       + ("hyper_kernel_closed_row", "inverse_mellin")]
    + [("mixedsums.harness", f) for f in SUITES + ("emit_report",)]
    + [("mixedsums.cli", "main")]
)
# Counted, not spanned: too cheap or too frequent for a span.
COUNTED = (
    ("mixedsums.chars", "MultChar.__init__"),
    ("mixedsums.harness", "Checker.compare"),
    ("mixedsums.harness", "Checker.compare_arrays"),
    ("mixedsums.harness", "Checker.report"),
)
# Array-building functions whose tracemalloc peak is recorded (numpy reports
# its allocations to tracemalloc).
ALLOC = ("mixed.state_vector", "mixed.mixed_table")

# Span groups that per-layer metrics are taken over.
GROUPS = {
    "gf.build_field": ["gf.build_field"],
    "gf.arith": [f"gf.FieldTable.{m}" for m in ARITH],
    "chars.multchar.eval": ["chars.MultChar.__call__", "chars.MultChar.values"],
    "chars.char_matrix": ["chars.char_matrix"],
    **{f"sums.{f}": [f"sums.{f}"] for f in ("gauss_table", "gauss", "jacobi", "hyp2f1_many",
                                            "hasse_davenport_residual")},
    **{f"mixed.{f}": [f"mixed.{f}"] for f in ("make_context", "state_vector", "mixed_table")},
    "mellin.direct": [f"mellin.{f}" for f in MELLIN_DIRECT],
    "mellin.double_mellin_matrix": ["mellin.double_mellin_matrix"],
    "mellin.closed": [f"mellin.{f}" for f in MELLIN_CLOSED],
    "mellin.double_mellin_closed": ["mellin.double_mellin_closed"],
    "mellin.pair_coeffs": ["mellin.pair_coeffs", "mellin.pair_coeffs_gauss"],
    "mellin.hyper_kernel_closed_row": ["mellin.hyper_kernel_closed_row"],
    "mellin.inverse_mellin": ["mellin.inverse_mellin"],
    **{f"harness.{f}": [f"harness.{f}"] for f in SUITES + ("emit_report",)},
    "harness.suites": [f"harness.{f}" for f in SUITES],
    "cli.main": ["cli.main"],
}
# (group, quantity) pairs reported as "<group>.<quantity>".
SPAN_METRICS = (
    [("gf.build_field", "calls"), ("gf.build_field", "s"),
     ("gf.arith", "calls"), ("gf.arith", "self_s"),
     ("chars.multchar.eval", "calls"), ("chars.multchar.eval", "self_s"),
     ("chars.char_matrix", "s"),
     ("sums.gauss_table", "s"), ("sums.gauss", "calls"), ("sums.gauss", "self_s"),
     ("sums.jacobi", "calls"), ("sums.jacobi", "self_s"),
     ("sums.hyp2f1_many", "calls"), ("sums.hyp2f1_many", "self_s"),
     ("sums.hasse_davenport_residual", "s"),
     ("mixed.make_context", "calls"), ("mixed.state_vector", "s"),
     ("mixed.mixed_table", "s"), ("mixed.mixed_table", "self_s"),
     ("mellin.direct", "self_s"), ("mellin.double_mellin_matrix", "s"),
     ("mellin.closed", "calls"), ("mellin.closed", "self_s"),
     ("mellin.double_mellin_closed", "calls"), ("mellin.double_mellin_closed", "s"),
     ("mellin.pair_coeffs", "s"), ("mellin.hyper_kernel_closed_row", "s"),
     ("mellin.inverse_mellin", "calls"), ("mellin.inverse_mellin", "s")]
    + [(f"harness.{f}", "s") for f in SUITES + ("emit_report",)]
    + [("harness.suites", "self_s"), ("cli.main", "s"), ("cli.main", "self_s")]
)


def span_name(module: str, path: str) -> str:
    return module.removeprefix("mixedsums.") + "." + path


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part its direct children cover."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def outermost(in_group: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans of a group with no ancestor in the same group."""
    nested = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        nested[live] |= in_group[anc[live]]
        anc[live] = parent[anc[live]]
    return in_group & ~nested


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.alloc_peak: dict[str, int] = {}
        self.fields: set = set()
        self._matrices: dict[int, weakref.ref] = {}

    # -- recording --

    def _span(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _alloc(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), peak)

        return wrapper

    def _counted(self, name: str, fn, on_result=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _on_result(self, name: str):
        if name.startswith("gf.FieldTable."):
            return self._note_elems
        return {"gf.build_field": self._note_field,
                "chars.char_matrix": self._note_matrix,
                "harness.Checker.report": self._note_report}.get(name)

    def _note_elems(self, args, result):
        self.counts["gf.arith.elems"] += np.size(result)

    def _note_field(self, args, result):
        self.fields.add(tuple(args))

    def _note_matrix(self, args, result):
        ref = self._matrices.get(id(result))
        if ref is None or ref() is not result:
            self._matrices[id(result)] = weakref.ref(result)
            self.counts["chars.char_matrix.bytes"] += result.nbytes

    def _note_report(self, args, report):
        self.counts["harness.instances"] += report.instances

    def _wrap(self, module: str, path: str, fn, counted: bool):
        name = span_name(module, path)
        if counted:
            return self._counted(name, fn, self._on_result(name))
        if name in ALLOC:
            fn = self._alloc(name, fn)
        return self._span(name, fn, self._on_result(name))

    @contextmanager
    def patched(self):
        """Trace every binding of the traced callables; restore all on exit."""
        for module, _ in (*TRACED, *COUNTED):
            importlib.import_module(module)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mixedsums" or n.startswith("mixedsums.")]
        undo = []
        try:
            for targets, counted in ((TRACED, False), (COUNTED, True)):
                for module, path in targets:
                    owner = sys.modules[module]
                    *cls_path, attr = path.split(".")
                    for part in cls_path:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]
                    wrapper = self._wrap(module, path, original, counted)
                    if cls_path:
                        undo.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
                        continue
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, name, original))
                                setattr(mod, name, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results --

    def arrays(self):
        """Copies of the span columns: name index, start, end, parent."""
        return (np.array(self.name_of, dtype=np.int32), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64))

    def metrics(self) -> dict[str, float]:
        name_of, start, end, parent = self.arrays()
        dur = end - start
        selfs = self_times(start, end, parent)
        out: dict[str, float] = {}
        for group, quantity in SPAN_METRICS:
            ids = [i for i, n in enumerate(self.names) if n in GROUPS[group]]
            in_group = np.isin(name_of, ids)
            if quantity == "calls":
                value = int(in_group.sum())
            elif quantity == "self_s":
                value = float(selfs[in_group].sum())
            else:
                value = float(dur[outermost(in_group, parent)].sum())
            out[f"{group}.{quantity}"] = value
        builds = out["gf.build_field.calls"]
        out["gf.build_field.useful_ratio"] = len(self.fields) / builds if builds else 0.0
        out["gf.arith.elems"] = self.counts["gf.arith.elems"]
        out["chars.multchar.created"] = self.counts["chars.MultChar.__init__"]
        out["chars.char_matrix.bytes"] = self.counts["chars.char_matrix.bytes"]
        for name in ALLOC:
            out[f"{name}.alloc_peak_mb"] = self.alloc_peak.get(name, 0) / 2**20
        out["harness.compare.calls"] = self.counts["harness.Checker.compare"]
        out["harness.compare_arrays.calls"] = self.counts["harness.Checker.compare_arrays"]
        out["harness.checks"] = self.counts["harness.Checker.report"]
        out["harness.instances"] = self.counts["harness.instances"]
        return out

    def save(self, path) -> None:
        """Write the spans out (names, name index, start, end, parent)."""
        name_of, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_of=name_of,
                            start=start, end=end, parent=parent)
