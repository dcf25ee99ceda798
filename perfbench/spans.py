"""Per-layer spans for the traced run, installed from outside the package.

Each spanned function is replaced, at every place the package binds it (its
defining module, every module that imported it by name, or its class), by a
wrapper that records a span: calls, total time and self time (total minus
the time of child spans).  A few count-only wrappers and hooks add the work
counters.  Spans are aggregated in memory and read out when the run ends.
Nothing under ``src/totref`` is edited.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter

# (layer, name); the layer is the totref module that defines the name.
SPANNED = (
    ("cli", "main"),
    ("graphs", "necessary_conditions"),
    ("graphs", "build_order"),
    ("algebra", "reduction_chain"),
    ("algebra", "GradedAlgebra.table"),
    ("algebra", "GradedAlgebra.multiply"),
    ("algebra", "GradedAlgebra.mult_map_matrix"),
    ("linalg", "Matrix.rank"),
    ("linalg", "Matrix.rref"),
    ("linalg", "Matrix.kernel_basis"),
    ("linalg", "Matrix.solve"),
    ("linalg", "Subspace.from_vectors"),
    ("analysis", "necessary_ring_conditions"),
    ("analysis", "quadratic_presentation"),
    ("analysis", "wlp_generic"),
    ("analysis", "kernel_system"),
    ("analysis", "find_ezd"),
    ("analysis", "verify_ezd"),
    ("analysis", "ideal_pair_analysis"),
    ("complexes", "full_certification"),
    ("complexes", "FreeComplexWindow.graded_exactness"),
    ("complexes", "FreeComplexWindow.block_matrix"),
    ("complexes", "FreeComplexWindow.compose_check"),
    ("complexes", "FreeComplexWindow.to_json"),
    ("complexes", "FreeComplexWindow.from_json"),
    ("lifting", "lift_complex"),
    ("lifting", "correction_matrix"),
    ("lifting", "certify_regular"),
    ("factory", "SpecialRing.__init__"),
    ("factory", "random_blocks"),
    ("factory", "make_block"),
    ("factory", "induced_matrix"),
    ("factory", "build_window"),
)

# Wrapped for a call count only: they run far too often for a span.
COUNTED = (
    ("algebra", "GradedAlgebra.mult_basis"),
    ("algebra", "QuotientMap.__init__"),
)

QP = "analysis.quadratic_presentation"

# name -> (unit, better) of every per-layer metric the traced run reports.
PER_LAYER = {}
for _layer, _name in SPANNED:
    PER_LAYER[f"{_layer}.{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.{_name}.total_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.{_name}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "cli.output_bytes": ("bytes", "lower"),
    "algebra.GradedAlgebra.mult_basis.calls": ("count", "lower"),
    "algebra.quotients_per_chain": ("ratio", "lower"),
    "linalg.Matrix.rank.cells": ("count", "lower"),
    "linalg.Matrix.rref.cells": ("count", "lower"),
    QP + ".peak_mb": ("MB", "lower"),
    "analysis.ezd_hit_ratio": ("ratio", "higher"),
    "complexes.FreeComplexWindow.block_matrix.cells": ("count", "lower"),
    "factory.block_accept_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
})


def _totref_modules():
    return [m for k, m in list(sys.modules.items()) if k == "totref" or k.startswith("totref.")]


def _patch(layer, name, make_wrapper, undo):
    """Replace totref.<layer>.<name> wherever the package binds it.

    Returns False when the name does not exist (a later version of the
    package may have renamed it); the metric then reads zero.
    """
    module = sys.modules.get(f"totref.{layer}")
    if module is None:
        return False
    owner, _, attr = name.rpartition(".")
    if owner:
        cls = getattr(module, owner, None)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        setattr(cls, attr, new)
        undo.append((cls, attr, raw))
        return True
    orig = getattr(module, attr, None)
    if orig is None:
        return False
    new = make_wrapper(orig)
    for mod in _totref_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
                undo.append((mod, key, orig))
    return True


def _unpatch(undo):
    while undo:
        obj, attr, value = undo.pop()
        setattr(obj, attr, value)


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.stack = []  # [name, child seconds] per open span
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()
        self.missing = []
        self._undo = []

    def install(self):
        for layer, name in SPANNED:
            span = f"{layer}.{name}"
            if not _patch(layer, name, lambda fn, span=span: self._span(span, fn), self._undo):
                self.missing.append(span)
        for layer, name in COUNTED:
            span = f"{layer}.{name}"
            if not _patch(layer, name, lambda fn, span=span: self._count(span, fn), self._undo):
                self.missing.append(span)

    def uninstall(self):
        _unpatch(self._undo)

    def _span(self, span, fn):
        hook = _HOOKS.get(span)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[span] += 1
                self.edges[(parent, span)] += 1
                self.total[span] += dt
                self.self_time[span] += dt - frame[1]
                if hook is not None:
                    hook(self, args, result)

        return wrapper

    def _count(self, span, fn):
        stack, counts = self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[span] += 1
            if stack:
                counts[(stack[-1][0], span)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self):
        """Per-layer metric values of the pass (trace.overhead_s and
        cli.output_bytes are filled in by the caller; peak_mb by MemoryProbe)."""
        out = {}
        for layer, name in SPANNED:
            span = f"{layer}.{name}"
            out[span + ".calls"] = self.calls[span]
            out[span + ".total_s"] = self.total[span]
            out[span + ".self_s"] = self.self_time[span]
        c = self.counts
        out["algebra.GradedAlgebra.mult_basis.calls"] = c["algebra.GradedAlgebra.mult_basis"]
        out["algebra.quotients_per_chain"] = _ratio(
            c[("algebra.reduction_chain", "algebra.QuotientMap.__init__")],
            self.calls["algebra.reduction_chain"],
        )
        out["linalg.Matrix.rank.cells"] = c["linalg.Matrix.rank.cells"]
        out["linalg.Matrix.rref.cells"] = c["linalg.Matrix.rref.cells"]
        out["analysis.ezd_hit_ratio"] = _ratio(
            c["analysis.verify_ezd.hits"], self.calls["analysis.verify_ezd"]
        )
        out["complexes.FreeComplexWindow.block_matrix.cells"] = c[
            "complexes.FreeComplexWindow.block_matrix.cells"
        ]
        out["factory.block_accept_ratio"] = _ratio(
            c["factory.random_blocks.accepted"],
            self.edges[("factory.random_blocks", "factory.make_block")],
        )
        return out

    def edge_list(self):
        return {f"{p or '-'} > {c}": n for (p, c), n in sorted(self.edges.items(), key=str)}


def _ratio(num, den):
    return num / den if den else 0.0


def _self_cells(key):
    def hook(tracer, args, result):
        tracer.counts[key] += args[0].rows * args[0].cols
    return hook


def _result_cells(key):
    def hook(tracer, args, result):
        if result is not None:
            tracer.counts[key] += result.rows * result.cols
    return hook


def _count_truthy(key):
    def hook(tracer, args, result):
        if result:
            tracer.counts[key] += 1
    return hook


_HOOKS = {
    "linalg.Matrix.rank": _self_cells("linalg.Matrix.rank.cells"),
    "linalg.Matrix.rref": _self_cells("linalg.Matrix.rref.cells"),
    "complexes.FreeComplexWindow.block_matrix": _result_cells(
        "complexes.FreeComplexWindow.block_matrix.cells"
    ),
    "analysis.verify_ezd": _count_truthy("analysis.verify_ezd.hits"),
    # random_blocks returns a block or raises, so a result is an acceptance
    "factory.random_blocks": _count_truthy("factory.random_blocks.accepted"),
}


class MemoryProbe:
    """Peak traced memory of quadratic_presentation, in its own pass.

    tracemalloc slows every allocation, so it runs only around that call and
    only in a pass whose times are not used.
    """

    def __init__(self):
        self.peak_mb = 0.0
        self._undo = []

    def install(self):
        layer, _, name = QP.partition(".")
        _patch(layer, name, self._wrap, self._undo)

    def uninstall(self):
        _unpatch(self._undo)

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_mb = max(self.peak_mb, peak / 2**20)

        return wrapper
