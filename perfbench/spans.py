"""Spans and counters recorded from outside the package.

The traced run wraps the public functions named in ``TRACED`` in every
``siefring_kit`` module namespace that binds them, so calls made by the
benchmark and calls one package function makes into another are both
seen.  Each span is ``[name, op_id, parent_index, start, end, rejected]``;
spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

LAYERS = ("germs", "spectrum", "core", "intersection", "audit", "closed", "cli", "jsonio")

TRACED = {
    "germs": (
        "local_intersection",
        "delta_local",
        "branched_cover",
        "numeric_intersection_oracle",
        "numeric_double_point_oracle",
    ),
    "spectrum": (
        "assemble",
        "eigen_window",
        "alphas_from_spectrum",
        "orbit_from_loop",
        "spectrum_report",
        "covering_multiplicity",
        "integrate_linear_ode",
        "fit_decay",
    ),
    "core": ("scene_from_dict", "shift_scene"),
    "intersection": ("star", "curve_report"),
    "audit": ("audit_scene",),
    "closed": ("cp2_degree_table",),
    "jsonio": ("canonical_dumps",),
    "cli": ("main",),
}


class Tracer:
    """Records spans and counters when ``enabled``; otherwise every method
    is a no-op, so the untraced run pays only an attribute lookup."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.maxima[name] = max(self.maxima[name], value)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; package errors mark it rejected."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, self.op_id, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        except self._refusal:
            rec[5] = True
            raise
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
        self._observe(name, result)
        return result

    def _observe(self, name, result):
        if name == "spectrum.assemble":
            self.peak("spectrum.matrix_dim_max", result.matrix.shape[0])
        elif name == "spectrum.eigen_window":
            self.counts["spectrum.eigen_window.pairs"] += len(result)
            for pair in result:
                self.peak("spectrum.residual_max", pair.residual)

    def install(self) -> None:
        """Wrap the traced functions wherever a package module binds them."""
        if not self.enabled:
            return
        import importlib

        importlib.import_module("siefring_kit.cli")  # binds every traced module
        self._refusal = importlib.import_module("siefring_kit.errors").SiefringKitError
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "siefring_kit" and m]
        for layer, names in TRACED.items():
            owner = sys.modules[f"siefring_kit.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def summary(self, busy_wall: float) -> dict:
        """Per-function count/busy/rejects, per-layer self time, coverage."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        fn = defaultdict(lambda: {"count": 0, "busy_s": 0.0, "rejects": 0})
        layer_self = {layer: 0.0 for layer in LAYERS}
        root = 0.0
        for i, (name, _, parent, start, end, rejected) in enumerate(self.spans):
            entry = fn[name]
            entry["count"] += 1
            entry["busy_s"] += end - start
            entry["rejects"] += int(rejected)
            layer_self[name.split(".")[0]] += (end - start) - child[i]
            if parent < 0:
                root += end - start
        return {
            "functions": dict(fn),
            "layer_self_s": layer_self,
            "covered_share": root / busy_wall if busy_wall > 0 else 0.0,
            "spans": len(self.spans),
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
