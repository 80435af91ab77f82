"""Span recording for the traced benchmark run, from outside the package.

`install` swaps each romforge function in `WRAPPED` for a wrapper at the
module attribute its callers bind (``romforge.cli.load_rom``,
``romforge.training.adamw_step``, ...), so nothing under ``src/`` changes. A
span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1; spans stay in memory until the run writes them out. A
wrapped function that no longer exists is recorded as absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# span name -> the module attributes that bind the function
WRAPPED = {
    "dataset.generate": ["romforge.dataset:generate_synthetic_dataset",
                         "romforge.cli:generate_synthetic_dataset"],
    "dataset.load": ["romforge.dataset:load_snapshot_tensor",
                     "romforge.cli:load_snapshot_tensor"],
    "pod.compute_pod": ["romforge.rom:compute_pod"],
    "pod.project": ["romforge.rom:project"],
    "pod.reconstruct": ["romforge.rom:reconstruct"],
    "gpr.fit": ["romforge.rom:fit_gpr"],
    "gpr.make": ["romforge.rom:make_gpr"],
    "gpr.predict": ["romforge.rom:predict_gpr"],
    "rom.train": ["romforge.rom:train_pod_gpr", "romforge.cli:train_pod_gpr"],
    "rom.predict": ["romforge.rom:predict_distortion",
                    "romforge.cli:predict_distortion",
                    "romforge.metrics:predict_distortion"],
    "rom.save": ["romforge.rom:save_rom", "romforge.cli:save_rom"],
    "rom.load": ["romforge.rom:load_rom", "romforge.cli:load_rom"],
    "gca.loss_and_grads": ["romforge.training:batch_loss_and_grads"],
    "gca.val_loss": ["romforge.training:batch_loss"],
    "gca.predict": ["romforge.gca:predict_gca", "romforge.cli:predict_gca"],
    "optim.adamw": ["romforge.training:adamw_step"],
    "training.train_gca": ["romforge.training:train_gca",
                           "romforge.cli:train_gca"],
    "metrics.coeff_plot": ["romforge.metrics:emit_coefficient_plot",
                           "romforge.cli:emit_coefficient_plot"],
    "metrics.maxdisp_plot": ["romforge.metrics:emit_max_displacement_plot",
                             "romforge.cli:emit_max_displacement_plot"],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        return self._stack[-1]

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Wrap every bound function in `WRAPPED`; returns the undo callable."""
        saved = []
        for name, targets in WRAPPED.items():
            for target in targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(target)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

        def restore():
            for module, attr, original in saved:
                setattr(module, attr, original)
        return restore


class SpanStats:
    """Durations and self times per span name, merged over processes."""

    def __init__(self) -> None:
        self.total: dict[str, list[float]] = {}
        self.self_time: dict[str, list[float]] = {}

    def add(self, spans) -> None:
        """Add one process's spans; parent indices refer to that list."""
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(spans, child):
            self.total.setdefault(name, []).append(end - start)
            self.self_time.setdefault(name, []).append(end - start - covered)

    def count(self, name: str) -> int:
        return len(self.total.get(name, ()))

    def median(self, name: str, self_only: bool = False) -> float:
        """Median seconds per call; 0.0 when the span never ran (absent)."""
        values = (self.self_time if self_only else self.total).get(name)
        return statistics.median(values) if values else 0.0

    def sum(self, name: str, self_only: bool = False) -> float:
        return sum((self.self_time if self_only else self.total).get(name, ()))
