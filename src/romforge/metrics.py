"""Error metrics, evaluation reports, timing, and dependency-free plots.

Each plot is built from arrays and written by one emitter as a CSV table
plus a hand-built SVG 1.1 document (no plotting library): stacked 800x600
panels, shaded 95% bands, round-number axis ticks. Every CSV value is
written with full repr precision so files round-trip. A report holds only
its rows, so timing a run never changes ``report.json``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import write_file
from .errors import ConfigurationError, NumericalError
from .gpr import predict_gpr
from .rom import CI95_FACTOR, PodGprRom

__all__ = [
    "EvalRow",
    "EvalReport",
    "relative_l2",
    "max_displacement_error",
    "evaluation_row",
    "report_to_dict",
    "emit_coefficient_plot",
    "emit_max_displacement_plot",
    "time_predict",
]


def _fields(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    """Both fields as flat float64 arrays of one length."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if pred.shape != truth.shape:
        raise ConfigurationError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return pred, truth


def _relative(diff: np.ndarray, truth: np.ndarray) -> float:
    """``||diff|| / ||truth||``; ``|pred - truth|`` has the same norm bits."""
    denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        raise NumericalError("truth field has zero norm")
    return float(np.linalg.norm(diff)) / denom


def relative_l2(pred: np.ndarray, truth: np.ndarray) -> float:
    """Relative Euclidean error ``||pred - truth|| / ||truth||``."""
    pred, truth = _fields(pred, truth)
    return _relative(pred - truth, truth)


def max_displacement_error(pred: np.ndarray, truth: np.ndarray
                           ) -> dict[str, float]:
    """Compare the scalar maxima of two fields (not per-node errors)."""
    return _maxima(*_fields(pred, truth))


def _maxima(pred: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    max_pred = float(pred.max())
    max_true = float(truth.max())
    return {"delta": abs(max_pred - max_true),
            "max_true": max_true, "max_pred": max_pred}


@dataclass(frozen=True)
class EvalRow:
    dt: float
    max_disp_true: float
    max_disp_pred: float
    max_abs_node_error: float
    relative_l2: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise NumericalError("evaluation row contains non-finite values")
        if self.relative_l2 < 0.0:
            raise NumericalError("relative_l2 must be non-negative")


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EvalRow, ...]  # all that report.json holds: never a timing


def evaluation_row(dt: float, pred: np.ndarray, truth: np.ndarray) -> EvalRow:
    """One row; both node errors come from one ``|pred - truth|``."""
    pred, truth = _fields(pred, truth)
    maxes = _maxima(pred, truth)
    diff = np.subtract(pred, truth)
    np.abs(diff, out=diff)
    return EvalRow(
        dt=float(dt),
        max_disp_true=maxes["max_true"],
        max_disp_pred=maxes["max_pred"],
        max_abs_node_error=float(diff.max()),
        relative_l2=_relative(diff, truth),
    )


#: The keys of a row in ``report.json``: :class:`EvalRow`'s fields, in order.
_ROW_KEYS = tuple(f.name for f in fields(EvalRow))


def report_to_dict(report: EvalReport) -> dict:
    return {"rows": [{key: getattr(r, key) for key in _ROW_KEYS}
                     for r in report.rows]}


# SVG emission ================================================================

_PANEL_W = 800
_PANEL_H = 600
_ML, _MR, _MT, _MB = 85, 30, 50, 65


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0.0 or not math.isfinite(span):
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _bounds(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)] if values.size else values
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.06 * (hi - lo)
    return lo - pad, hi + pad


class _Panel:
    """One 800x600 coordinate frame; collects SVG fragments."""

    def __init__(self, y_top: float, xb: tuple[float, float],
                 yb: tuple[float, float], title: str, xlabel: str,
                 ylabel: str) -> None:
        self.y_top = y_top
        self.xb, self.yb = xb, yb
        self.parts: list[str] = []
        self._frame(title, xlabel, ylabel)

    def _sx(self, x: float) -> float:
        lo, hi = self.xb
        return _ML + (x - lo) / (hi - lo) * (_PANEL_W - _ML - _MR)

    def _sy(self, y: float) -> float:
        lo, hi = self.yb
        return (self.y_top + _PANEL_H - _MB
                - (y - lo) / (hi - lo) * (_PANEL_H - _MT - _MB))

    def _frame(self, title: str, xlabel: str, ylabel: str) -> None:
        top, bot = self.y_top + _MT, self.y_top + _PANEL_H - _MB
        left, right = _ML, _PANEL_W - _MR
        p = self.parts
        p.append(f'<rect x="0" y="{self.y_top}" width="{_PANEL_W}" '
                 f'height="{_PANEL_H}" fill="white"/>')
        p.append(f'<rect x="{left}" y="{top}" width="{right - left}" '
                 f'height="{bot - top}" fill="none" stroke="black"/>')
        p.append(f'<text x="{_PANEL_W / 2}" y="{self.y_top + 28}" '
                 f'text-anchor="middle" font-size="20" '
                 f'font-family="sans-serif">{title}</text>')
        p.append(f'<text x="{(left + right) / 2}" y="{bot + 45}" '
                 f'text-anchor="middle" font-size="15" '
                 f'font-family="sans-serif">{xlabel}</text>')
        p.append(f'<text x="22" y="{(top + bot) / 2}" text-anchor="middle" '
                 f'font-size="15" font-family="sans-serif" '
                 f'transform="rotate(-90 22 {(top + bot) / 2})">{ylabel}</text>')
        for tick in _nice_ticks(*self.xb):
            sx = self._sx(tick)
            p.append(f'<line x1="{sx:.2f}" y1="{bot}" x2="{sx:.2f}" '
                     f'y2="{bot + 6}" stroke="black"/>')
            p.append(f'<text x="{sx:.2f}" y="{bot + 22}" text-anchor="middle" '
                     f'font-size="13" font-family="sans-serif">{tick:g}</text>')
        for tick in _nice_ticks(*self.yb):
            sy = self._sy(tick)
            p.append(f'<line x1="{left - 6}" y1="{sy:.2f}" x2="{left}" '
                     f'y2="{sy:.2f}" stroke="black"/>')
            p.append(f'<text x="{left - 10}" y="{sy + 4:.2f}" text-anchor="end" '
                     f'font-size="13" font-family="sans-serif">{tick:g}</text>')

    def band(self, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             color: str) -> None:
        if len(x) == 0:
            return
        fwd = [f"{self._sx(a):.2f},{self._sy(b):.2f}" for a, b in zip(x, lo)]
        back = [f"{self._sx(a):.2f},{self._sy(b):.2f}"
                for a, b in zip(x[::-1], hi[::-1])]
        pts = " ".join(fwd + back)
        self.parts.append(f'<polygon points="{pts}" fill="{color}" '
                          f'fill-opacity="0.25" stroke="none"/>')

    def line(self, x: np.ndarray, y: np.ndarray, color: str,
             dash: str = "") -> None:
        if len(x) == 0:
            return
        pts = " ".join(f"{self._sx(a):.2f},{self._sy(b):.2f}"
                       for a, b in zip(x, y))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(f'<polyline points="{pts}" fill="none" '
                          f'stroke="{color}" stroke-width="2"{extra}/>')

    def markers(self, x: np.ndarray, y: np.ndarray, color: str) -> None:
        for a, b in zip(x, y):
            self.parts.append(f'<circle cx="{self._sx(a):.2f}" '
                              f'cy="{self._sy(b):.2f}" r="5" fill="{color}" '
                              f'stroke="black"/>')


def _emit(path, header: list[str], rows, panels: list[_Panel]
          ) -> tuple[Path, Path]:
    """Write ``<path>.csv`` (``header``, then ``rows`` at full repr
    precision) and ``<path>.svg`` (``panels`` stacked top to bottom) into a
    created parent directory; return both paths."""
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    csv_path, svg_path = base.with_suffix(".csv"), base.with_suffix(".svg")
    write_file(csv_path, [",".join(header) + "\n", *(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows)])
    height = _PANEL_H * max(len(panels), 1)
    body = "\n".join(part for panel in panels for part in panel.parts)
    write_file(svg_path, [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_PANEL_W}" height="{height}" '
        f'viewBox="0 0 {_PANEL_W} {height}">\n'
        f"{body}\n</svg>\n"
    ])
    return csv_path, svg_path


def emit_coefficient_plot(rom: PodGprRom, dts, first_k: int, path
                          ) -> tuple[Path, Path]:
    """Predicted coefficient curves with 95% bands, one panel per mode.

    Writes ``<path>.csv`` (``dt``, then each mode's mean, low and high) and
    ``<path>.svg``; training coefficients are overlaid as markers. Only the
    mode posteriors are evaluated, no fields. Returns the two paths.
    """
    if first_k < 1 or first_k > rom.rank:
        raise ConfigurationError(
            f"first_k must be in [1, {rom.rank}], got {first_k}"
        )
    x = np.array([float(dt) for dt in dts])
    means, variances = predict_gpr(rom.gp, rom.input_norm.apply(x))
    mean = means[:first_k]
    half = CI95_FACTOR * np.sqrt(variances[:first_k])
    lo, hi = mean - half, mean + half

    train_x = np.array(rom.training_dwell_times)
    header, columns, panels = ["dt"], [x], []
    for j in range(first_k):
        header += [f"mode_{j}_mean", f"mode_{j}_lo", f"mode_{j}_hi"]
        columns += [mean[j], lo[j], hi[j]]
        train_y = rom.gp.train_targets[j]
        panel = _Panel(j * _PANEL_H, _bounds(np.concatenate([x, train_x])),
                       _bounds(np.concatenate([lo[j], hi[j], train_y])),
                       f"POD coefficient, mode {j}", "dwell time (s)",
                       "coefficient")
        panel.band(x, lo[j], hi[j], "#4878cf")
        panel.line(x, mean[j], "#4878cf")
        panel.markers(train_x, train_y, "#d65f5f")
        panels.append(panel)
    return _emit(path, header, zip(*columns), panels)


def emit_max_displacement_plot(rows, path) -> tuple[Path, Path]:
    """Max displacement vs dwell time, predicted against ground truth, in
    a stable sort by ``dt``. Returns the ``.csv`` and ``.svg`` paths."""
    table = [(r.dt, r.max_disp_true, r.max_disp_pred)
             for r in sorted(rows, key=lambda r: r.dt)]
    if not table:
        raise ConfigurationError("no evaluation rows to plot")
    x, truth, pred = np.array(table).T
    panel = _Panel(0, _bounds(x), _bounds(np.concatenate([truth, pred])),
                   "Maximum displacement vs dwell time", "dwell time (s)",
                   "max displacement (mm)")
    panel.line(x, truth, "#262626")
    panel.line(x, pred, "#d65f5f", dash="6,4")
    panel.markers(x, pred, "#d65f5f")
    return _emit(path, ["dt", "max_disp_true", "max_disp_pred"], table,
                 [panel])


#: Most predictor calls :func:`time_predict` may time.
MAX_TIMED_CALLS = 100_000


def time_predict(predict, dts, repeats: int) -> float:
    """Mean seconds per call over `repeats` sweeps of `dts`.

    ``predict`` is any one-dwell-time predictor, ``dt -> prediction``. One
    untimed warm-up sweep runs first. Each sweep is timed as a whole and
    divided by the number of dwell times; the mean is over sweeps.
    """
    if repeats < 1:
        raise ConfigurationError("repeats must be at least 1")
    dts = [float(dt) for dt in dts]
    if not dts:
        raise ConfigurationError("need at least one dwell time to benchmark")
    if repeats * len(dts) > MAX_TIMED_CALLS:
        raise ConfigurationError(f"repeats {repeats} x {len(dts)} dwell times "
                                 f"is over {MAX_TIMED_CALLS} timed calls")
    for dt in dts:  # warm-up, excluded from stats
        predict(dt)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for dt in dts:
            predict(dt)
        samples.append((time.perf_counter() - start) / len(dts))
    return float(np.mean(samples))
