"""Per-op correctness gates. Each raises `CheckFailed`; the op then counts
as failed. Budgets are the acceptance gate's: held-out relative L2 <= 2% and
max-displacement error <= 1e-3 mm. Timing fields are never compared.
"""

from __future__ import annotations

import json

import numpy as np

REL_L2_BUDGET = 0.02
MAX_DISP_BUDGET_MM = 1e-3
TRAINING_RANGE = (20.0, 80.0)


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def is_extrapolation(dt: float) -> bool:
    lo, hi = TRAINING_RANGE
    return not lo <= dt <= hi


def check_field(field: np.ndarray, n_nodes: int, what: str) -> None:
    require(isinstance(field, np.ndarray) and field.shape == (n_nodes,),
            f"{what}: shape {getattr(field, 'shape', None)}, want ({n_nodes},)")
    require(bool(np.isfinite(field).all()), f"{what}: non-finite values")


def check_prediction(pred, dt: float, n_nodes: int) -> None:
    """A POD-GPR `FieldPrediction`: shape, finite, ordered band, flag."""
    check_field(pred.mean_field, n_nodes, f"dt={dt} mean")
    require(bool((pred.lower_95 <= pred.mean_field).all()
                 and (pred.mean_field <= pred.upper_95).all()),
            f"dt={dt}: band does not bracket the mean")
    require(pred.extrapolation == is_extrapolation(dt),
            f"dt={dt}: extrapolation={pred.extrapolation}")


def check_same(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Bit-identical arrays (a save/load round trip or a repeated call)."""
    require(np.asarray(a).shape == np.asarray(b).shape
            and np.array_equal(a, b), f"{what}: not bit-identical")


def check_same_prediction(a, b, dt: float) -> None:
    for field in ("mean_field", "lower_95", "upper_95", "coeff_means",
                  "coeff_variances"):
        check_same(getattr(a, field), getattr(b, field), f"dt={dt} {field}")
    require(a.extrapolation == b.extrapolation, f"dt={dt}: extrapolation differs")


def worst_errors(rows) -> tuple[float, float]:
    """Worst relative L2 and max-displacement error (mm) over evaluation
    rows, given as dicts the way report.json holds them."""
    require(len(rows) > 0, "no evaluation rows")
    rel = max(r["relative_l2"] for r in rows)
    disp = max(abs(r["max_disp_pred"] - r["max_disp_true"]) for r in rows)
    return rel, disp


def check_budgets(rel: float, disp: float) -> None:
    require(rel <= REL_L2_BUDGET, f"held-out relative L2 {rel} > {REL_L2_BUDGET}")
    require(disp <= MAX_DISP_BUDGET_MM,
            f"max-displacement error {disp} mm > {MAX_DISP_BUDGET_MM}")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def check_cli_stdout(returncode: int, stdout: str, stderr: str = "") -> dict:
    """A CLI call exits 0 and prints exactly one strict-JSON object line."""
    require(returncode == 0,
            f"exit {returncode}: {stderr.strip().splitlines()[-1:]}")
    lines = stdout.splitlines()
    require(len(lines) == 1, f"{len(lines)} stdout lines, want 1")
    try:
        summary = json.loads(lines[0], parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    require(isinstance(summary, dict), "stdout JSON is not an object")
    return summary
