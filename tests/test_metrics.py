"""Metrics, evaluation reports, plot emission, and timing.

SVG output is validated by parsing with xml.etree (well-formedness, correct
namespace, no external references); CSV output re-parses to the exact floats
that produced it.
"""

import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from romforge.dataset import generate_synthetic_dataset, split_dataset
from romforge.errors import ConfigurationError, NumericalError
from romforge.metrics import (
    MAX_TIMED_CALLS,
    EvalReport,
    EvalRow,
    emit_coefficient_plot,
    emit_max_displacement_plot,
    evaluation_row,
    max_displacement_error,
    relative_l2,
    report_to_dict,
    time_predict,
)
from romforge.rom import predict_distortion, train_pod_gpr

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def rom():
    dts = [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
    data = generate_synthetic_dataset(3, 6, 4, dts, seed=0)
    train, _ = split_dataset(data, dts, [])
    return train_pod_gpr(train, seed=0)


# ----------------------------------------------------------------- scalars ---


def test_relative_l2_basic_values():
    truth = np.array([1.0, 2.0, 2.0])
    assert relative_l2(truth, truth) == 0.0
    assert relative_l2(2.0 * truth, truth) == pytest.approx(1.0)
    assert relative_l2(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == (
        pytest.approx(1.0)
    )


def test_relative_l2_is_scale_invariant():
    rng = np.random.default_rng(0)
    truth = rng.normal(size=40)
    pred = truth + rng.normal(size=40)
    base = relative_l2(pred, truth)
    assert relative_l2(7.5 * pred, 7.5 * truth) == pytest.approx(base,
                                                                 rel=1e-12)


def test_relative_l2_rejects_degenerate_inputs():
    with pytest.raises(NumericalError, match="zero norm"):
        relative_l2(np.ones(3), np.zeros(3))
    with pytest.raises(ConfigurationError, match="length mismatch"):
        relative_l2(np.ones(3), np.ones(4))


def test_max_displacement_error_against_scan():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=25)
    truth = rng.normal(size=25)
    out = max_displacement_error(pred, truth)
    # independent linear scan instead of np.max
    best_p = best_t = -math.inf
    for a, b in zip(pred, truth):
        best_p = a if a > best_p else best_p
        best_t = b if b > best_t else best_t
    assert out["max_pred"] == best_p
    assert out["max_true"] == best_t
    assert out["delta"] == abs(best_p - best_t)


def test_evaluation_row_values():
    truth = np.array([0.0, 3.0, 4.0])
    pred = np.array([0.0, 3.0, 4.5])
    row = evaluation_row(42.0, pred, truth)
    assert row.dt == 42.0
    assert row.max_disp_true == 4.0
    assert row.max_disp_pred == 4.5
    assert row.max_abs_node_error == 0.5
    assert row.relative_l2 == pytest.approx(0.5 / 5.0)


def test_eval_row_validation():
    with pytest.raises(NumericalError, match="non-finite"):
        EvalRow(dt=1.0, max_disp_true=math.nan, max_disp_pred=0.0,
                max_abs_node_error=0.0, relative_l2=0.0)
    with pytest.raises(NumericalError, match="non-negative"):
        EvalRow(dt=1.0, max_disp_true=0.0, max_disp_pred=0.0,
                max_abs_node_error=0.0, relative_l2=-0.1)


# ------------------------------------------------------------------ report ---


def test_report_round_trip_without_timing():
    rows = (EvalRow(dt=45.0, max_disp_true=0.1, max_disp_pred=0.11,
                    max_abs_node_error=0.01, relative_l2=0.05),)
    assert report_to_dict(EvalReport(rows=rows)) == {"rows": [
        {"dt": 45.0, "max_disp_true": 0.1, "max_disp_pred": 0.11,
         "max_abs_node_error": 0.01, "relative_l2": 0.05}]}


def test_report_round_trip_with_timing():
    rows = (EvalRow(dt=45.0, max_disp_true=0.1, max_disp_pred=0.11,
                    max_abs_node_error=0.01, relative_l2=0.05),)
    data = report_to_dict(EvalReport(rows=rows, predict_seconds_mean=0.003))
    assert data == {"rows": [
        {"dt": 45.0, "max_disp_true": 0.1, "max_disp_pred": 0.11,
         "max_abs_node_error": 0.01, "relative_l2": 0.05}],
        "predict_seconds_mean": 0.003}


# ------------------------------------------------------------------- plots ---


def read_csv(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_valid_svg(path):
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    for el in root.iter():
        for attr, value in el.attrib.items():
            if "href" in attr:
                raise AssertionError(f"external reference via {attr}={value}")
    return root


def test_coefficient_plot_csv_matches_predictions(rom, tmp_path):
    dts = [float(v) for v in np.linspace(20.0, 80.0, 13)]
    first_k = 4
    csv_path, svg_path = emit_coefficient_plot(rom, dts, first_k,
                                               tmp_path / "coeffs")
    header, rows = read_csv(csv_path)
    assert header[0] == "dt"
    assert len(header) == 1 + 3 * first_k
    assert len(rows) == 13
    for text_row, dt in zip(rows, dts):
        values = [float(v) for v in text_row]
        assert values[0] == dt
        pred = predict_distortion(rom, dt)
        for j in range(first_k):
            mean, lo, hi = values[1 + 3 * j: 4 + 3 * j]
            assert mean == pred.coeff_means[j]
            half = 1.96 * math.sqrt(pred.coeff_variances[j])
            assert lo == pytest.approx(mean - half, abs=1e-15)
            assert hi == pytest.approx(mean + half, abs=1e-15)

    root = assert_valid_svg(svg_path)
    bands = [e for e in root.iter(f"{SVG_NS}polygon")]
    markers = [e for e in root.iter(f"{SVG_NS}circle")]
    assert len(bands) == first_k
    # one training marker per GP training point per panel
    assert len(markers) == first_k * rom.gp.n_train


def test_coefficient_plot_rejects_bad_mode_count(rom, tmp_path):
    with pytest.raises(ConfigurationError):
        emit_coefficient_plot(rom, [40.0], 0, tmp_path / "plot")
    with pytest.raises(ConfigurationError):
        emit_coefficient_plot(rom, [40.0], rom.rank + 1, tmp_path / "plot")


def test_coefficient_plot_with_no_sweep_points(rom, tmp_path):
    csv_path, svg_path = emit_coefficient_plot(rom, [], 2, tmp_path / "empty")
    header, rows = read_csv(csv_path)
    assert len(header) == 7
    assert rows == []
    root = assert_valid_svg(svg_path)
    # training markers still appear even without a prediction sweep
    assert len(list(root.iter(f"{SVG_NS}circle"))) == 2 * rom.gp.n_train


def test_max_displacement_plot_round_trip(tmp_path):
    rows = [
        EvalRow(dt=75.0, max_disp_true=0.09, max_disp_pred=0.088,
                max_abs_node_error=0.002, relative_l2=0.01),
        EvalRow(dt=45.0, max_disp_true=0.12, max_disp_pred=0.125,
                max_abs_node_error=0.005, relative_l2=0.02),
    ]
    csv_path, svg_path = emit_max_displacement_plot(rows, tmp_path / "maxd")
    header, table = read_csv(csv_path)
    assert header == ["dt", "max_disp_true", "max_disp_pred"]
    # rows come out sorted by dwell time
    assert [float(r[0]) for r in table] == [45.0, 75.0]
    assert float(table[0][1]) == 0.12
    assert float(table[1][2]) == 0.088
    assert_valid_svg(svg_path)


def test_max_displacement_plot_requires_rows(tmp_path):
    with pytest.raises(ConfigurationError):
        emit_max_displacement_plot([], tmp_path / "plot")


# ------------------------------------------------------------------ timing ---


def test_time_predict_single_repeat_statistics(rom):
    result = time_predict(lambda dt: predict_distortion(rom, dt),
                          [30.0, 55.0], repeats=1)
    assert isinstance(result, float) and result > 0.0


def test_time_predict_times_any_predictor():
    calls = []
    result = time_predict(calls.append, [30.0, 55.0], repeats=2)
    # one warm-up sweep plus two timed sweeps
    assert calls == [30.0, 55.0] * 3
    assert result > 0.0


def test_time_predict_validates_inputs(rom):
    def predict(dt):
        return predict_distortion(rom, dt)
    with pytest.raises(ConfigurationError):
        time_predict(predict, [30.0], repeats=0)
    with pytest.raises(ConfigurationError):
        time_predict(predict, [], repeats=1)


def test_time_predict_bounds_the_timed_calls():
    # the bound is checked before the warm-up sweep calls the predictor
    calls = []
    with pytest.raises(ConfigurationError, match=str(MAX_TIMED_CALLS)):
        time_predict(calls.append, [30.0], repeats=MAX_TIMED_CALLS + 1)
    assert calls == []
    time_predict(calls.append, [30.0, 55.0], repeats=MAX_TIMED_CALLS // 2)
    assert len(calls) == MAX_TIMED_CALLS + 2
