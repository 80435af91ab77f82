"""Tests of the benchmark itself: a tiny-mesh smoke run of every workload
kind, the correctness checkers, and the tracer.

    python3 -m pytest perfbench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

TINY = workloads.Mesh(radial=2, theta=8, layers=3)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("kind", ["rom", "gca", "cli"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_mesh_run_emits_every_named_metric(kind, trace, tmp_path):
    workload = workloads.Workload(f"tiny-{kind}", kind, TINY)
    result, counts, record = run.run_workload(
        workload, seed=3, seconds=0.5, trace=trace, workdir=tmp_path, src=SRC)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert ("processes" in record) == trace
    if not trace:
        assert all(counts[name] >= 1 for name in declared)
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rom-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# Checkers ====================================================================

def _perturbed(field):
    out = field.copy()
    out[len(out) // 2] = np.nextafter(out[len(out) // 2], np.inf)
    return out


def test_a_perturbed_field_is_flagged():
    field = np.linspace(0.0, 1.0, 50)
    checks.check_same(field, field.copy(), "field")
    with pytest.raises(CheckFailed):
        checks.check_same(_perturbed(field), field, "field")


@pytest.fixture(scope="module")
def rom():
    import romforge as rf
    data = rf.generate_synthetic_dataset(2, 8, 3, workloads.DWELL_TIMES)
    train, _ = rf.split_dataset(data, workloads.TRAIN_DTS, [])
    return rf.train_pod_gpr(train, seed=0)


def test_prediction_checks_flag_perturbed_predictions(rom):
    import dataclasses
    import romforge as rf
    pred = rf.predict_distortion(rom, 45.0)
    n = pred.mean_field.shape[0]
    checks.check_prediction(pred, 45.0, n)
    checks.check_same_prediction(pred, rf.predict_distortion(rom, 45.0), 45.0)
    bad_band = dataclasses.replace(pred, upper_95=pred.mean_field - 1.0)
    with pytest.raises(CheckFailed):
        checks.check_prediction(bad_band, 45.0, n)
    with pytest.raises(CheckFailed):
        checks.check_prediction(pred, 90.0, n)        # flag says interpolation
    moved = dataclasses.replace(pred, lower_95=_perturbed(pred.lower_95))
    with pytest.raises(CheckFailed):
        checks.check_same_prediction(moved, pred, 45.0)
    with pytest.raises(CheckFailed):
        checks.check_field(np.append(pred.mean_field, np.nan), n + 1, "field")


@pytest.mark.parametrize("stdout", [
    "not json\n",
    '{"a": 1}\n{"b": 2}\n',
    '{"a": Infinity}\n',
    "[1, 2]\n",
    "",
])
def test_cli_stdout_must_be_one_json_object_line(stdout):
    with pytest.raises(CheckFailed):
        checks.check_cli_stdout(0, stdout)


def test_cli_stdout_check_accepts_one_line_and_rejects_failure_exit():
    assert checks.check_cli_stdout(0, '{"a": 1}\n') == {"a": 1}
    with pytest.raises(CheckFailed):
        checks.check_cli_stdout(3, '{"a": 1}\n', "romforge: boom\n")


def test_budgets_are_the_acceptance_gate():
    rows = [{"relative_l2": 0.01, "max_disp_pred": 1.0, "max_disp_true": 1.0005}]
    checks.check_budgets(*checks.worst_errors(rows))
    with pytest.raises(CheckFailed):
        checks.check_budgets(0.03, 0.0)
    with pytest.raises(CheckFailed):
        checks.check_budgets(0.0, 2e-3)


# Estimators ==================================================================

def test_block_figures_follow_the_share_of_slow_spells():
    # three seconds of fast calls, then two slow; one stray call per second
    fast = [(i / 10, 100.0) for i in range(30)]
    slow = [(3 + i / 10, 200.0) for i in range(20)]
    stray = [(k + 0.55, 5000.0) for k in range(5)]
    samples = sorted(fast + slow + stray)
    assert run.median(run.values_of(samples)) == 100.0
    # blocks read 100, 100, 100, 200, 200; the trimmed mean keeps the middle
    assert run.over_blocks(samples) == pytest.approx(400.0 / 3)
    assert run.over_blocks([]) == 0.0


def test_an_op_longer_than_a_block_is_its_own_block():
    samples = [(0.0, 2.5), (2.5, 2.5), (5.0, 2.7), (7.5, 2.4), (10.0, 9.0)]
    assert run.over_blocks(samples) == pytest.approx((2.5 + 2.5 + 2.7) / 3)


def test_a_tail_waits_for_enough_calls_in_a_block():
    samples = [(float(i), float(i)) for i in range(12)]     # 1 s calls
    assert run.over_blocks(samples, run.p90, 10) == pytest.approx(
        run.p90(run.values_of(samples)))


# Tracer ======================================================================

def test_self_time_subtracts_child_spans():
    stats = tracer.SpanStats()
    stats.add([["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0],
               ["inner", 6.0, 7.0, 0]])
    assert stats.median("outer") == 10.0
    assert stats.median("outer", self_only=True) == 6.0
    assert stats.count("inner") == 2 and stats.sum("inner") == 4.0
    assert stats.median("never-ran") == 0.0


def test_a_removed_function_is_absent_not_an_error(monkeypatch):
    import romforge.rom
    monkeypatch.setitem(tracer.WRAPPED, "gone.span",
                        ["romforge.rom:no_such_function"])
    original = romforge.rom.fit_gpr
    t = tracer.Tracer()
    restore = t.install()
    try:
        assert romforge.rom.fit_gpr is not original
    finally:
        restore()
    assert romforge.rom.fit_gpr is original
    assert "romforge.rom:no_such_function" in t.absent
