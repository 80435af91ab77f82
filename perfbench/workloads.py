"""The benchmark's workloads: set-up and one closed loop each.

Every workload uses the noise-free synthetic cylinder on the 13 dwell times
20:80:5, trains on TRAIN_DTS and holds out HELD_OUT. One caller runs the ops
back to back: the next op starts when the previous one has returned and been
checked. The seed picks the POD-GPR/GCA seeds (seed, seed+1, ...) and the
order of every dwell-time list. An op whose check fails, or that raises a
romforge error, counts as failed and leaves no timing sample.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import romforge.dataset
import romforge.gca
import romforge.metrics
import romforge.rom
import romforge.training
from romforge.errors import RomforgeError

from checks import (CheckFailed, check_budgets, check_cli_stdout, check_field,
                    check_prediction, check_same, check_same_prediction,
                    is_extrapolation, require, worst_errors)

HERE = Path(__file__).resolve().parent

DWELL_TIMES = [20.0 + 5.0 * i for i in range(13)]
TRAIN_DTS = [20.0, 25.0, 35.0, 40.0, 50.0, 55.0, 65.0, 70.0, 80.0]
HELD_OUT = [30.0, 45.0, 60.0, 75.0]
VAL_DTS = [30.0, 60.0]
OUTSIDE = [10.0, 15.0, 85.0, 90.0]     # extrapolating predictions

SETUP_REPEATS = 3          # at least, and for at least SETUP_MIN_S
SETUP_MIN_S = 1.0
EVALS_PER_TRAIN = 8
PREDICT_RATIO = 0.5        # predict time per cycle / train-and-eval time
# trained with patience = GCA_EPOCHS, so early stopping never shortens a run
GCA_EPOCHS = 30
CLI_PREDICTS_PER_CYCLE = 2
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Mesh:
    radial: int
    theta: int
    layers: int

    @property
    def n_nodes(self) -> int:
        return self.radial * self.theta * (self.layers + 1)

    @property
    def dataset_bytes(self) -> int:
        return len(DWELL_TIMES) * self.n_nodes * self.layers * 8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "rom", "gca" or "cli"
    mesh: Mesh


WORKLOADS = {w.name: w for w in (
    Workload("rom-1k", "rom", Mesh(5, 24, 8)),
    Workload("rom-63k", "rom", Mesh(20, 96, 32)),
    Workload("gca-1k", "gca", Mesh(5, 24, 8)),
    Workload("cli-1k", "cli", Mesh(5, 24, 8)),
)}


def clock(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class Run:
    """State of one benchmark run: inputs from the seed, samples, counts."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 src: Path) -> None:
        self.workload = workload
        self.mesh = workload.mesh
        self.workdir = workdir
        self._next_seed = seed
        rng = np.random.default_rng(seed)
        self.train_dts = [float(v) for v in rng.permutation(TRAIN_DTS)]
        self.held_out = [float(v) for v in rng.permutation(HELD_OUT)]
        self.val_dts = [float(v) for v in rng.permutation(VAL_DTS)]
        self.predict_dts = [float(v) for v in
                            rng.permutation(DWELL_TIMES + OUTSIDE)]
        self.dts = itertools.cycle(self.predict_dts)
        # metric -> [(perf_counter when the op ended, value), ...]
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.setup_times: list[float] = []
        self.counts: dict[str, float] = {"dataset.bytes": self.mesh.dataset_bytes}
        self.attempted = 0
        self.failed = 0
        self.tracer = None             # a Tracer while the traced half runs
        self.cli_spans: list[list] = []  # one span list per traced CLI call
        self.cli_import_s: list[float] = []
        self.cli_startup_s: list[float] = []
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (
            os.pathsep + pythonpath if pythonpath else ""))

    def take_seed(self) -> int:
        self._next_seed += 1
        return self._next_seed - 1

    def op(self, body):
        """Run one op; returns its result, or None when it failed."""
        self.attempted += 1
        try:
            return body()
        except (CheckFailed, RomforgeError, subprocess.TimeoutExpired,
                OSError, KeyError, ValueError) as exc:
            # ValueError covers a malformed JSON sidecar and LinAlgError
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {self.workload.name} op failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def peak_rss_mb(self) -> float:
        who = (resource.RUSAGE_CHILDREN if self.workload.kind == "cli"
               else resource.RUSAGE_SELF)
        return resource.getrusage(who).ru_maxrss / 1024.0

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append((time.perf_counter(), value))

    def record_eval(self, seconds: float, rows) -> None:
        rel, disp = worst_errors(rows)
        self.sample("eval_s", seconds)
        self.sample("rel_l2_max", rel)
        self.sample("max_disp_err_mm", disp)

    def record_rom(self, rank: int, energy: float, archive: Path) -> None:
        n = self.mesh.n_nodes
        self.counts.update({
            "pod.rank": rank,
            "pod.energy_captured": energy,
            "rom.archive_bytes": dir_bytes(archive),
            # (modes**2) @ var as written: read modes, write and re-read the
            # squares, write the n-vector
            "rom.band_bytes": 3 * n * rank * 8 + n * 8,
        })


def predict_phase(run: Run, predict, check, compare, deadline: float) -> None:
    """Predict at the seed-ordered dwell times until the deadline (at least
    once); each answer must pass `check` and repeat the model's first answer
    for its dt."""
    first = {}
    done = 0
    while done == 0 or time.perf_counter() < deadline:
        done += 1
        dt = next(run.dts)

        def body():
            out, seconds = clock(predict, dt)
            check(out, dt)
            compare(out, first.setdefault(dt, out), dt)
            run.sample("predict_us", seconds * 1e6)
        run.op(body)


def cycles(run: Run, budget: float, train_op, eval_op, predict_until
           ) -> None:
    """Train, evaluate EVALS_PER_TRAIN times, predict for PREDICT_RATIO of
    that time, and repeat until the budget is spent. Interleaving the ops
    spreads each metric's samples over the whole run, so a slow spell on a
    shared host moves every metric alike rather than one."""
    deadline = time.perf_counter() + budget
    done = 0
    while done == 0 or time.perf_counter() < deadline:
        done += 1
        started = time.perf_counter()
        model = run.op(train_op)
        if model is None:
            continue
        for _ in range(EVALS_PER_TRAIN):
            run.op(lambda: eval_op(model))
        burst = PREDICT_RATIO * (time.perf_counter() - started)
        predict_until(model, min(deadline, time.perf_counter() + burst))


def repeat_setup(once, min_repeats: int, min_seconds: float):
    """Run `once` at least `min_repeats` times and for `min_seconds`; the
    last result is the state the loop uses."""
    started = time.perf_counter()
    done = 0
    state = None
    while done < min_repeats or time.perf_counter() - started < min_seconds:
        done += 1
        state = None          # let the previous data go before making more
        state = once()
    return state


# In-process POD-GPR and GCA ==================================================

def setup_inproc(run: Run, min_repeats: int, min_seconds: float):
    """Generate the dataset (and, for GCA, its graph); the set-up of the
    in-process workloads."""
    m = run.mesh

    def once():
        started = time.perf_counter()
        data = romforge.dataset.generate_synthetic_dataset(
            m.radial, m.theta, m.layers, DWELL_TIMES)
        graph = (romforge.gca.build_graph(data.mesh)
                 if run.workload.kind == "gca" else None)
        run.setup_times.append(time.perf_counter() - started)
        return data, graph
    return repeat_setup(once, min_repeats, min_seconds)


def rom_loop(run: Run, state, budget: float) -> None:
    data, _ = state
    train, test = romforge.dataset.split_dataset(data, run.train_dts,
                                                 run.held_out)
    archive = run.workdir / "rom"
    plots = run.workdir / "plots"
    n = run.mesh.n_nodes

    def train_op():
        model, seconds = clock(romforge.rom.train_pod_gpr, train,
                               seed=run.take_seed())
        romforge.rom.save_rom(model, archive)
        loaded = romforge.rom.load_rom(archive)
        for dt in run.held_out + OUTSIDE:
            check_same_prediction(romforge.rom.predict_distortion(model, dt),
                                  romforge.rom.predict_distortion(loaded, dt),
                                  dt)
        run.sample("train_s", seconds)
        run.record_rom(model.rank, model.basis.energy_captured, archive)
        return model

    def eval_op(rom):
        started = time.perf_counter()
        rows = [romforge.metrics.evaluation_row(
                    dt, romforge.rom.predict_distortion(rom, dt).mean_field,
                    test.matrix_for(dt).final_field)
                for dt in run.held_out]
        report = romforge.metrics.report_to_dict(
            romforge.metrics.EvalReport(rows=tuple(rows)))
        romforge.metrics.emit_coefficient_plot(
            rom, run.held_out, min(4, rom.rank), plots / "coefficients")
        romforge.metrics.emit_max_displacement_plot(
            rows, plots / "max_displacement")
        (plots / "report.json").write_text(json.dumps(report, sort_keys=True))
        seconds = time.perf_counter() - started
        check_budgets(*worst_errors(report["rows"]))
        run.record_eval(seconds, report["rows"])

    def predicts(rom, deadline):
        predict_phase(run, lambda dt: romforge.rom.predict_distortion(rom, dt),
                      lambda pred, dt: check_prediction(pred, dt, n),
                      check_same_prediction, deadline)

    cycles(run, budget, train_op, eval_op, predicts)


def gca_loop(run: Run, state, budget: float) -> None:
    data, graph = state
    train, test = romforge.dataset.split_dataset(data, run.train_dts,
                                                 run.held_out)
    _, val = romforge.dataset.split_dataset(data, [], run.val_dts)
    plots = run.workdir / "plots"
    n = run.mesh.n_nodes

    def train_op():
        config = romforge.training.GcaTrainConfig(
            max_epochs=GCA_EPOCHS, patience=GCA_EPOCHS, seed=run.take_seed())
        (model, history), seconds = clock(romforge.training.train_gca,
                                          train, val, graph, config)
        require(len(history) == GCA_EPOCHS,
                f"{len(history)} epochs, want {GCA_EPOCHS}")
        require(all(np.isfinite([r.train_loss, r.val_loss]).all()
                    for r in history), "non-finite loss in history")
        run.sample("train_s", seconds)
        run.counts["gca.params"] = sum(p.size for p in model.params.values())
        return model

    def eval_op(model):
        started = time.perf_counter()
        fields = {dt: romforge.gca.predict_gca(model, graph, dt)
                  for dt in run.held_out}
        rows = [romforge.metrics.evaluation_row(
                    dt, fields[dt], test.matrix_for(dt).final_field)
                for dt in run.held_out]
        romforge.metrics.emit_max_displacement_plot(
            rows, plots / "max_displacement")
        seconds = time.perf_counter() - started
        for dt, field in fields.items():
            check_field(field, n, f"GCA dt={dt}")
        run.record_eval(seconds, romforge.metrics.report_to_dict(
            romforge.metrics.EvalReport(rows=tuple(rows)))["rows"])

    def predicts(model, deadline):
        predict_phase(run, lambda dt: romforge.gca.predict_gca(model, graph, dt),
                      lambda field, dt: check_field(field, n, f"GCA dt={dt}"),
                      lambda a, b, dt: check_same(a, b, f"GCA dt={dt}"),
                      deadline)

    cycles(run, budget, train_op, eval_op, predicts)


# The CLI, one fresh process per call =========================================

def cli_call(run: Run, *args: str) -> tuple[dict, float]:
    if run.tracer is None:
        cmd = [sys.executable, "-m", "romforge.cli", *args]
    else:
        spans_path = run.workdir / "cli_spans.json"
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_path),
               *args]
    proc, seconds = clock(subprocess.run, cmd, capture_output=True, text=True,
                          env=run.env, timeout=CLI_TIMEOUT_S)
    summary = check_cli_stdout(proc.returncode, proc.stdout, proc.stderr)
    if run.tracer is not None:
        doc = json.loads(spans_path.read_text())
        run.cli_spans.append(doc["spans"])
        run.tracer.absent.update(doc["absent"])
        run.cli_import_s.append(doc["import_s"])
        run.cli_startup_s.append(seconds - doc["main_s"])
    return summary, seconds


def setup_cli(run: Run, min_repeats: int, min_seconds: float) -> Path:
    """`romforge gen`, repeated into the same directory."""
    data = run.workdir / "data"
    m = run.mesh

    def gen_op():
        summary, seconds = cli_call(
            run, "gen", "--out", str(data), "--dwell-times", "20:80:5",
            "--layers", str(m.layers), "--radial", str(m.radial),
            "--theta", str(m.theta), "--seed", "0")
        require(summary.get("n_h") == m.n_nodes
                and summary.get("n_mu") == len(DWELL_TIMES),
                f"gen summary {summary}")
        run.setup_times.append(seconds)

    repeat_setup(lambda: run.op(gen_op), min_repeats, min_seconds)
    return data


def _dt_list(dts) -> str:
    return ",".join(repr(dt) for dt in dts)


def cli_loop(run: Run, data: Path, budget: float) -> None:
    archive = run.workdir / "rom"
    plots = run.workdir / "plots"
    out = run.workdir / "pred" / "field.bin"
    deadline = time.perf_counter() + budget

    def train_op():
        summary, seconds = cli_call(
            run, "train", "--model", "pod-gpr", "--data", str(data),
            "--out", str(archive), "--train", _dt_list(run.train_dts),
            "--seed", str(run.take_seed()))
        reference = romforge.rom.load_rom(archive)
        require(summary.get("rank") == reference.rank, f"train summary {summary}")
        run.sample("train_s", seconds)
        run.record_rom(reference.rank, summary["energy_captured"], archive)
        return reference

    def predict_op(reference, dt):
        summary, seconds = cli_call(run, "predict", "--model-dir", str(archive),
                                    "--dt", repr(dt), "--out", str(out))
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        pred = romforge.rom.predict_distortion(reference, dt)
        field = romforge.dataset.read_snapshot_bin(out)
        check_same(field, pred.mean_field[:, None], f"CLI field dt={dt}")
        for doc in (summary, sidecar):
            require(doc.get("max_displacement") == pred.max_displacement,
                    f"dt={dt}: CLI max_displacement {doc.get('max_displacement')}"
                    f" != in-process {pred.max_displacement}")
            require(doc.get("extrapolation") is is_extrapolation(dt),
                    f"dt={dt}: CLI extrapolation {doc.get('extrapolation')}")
        run.sample("predict_us", seconds * 1e6)

    def eval_op():
        summary, seconds = cli_call(
            run, "eval", "--model-dir", str(archive), "--data", str(data),
            "--test", _dt_list(run.held_out), "--plots", str(plots), "--time")
        rows = summary.get("rows", [])
        require(sorted(r["dt"] for r in rows) == HELD_OUT,
                f"eval rows for {[r['dt'] for r in rows]}")
        check_budgets(*worst_errors(rows))
        run.record_eval(seconds, rows)

    # a cycle takes seconds, so after the first one the deadline is checked
    # before every call
    done = 0

    def more() -> bool:
        return done == 1 or time.perf_counter() < deadline

    while done == 0 or time.perf_counter() < deadline:
        done += 1
        reference = run.op(train_op)
        if reference is None:
            continue
        for _ in range(CLI_PREDICTS_PER_CYCLE):
            if not more():
                return
            dt = next(run.dts)
            run.op(lambda: predict_op(reference, dt))
        if more():
            run.op(eval_op)


SETUP = {"rom": setup_inproc, "gca": setup_inproc, "cli": setup_cli}
LOOP = {"rom": rom_loop, "gca": gca_loop, "cli": cli_loop}
