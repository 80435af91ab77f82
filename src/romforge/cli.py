"""Command-line front end: generate data, train, predict, evaluate.

Contract: every run prints exactly one JSON summary line to stdout and any
diagnostic to stderr as one line (``--help`` alone prints help, exit 0).
Exit codes: 0 success, else the error's ``exit_code``: 2 configuration
(usage errors and out-of-memory included), 3 I/O or data, 4 numerical
failure. :data:`COMMANDS` declares each option once; a flag overrides its
``--config`` key, which overrides the default. Unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .dataset import (
    ParameterPoint,
    generate_synthetic_dataset,
    load_snapshot_tensor,
    save_snapshot_tensor,
    split_dataset,
    write_file,
    write_snapshot_bin,
)
from .errors import ConfigurationError, DataError, NumericalError, RomforgeError
from .gpr import fit_decision
from .rom import load_rom, predict_distortion_many, save_rom, train_pod_gpr

__all__ = ["main", "parse_dwell_times"]
MAX_RANGE_COUNT = 100_000  # dwell times one start:stop:step range may hold


def parse_dwell_times(raw) -> list[float]:
    """Parse `start:stop:step` (stop inclusive when aligned) or a comma list."""
    if isinstance(raw, (list, tuple)):
        try:
            return [float(v) for v in raw]
        except (TypeError, ValueError):
            raise ConfigurationError(f"non-numeric dwell-time list {raw!r}")
    text = str(raw).strip()
    if not text:
        raise ConfigurationError("empty dwell-time list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"range syntax is start:stop:step, got {text!r}"
            )
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigurationError(f"non-numeric dwell-time range {text!r}")
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigurationError(f"non-finite dwell-time range {text!r}")
        if step <= 0.0 or stop < start:
            raise ConfigurationError(
                "need step > 0 and stop >= start in dwell-time range"
            )
        span = (stop - start) / step + 1e-9
        if not span < MAX_RANGE_COUNT:  # an infinite span fails this too
            raise ConfigurationError(
                f"dwell-time range {text!r} has over {MAX_RANGE_COUNT} values")
        return [start + i * step for i in range(int(span) + 1)]
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"non-numeric dwell-time list {text!r}")


# Converters ==================================================================
# each turns a flag's text or a config file's JSON value into a typed value;
# ``name`` is the value's source, for the error message.

def _scalar(kind, expected: str):
    """A JSON number or a string, never a bool, read by ``kind``."""
    def convert(value, name: str):
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            try:
                return kind(str(value))
            except ValueError:
                pass
        raise ConfigurationError(f"{name}: expected {expected}, got {value!r}")
    return convert


def _only(types, expected: str, read=lambda value: value):
    """A value of ``types`` only, which ``read`` converts."""
    def convert(value, name: str):
        if not isinstance(value, types):
            raise ConfigurationError(
                f"{name}: expected {expected}, got {value!r}")
        return read(value)
    return convert


_int = _scalar(int, "an integer")
_float = _scalar(float, "a number")
_path = _only(str, "a path", lambda value: Path(value).expanduser().resolve())
_dwell_times = _only((str, list), "a dwell-time list", parse_dwell_times)
_switch = _only(bool, "true or false")  # an on/off flag


def _dwell_time(value, name: str) -> float:
    """Finite and > 0, so a bad one fails before a model loads."""
    return ParameterPoint(_float(value, name)).dwell_time


def _model_kind(value, name: str) -> str:
    if value not in ("pod-gpr", "gca"):
        raise ConfigurationError(f"unknown model {value!r} (pod-gpr or gca)")
    return value


def _dumps(payload, **kwargs) -> str:
    """Strict JSON text (sorted keys); NaN or infinity is a numerical failure."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericalError(f"non-finite value in output: {exc}") from None


# Subcommand handlers =========================================================
# Each gets its options typed, as attributes named by their config keys.

def cmd_gen(ns: SimpleNamespace) -> dict:
    tensor = generate_synthetic_dataset(
        n_radial=ns.radial, n_theta=ns.theta, n_layers=ns.layers,
        dwell_times=ns.dwell_times, noise_sigma=ns.noise, seed=ns.seed)
    save_snapshot_tensor(tensor, ns.out)
    return {"out": str(ns.out), "n_mu": tensor.n_mu, "n_h": tensor.n_nodes,
            "n_t": tensor.n_steps}


def cmd_train(ns: SimpleNamespace) -> dict:
    other = ns.out / ("gca.json" if ns.model == "pod-gpr" else "manifest.json")
    if other.is_file():  # two archives in one directory: neither is read
        raise ConfigurationError(f"{ns.out} already holds the other model "
                                 f"kind's archive, {other}")
    tensor = load_snapshot_tensor(ns.data)
    train_dts = tensor.dwell_times if ns.train is None else ns.train

    if ns.model == "pod-gpr":
        train_t, _ = split_dataset(tensor, train_dts, [])
        started = time.perf_counter()
        rom = train_pod_gpr(
            train_t, energy_threshold=ns.energy_threshold, jitter=ns.jitter,
            restarts=ns.restarts, seed=ns.seed)
        train_seconds = time.perf_counter() - started
        save_rom(rom, ns.out)
        # what the fitter decided, per mode: reported here only, never in
        # the archive
        gpr_fit = [{"mode": j, **record}
                   for j, record in enumerate(fit_decision(rom.gp, ns.jitter))]
        energy = rom.basis.energy_captured
        return {"model": "pod-gpr", "out": str(ns.out), "rank": rom.rank,
                "energy_captured": energy,
                "energy_threshold_reached": energy >= ns.energy_threshold,
                "n_train": train_t.n_mu, "train_seconds": train_seconds,
                "gpr_fit": gpr_fit}

    # imported here, not at module top, so a POD-GPR run never loads the
    # GCA stack
    from .gca import build_graph, save_gca
    from .training import GcaTrainConfig, train_gca, write_history_csv

    train_t, val_t = split_dataset(tensor, train_dts, ns.val or [])
    config = GcaTrainConfig(
        lam=ns.lam, lr_max=ns.lr_max, lr_min=ns.lr_min,
        warm_restart_t0=ns.t0, warm_restart_mult=ns.mult,
        patience=ns.patience, noise_sigma=ns.noise_sigma,
        max_epochs=ns.max_epochs, seed=ns.seed, latent_dim=ns.latent)
    graph = build_graph(tensor.mesh)
    started = time.perf_counter()
    model, history = train_gca(train_t, val_t if val_t.n_mu else None,
                               graph, config)
    train_seconds = time.perf_counter() - started
    save_gca(model, tensor.mesh, ns.out)
    history_path = ns.out / "history.csv"
    write_history_csv(history, history_path)
    # train_gca's rule, replayed: it keeps the first epoch at the lowest
    # monitored loss (NaN and inf never improve; -1: no epoch did) and stops
    # once `patience` epochs in a row fail to beat it
    best, best_epoch = math.inf, -1
    for r in history:
        monitored = r.val_loss if val_t.n_mu else r.train_loss
        if monitored < best:
            best, best_epoch = monitored, r.epoch
    return {"model": "gca", "out": str(ns.out), "epochs": len(history),
            "history": str(history_path),
            "best_epoch": best_epoch if best_epoch >= 0 else None,
            "stop": "patience" if len(history) - best_epoch > config.patience
            else "max_epochs",
            "best_val_loss": best if val_t.n_mu and best_epoch >= 0 else None,
            "final_train_loss": history[-1].train_loss,
            "train_seconds": train_seconds}


def _load_any_model(model_dir: Path):
    """Load either archive layout as ``(kind, model, predict)``.

    ``predict(dts)`` returns one mean field per dwell time and a matching
    list of extrapolation flags. ``model`` is the loaded :class:`PodGprRom`
    or :class:`GcaModel`. A directory that holds both layouts is a
    :class:`DataError`: neither archive can be trusted to be the current
    one.
    """
    rom_manifest = model_dir / "manifest.json"
    gca_manifest = model_dir / "gca.json"
    if rom_manifest.is_file() and gca_manifest.is_file():
        raise DataError(f"{model_dir} holds two model archives, "
                        f"{rom_manifest} and {gca_manifest}")
    if rom_manifest.is_file():
        rom = load_rom(model_dir)

        def predict(dts):
            preds = predict_distortion_many(rom, dts)
            return ([p.mean_field for p in preds],
                    [p.extrapolation for p in preds])
        return "pod-gpr", rom, predict
    if gca_manifest.is_file():
        from .gca import build_graph, load_gca, predict_gca

        model, mesh = load_gca(model_dir)
        graph = build_graph(mesh)

        def predict(dts):
            return ([predict_gca(model, graph, dt) for dt in dts],
                    model.input_norm.extrapolates(dts))
        return "gca", model, predict
    raise DataError(f"{model_dir} holds no model archive: expected "
                    f"{rom_manifest} or {gca_manifest}")


def cmd_predict(ns: SimpleNamespace) -> dict:
    kind, _, predict = _load_any_model(ns.model_dir)
    (field,), (extrapolation,) = predict([ns.dt])
    if not np.all(np.isfinite(field)):
        raise NumericalError(
            f"{ns.model_dir}: field at dt={ns.dt} is not finite")
    ns.out.parent.mkdir(parents=True, exist_ok=True)
    write_snapshot_bin(field[:, None], ns.out)
    sidecar = {"dt": ns.dt, "max_displacement": float(field.max()),
               "extrapolation": extrapolation, "model": kind}
    sidecar_path = Path(str(ns.out) + ".json")
    write_file(sidecar_path, [_dumps(sidecar), "\n"])
    return {**sidecar, "out": str(ns.out), "sidecar": str(sidecar_path)}


def cmd_eval(ns: SimpleNamespace) -> dict:
    from .metrics import (EvalReport, emit_coefficient_plot,
                          emit_max_displacement_plot, evaluation_row,
                          report_to_dict, time_predict)

    if not ns.test:
        raise ConfigurationError("empty test list")
    tensor = load_snapshot_tensor(ns.data)
    kind, model, predict = _load_any_model(ns.model_dir)
    fields, _ = predict(ns.test)
    if fields[0].shape[0] != tensor.n_nodes:
        raise ConfigurationError(
            f"model {ns.model_dir} predicts {fields[0].shape[0]} nodes but "
            f"dataset {ns.data} has {tensor.n_nodes}")
    rows = [evaluation_row(dt, field, tensor.matrix_for(dt).final_field)
            for dt, field in zip(ns.test, fields)]

    timing = ({"predict_seconds_mean": time_predict(
        lambda dt: predict([dt]), ns.test, ns.repeats)} if ns.timing else {})

    ns.plots.mkdir(parents=True, exist_ok=True)
    if kind == "pod-gpr":
        emit_coefficient_plot(model, ns.test, min(ns.first_k, model.rank),
                              ns.plots / "coefficients")
    emit_max_displacement_plot(rows, ns.plots / "max_displacement")

    report_path = ns.report or ns.plots / "report.json"
    payload = report_to_dict(EvalReport(rows=tuple(rows)))
    write_file(report_path, [_dumps(payload, separators=(",", ":")), "\n"])
    # the timing goes to the summary only: report.json stays deterministic
    return {"model": kind, "report": str(report_path), "plots": str(ns.plots),
            **payload, **timing}


# Options =====================================================================

REQUIRED = object()  # the default of an option that has none

# an option; its flag is ``--`` and its key with dashes, or ``--<flag>``
Option = namedtuple("Option", "convert default help flag",
                    defaults=(None, None, None))


# subcommand x -> (help text, options by config key); x runs ``cmd_x``
COMMANDS = {
    "gen": ("generate a synthetic snapshot dataset", {
        "out": Option(_path, REQUIRED, "output dataset directory"),
        "dwell_times": Option(_dwell_times, REQUIRED,
                              "comma list or start:stop:step range, seconds"),
        "layers": Option(_int, 8, "deposition layer count"),
        "radial": Option(_int, 5, "radial node count"),
        "theta": Option(_int, 24, "circumferential node count"),
        "noise": Option(_float, 0.0, "Gaussian noise sigma, mm"),
        "seed": Option(_int, 0),
    }),
    "train": ("train a surrogate on a dataset", {
        "model": Option(_model_kind, REQUIRED, "pod-gpr or gca"),
        "data": Option(_path, REQUIRED, "dataset directory from gen"),
        "out": Option(_path, REQUIRED, "output archive directory"),
        "train": Option(_dwell_times, None,
                        "training dwell times (default: all)"),
        "seed": Option(_int, 0),
        "energy_threshold": Option(_float, 0.9999, "POD energy to retain"),
        "jitter": Option(_float, None, "GPR diagonal jitter"),
        "restarts": Option(_int, 8, "seeded GPR length scales added to the "
                                    "hyperparameter scan (>= 1)"),
        "val": Option(_dwell_times, None, "validation dwell times (gca)"),
        "lam": Option(_float, 0.5, "latent-loss weight (gca)"),
        "lr_max": Option(_float, 1e-3),
        "lr_min": Option(_float, 1e-5),
        "t0": Option(_int, 50, "first warm-restart period"),
        "mult": Option(_int, 2, "warm-restart period factor"),
        "patience": Option(_int, 50),
        "noise_sigma": Option(_float, None, "denoising noise sigma (gca)"),
        "max_epochs": Option(_int, 2000),
        "latent": Option(_int, 12, "latent dimension (gca)"),
    }),
    "predict": ("predict one field from a trained archive", {
        "model_dir": Option(_path, REQUIRED),
        "dt": Option(_dwell_time, REQUIRED, "dwell time, seconds"),
        "out": Option(_path, REQUIRED, "output field file"),
    }),
    "eval": ("evaluate a trained archive on a test split", {
        "model_dir": Option(_path, REQUIRED),
        "data": Option(_path, REQUIRED),
        "test": Option(_dwell_times, REQUIRED, "test dwell times"),
        "plots": Option(_path, REQUIRED, "directory for CSV/SVG plots"),
        "report": Option(_path, None,
                         "report JSON path (default: <plots>/report.json)"),
        "first_k": Option(_int, 4, "modes in the coefficient plot"),
        "timing": Option(_switch, False, "time the predictions", flag="time"),
        "repeats": Option(_int, 3, "timing sweep count"),
    }),
}


def _flag(key: str, option: Option) -> str:
    return "--" + (option.flag or key.replace("_", "-"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # every usage error: one line, exit 2
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    """A parser that only splits the command line: it holds no defaults."""
    parser = _Parser(prog="romforge", description="Reduced-order distortion "
                     "surrogates for powder-bed parts")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text,
                             argument_default=argparse.SUPPRESS)
        for key, option in options.items():
            cmd.add_argument(_flag(key, option), dest=key, help=option.help,
                             **({"action": "store_true"}
                                if option.convert is _switch else {}))
        cmd.add_argument("--config", help="JSON file of option defaults")
    return parser


def _option_values(args: argparse.Namespace, options: dict) -> SimpleNamespace:
    """Typed values: a flag over its config key (null: unset) over default."""
    flags = {key: option.convert(getattr(args, key), _flag(key, option))
             for key, option in options.items() if key in args}
    values = {key: option.default for key, option in options.items()}
    if "config" in args:
        path = Path(args.config).expanduser()
        try:
            config = json.loads(path.read_bytes())
        except OSError:
            raise DataError(f"cannot read config file {path}")
        # JSONDecodeError, undecodable bytes and nesting too deep to parse
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(f"config file {path}: {exc}")
        if not isinstance(config, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = sorted(set(config) - set(options))
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
        values.update({key: options[key].convert(value, f"config key {key!r}")
                       for key, value in config.items() if value is not None})
    values.update(flags)
    missing = [_flag(k, options[k]) for k, v in values.items() if v is REQUIRED]
    if missing:
        raise ConfigurationError(
            f"missing required options: {', '.join(missing)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        ns = _option_values(args, COMMANDS[args.command][1])
        line = _dumps(globals()["cmd_" + args.command](ns))
    except MemoryError as exc:
        # a request too large for this machine, like an oversized option
        print(f"romforge: out of memory: {exc}", file=sys.stderr)
        return ConfigurationError.exit_code
    except (RomforgeError, OSError, np.linalg.LinAlgError) as exc:
        # an unreadable or unwritable path is a data error, a failed
        # factorization a numerical one
        code = (exc.exit_code if isinstance(exc, RomforgeError)
                else DataError.exit_code if isinstance(exc, OSError)
                else NumericalError.exit_code)
        kind = "numerical failure: " if code == NumericalError.exit_code else ""
        print(f"romforge: {kind}{exc}", file=sys.stderr)
        return code
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
