"""Command-line front end: generate data, train, predict, evaluate.

Contract: every run prints exactly one JSON summary line to stdout;
diagnostics go to stderr. Exit codes: 0 success, else the error's
``exit_code``: 2 configuration, 3 I/O or data, 4 numerical failure. A JSON
config file passed via --config supplies defaults that explicit flags
override; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .dataset import (
    ParameterPoint,
    generate_synthetic_dataset,
    load_snapshot_tensor,
    save_snapshot_tensor,
    split_dataset,
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


def _require(ns: SimpleNamespace, *names: str) -> None:
    missing = [n for n in names if getattr(ns, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ConfigurationError(f"missing required options: {flags}")


def _resolve(value) -> Path:
    return Path(value).expanduser().resolve()


def _dumps(payload, **kwargs) -> str:
    """Strict JSON text (sorted keys); NaN or infinity is a numerical failure."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericalError(f"non-finite value in output: {exc}") from None


# Subcommand handlers =========================================================

_GEN_DEFAULTS = {
    "out": None, "dwell_times": None, "layers": 8, "radial": 5, "theta": 24,
    "noise": 0.0, "seed": 0,
}


def cmd_gen(ns: SimpleNamespace) -> dict:
    _require(ns, "out", "dwell_times")
    out = _resolve(ns.out)
    dts = parse_dwell_times(ns.dwell_times)
    tensor = generate_synthetic_dataset(
        n_radial=int(ns.radial), n_theta=int(ns.theta),
        n_layers=int(ns.layers), dwell_times=dts,
        noise_sigma=float(ns.noise), seed=int(ns.seed),
    )
    save_snapshot_tensor(tensor, out)
    return {"out": str(out), "n_mu": tensor.n_mu, "n_h": tensor.n_nodes,
            "n_t": tensor.n_steps}


_TRAIN_DEFAULTS = {
    "model": None, "data": None, "out": None, "train": None, "seed": 0,
    # pod-gpr options
    "energy_threshold": 0.9999, "jitter": None, "restarts": 8,
    # gca options
    "val": None, "lam": 0.5, "lr_max": 1e-3, "lr_min": 1e-5, "t0": 50,
    "mult": 2, "patience": 50, "noise_sigma": None, "max_epochs": 2000,
    "latent": 12,
}


def cmd_train(ns: SimpleNamespace) -> dict:
    _require(ns, "model", "data", "out")
    if ns.model not in ("pod-gpr", "gca"):
        raise ConfigurationError(f"unknown model {ns.model!r} (pod-gpr or gca)")
    data = _resolve(ns.data)
    out = _resolve(ns.out)
    tensor = load_snapshot_tensor(data)
    train_dts = (parse_dwell_times(ns.train) if ns.train is not None
                 else tensor.dwell_times)

    if ns.model == "pod-gpr":
        train_t, _ = split_dataset(tensor, train_dts, [])
        jitter = None if ns.jitter is None else float(ns.jitter)
        started = time.perf_counter()
        rom = train_pod_gpr(
            train_t, energy_threshold=float(ns.energy_threshold),
            jitter=jitter, restarts=int(ns.restarts), seed=int(ns.seed),
        )
        train_seconds = time.perf_counter() - started
        save_rom(rom, out)
        # what the fitter decided, per mode: reported here only, never in
        # the archive
        gpr_fit = [{"mode": j, **record}
                   for j, record in enumerate(fit_decision(rom.gp, jitter))]
        energy = rom.basis.energy_captured
        return {"model": "pod-gpr", "out": str(out), "rank": rom.rank,
                "energy_captured": energy,
                "energy_threshold_reached":
                    energy >= float(ns.energy_threshold),
                "n_train": train_t.n_mu, "train_seconds": train_seconds,
                "gpr_fit": gpr_fit}

    # imported here, not at module top, so a POD-GPR run never loads the
    # GCA stack
    from .gca import build_graph, save_gca
    from .training import GcaTrainConfig, train_gca, write_history_csv

    val_dts = parse_dwell_times(ns.val) if ns.val is not None else []
    train_t, val_t = split_dataset(tensor, train_dts, val_dts)
    config = GcaTrainConfig(
        lam=float(ns.lam), lr_max=float(ns.lr_max), lr_min=float(ns.lr_min),
        warm_restart_t0=int(ns.t0), warm_restart_mult=int(ns.mult),
        patience=int(ns.patience),
        noise_sigma=None if ns.noise_sigma is None else float(ns.noise_sigma),
        max_epochs=int(ns.max_epochs), seed=int(ns.seed),
        latent_dim=int(ns.latent),
    )
    graph = build_graph(tensor.mesh)
    started = time.perf_counter()
    model, history = train_gca(train_t, val_t if val_t.n_mu else None,
                               graph, config)
    train_seconds = time.perf_counter() - started
    save_gca(model, tensor.mesh, out)
    history_path = out / "history.csv"
    write_history_csv(history, history_path)
    val_losses = [r.val_loss for r in history if math.isfinite(r.val_loss)]
    return {"model": "gca", "out": str(out), "epochs": len(history),
            "history": str(history_path),
            "best_val_loss": min(val_losses) if val_losses else None,
            "final_train_loss": history[-1].train_loss,
            "train_seconds": train_seconds}


_PREDICT_DEFAULTS = {"model_dir": None, "dt": None, "out": None}


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
    _require(ns, "model_dir", "dt", "out")
    dt = ParameterPoint(float(ns.dt)).dwell_time
    model_dir = _resolve(ns.model_dir)
    out = _resolve(ns.out)
    kind, _, predict = _load_any_model(model_dir)
    (field,), (extrapolation,) = predict([dt])
    if not np.all(np.isfinite(field)):
        raise NumericalError(f"{model_dir}: field at dt={dt} is not finite")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_snapshot_bin(field[:, None], out)
    sidecar = {"dt": dt, "max_displacement": float(field.max()),
               "extrapolation": extrapolation, "model": kind}
    sidecar_path = Path(str(out) + ".json")
    sidecar_path.write_text(_dumps(sidecar) + "\n")
    return {**sidecar, "out": str(out), "sidecar": str(sidecar_path)}


_EVAL_DEFAULTS = {
    "model_dir": None, "data": None, "test": None, "plots": None,
    "report": None, "first_k": 4, "timing": None, "repeats": 3,
}


def cmd_eval(ns: SimpleNamespace) -> dict:
    from .metrics import (EvalReport, emit_coefficient_plot,
                          emit_max_displacement_plot, evaluation_row,
                          report_to_dict, time_predict)

    _require(ns, "model_dir", "data", "test", "plots")
    model_dir = _resolve(ns.model_dir)
    data = _resolve(ns.data)
    plots = _resolve(ns.plots)
    test_dts = parse_dwell_times(ns.test)
    if not test_dts:
        raise ConfigurationError("empty test list")
    tensor = load_snapshot_tensor(data)
    kind, model, predict = _load_any_model(model_dir)
    fields, _ = predict(test_dts)
    if fields[0].shape[0] != tensor.n_nodes:
        raise ConfigurationError(
            f"model {model_dir} predicts {fields[0].shape[0]} nodes but "
            f"dataset {data} has {tensor.n_nodes}")
    rows = [evaluation_row(dt, field, tensor.matrix_for(dt).final_field)
            for dt, field in zip(test_dts, fields)]

    predict_seconds = None
    if ns.timing:
        predict_seconds = time_predict(lambda dt: predict([dt]), test_dts,
                                       int(ns.repeats))
    report = EvalReport(rows=tuple(rows), predict_seconds_mean=predict_seconds)

    plots.mkdir(parents=True, exist_ok=True)
    if kind == "pod-gpr":
        emit_coefficient_plot(model, test_dts, min(int(ns.first_k), model.rank),
                              plots / "coefficients")
    emit_max_displacement_plot(rows, plots / "max_displacement")

    report_path = (_resolve(ns.report) if ns.report is not None
                   else plots / "report.json")
    payload = report_to_dict(report)
    report_path.write_text(_dumps(payload, separators=(",", ":")) + "\n")
    return {"model": kind, "report": str(report_path), "plots": str(plots),
            **payload}


# Parser ======================================================================

def _add_command(sub, name: str, help_text: str, defaults: dict, handler,
                 configure) -> None:
    cmd = sub.add_parser(name, help=help_text)
    configure(cmd)
    cmd.add_argument("--config", default=None,
                     help="JSON file with defaults for this subcommand")
    cmd.set_defaults(_handler=handler, _defaults=defaults,
                     _options={a.dest: a for a in cmd._actions})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romforge",
        description="Reduced-order distortion surrogates for powder-bed parts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def gen_opts(p):
        p.add_argument("--out", help="output dataset directory")
        p.add_argument("--dwell-times", dest="dwell_times",
                       help="comma list or start:stop:step range, seconds")
        p.add_argument("--layers", type=int, help="deposition layer count")
        p.add_argument("--radial", type=int, help="radial node count")
        p.add_argument("--theta", type=int, help="circumferential node count")
        p.add_argument("--noise", type=float, help="Gaussian noise sigma, mm")
        p.add_argument("--seed", type=int)

    def train_opts(p):
        p.add_argument("--model", choices=("pod-gpr", "gca"))
        p.add_argument("--data", help="dataset directory from gen")
        p.add_argument("--out", help="output archive directory")
        p.add_argument("--train", help="training dwell times (default: all)")
        p.add_argument("--seed", type=int)
        p.add_argument("--energy-threshold", dest="energy_threshold",
                       type=float, help="POD energy fraction to retain")
        p.add_argument("--jitter", type=float, help="GPR diagonal jitter")
        p.add_argument("--restarts", type=int,
                       help="seeded GPR length scales added to the "
                            "hyperparameter scan (>= 1)")
        p.add_argument("--val", help="validation dwell times (gca)")
        p.add_argument("--lam", type=float, help="latent-loss weight (gca)")
        p.add_argument("--lr-max", dest="lr_max", type=float)
        p.add_argument("--lr-min", dest="lr_min", type=float)
        p.add_argument("--t0", type=int, help="first warm-restart period")
        p.add_argument("--mult", type=int, help="warm-restart period factor")
        p.add_argument("--patience", type=int)
        p.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                       help="denoising corruption sigma (gca)")
        p.add_argument("--max-epochs", dest="max_epochs", type=int)
        p.add_argument("--latent", type=int, help="latent dimension (gca)")

    def predict_opts(p):
        p.add_argument("--model-dir", dest="model_dir")
        p.add_argument("--dt", type=float, help="dwell time, seconds")
        p.add_argument("--out", help="output field file")

    def eval_opts(p):
        p.add_argument("--model-dir", dest="model_dir")
        p.add_argument("--data")
        p.add_argument("--test", help="test dwell times")
        p.add_argument("--plots", help="directory for CSV/SVG plots")
        p.add_argument("--report", help="report JSON path "
                                        "(default: <plots>/report.json)")
        p.add_argument("--first-k", dest="first_k", type=int,
                       help="modes in the coefficient plot")
        p.add_argument("--time", dest="timing", action="store_true",
                       default=None, help="include prediction timing")
        p.add_argument("--repeats", type=int, help="timing sweep count")

    _add_command(sub, "gen", "generate a synthetic snapshot dataset",
                 _GEN_DEFAULTS, cmd_gen, gen_opts)
    _add_command(sub, "train", "train a surrogate on a dataset",
                 _TRAIN_DEFAULTS, cmd_train, train_opts)
    _add_command(sub, "predict", "predict one field from a trained archive",
                 _PREDICT_DEFAULTS, cmd_predict, predict_opts)
    _add_command(sub, "eval", "evaluate a trained archive on a test split",
                 _EVAL_DEFAULTS, cmd_eval, eval_opts)
    return parser


# options that take a dwell-time list, which a config file may give as a
# JSON array
_DWELL_LIST_OPTIONS = ("dwell_times", "train", "val", "test")


def _config_value(option: argparse.Action, key: str, value):
    """A config-file value, checked and converted as argparse does its flag."""
    if value is None:
        return None
    if option.type is not None:
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            try:
                return option.type(str(value))
            except ValueError:
                pass
        raise ConfigurationError(
            f"config key {key!r}: expected {option.type.__name__}, "
            f"got {value!r}")
    if option.nargs == 0:  # an on/off flag such as --time
        if isinstance(value, bool):
            return value
        raise ConfigurationError(
            f"config key {key!r}: expected true or false, got {value!r}")
    if isinstance(value, str) or (key in _DWELL_LIST_OPTIONS
                                  and isinstance(value, list)):
        return value
    raise ConfigurationError(
        f"config key {key!r}: expected a string, got {value!r}")


def _merge_config(args: argparse.Namespace) -> SimpleNamespace:
    defaults = args._defaults
    merged = dict(defaults)
    if args.config is not None:
        config_path = Path(args.config).expanduser()
        try:
            loaded = json.loads(config_path.read_bytes())
        except OSError:
            raise DataError(f"cannot read config file {config_path}")
        # JSONDecodeError, undecodable bytes and nesting too deep to parse
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(f"config file {config_path}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
        merged.update({key: _config_value(args._options[key], key, value)
                       for key, value in loaded.items()})
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return SimpleNamespace(**merged)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ns = _merge_config(args)
        line = _dumps(args._handler(ns))
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
