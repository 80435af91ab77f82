"""romforge benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload rom-1k --seed 1 --seconds 28 --trace 0

Run from the root of a romforge checkout; the package is imported from its
``src/`` (nothing is installed). With ``--trace 0`` the run measures the
end-to-end metrics with no instrumentation. With ``--trace 1`` it spends half
of ``--seconds`` untraced and half with spans installed (see tracer.py), and
reports the per-layer metrics plus the tracing overhead. Stdout ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it list each metric with its sample count, and ``.perfbench/`` keeps the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "train_s": "s", "predict_p50_us": "us",
              "predict_p90_us": "us", "eval_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (span, self time only, scale from seconds)
SPAN_METRICS = {
    "dataset.generate_s": ("dataset.generate", False, 1.0),
    "dataset.load_s": ("dataset.load", False, 1.0),
    "pod.compute_pod_ms": ("pod.compute_pod", False, 1e3),
    "pod.project_us": ("pod.project", False, 1e6),
    "pod.reconstruct_us": ("pod.reconstruct", False, 1e6),
    "gpr.fit_ms": ("gpr.fit", False, 1e3),
    "gpr.predict_us": ("gpr.predict", False, 1e6),
    "gpr.make_us": ("gpr.make", False, 1e6),
    "rom.predict_self_us": ("rom.predict", True, 1e6),
    "rom.save_ms": ("rom.save", False, 1e3),
    "rom.load_ms": ("rom.load", False, 1e3),
    "gca.loss_and_grads_ms": ("gca.loss_and_grads", False, 1e3),
    "gca.val_loss_ms": ("gca.val_loss", False, 1e3),
    "gca.predict_us": ("gca.predict", False, 1e6),
    "optim.adamw_ms": ("optim.adamw", False, 1e3),
    "metrics.coeff_plot_ms": ("metrics.coeff_plot", False, 1e3),
    "metrics.maxdisp_plot_ms": ("metrics.maxdisp_plot", False, 1e3),
}
# counts the workloads record as they go
RUN_COUNTS = ("pod.rank", "pod.energy_captured", "gca.params",
              "dataset.bytes", "rom.archive_bytes", "rom.band_bytes")
PER_LAYER = {
    "dataset.generate_s": "s", "dataset.load_s": "s", "dataset.bytes": "bytes",
    "pod.compute_pod_ms": "ms", "pod.project_us": "us",
    "pod.reconstruct_us": "us", "pod.rank": "count",
    "pod.energy_captured": "fraction",
    "gpr.fit_ms": "ms", "gpr.fit_calls": "count", "gpr.predict_us": "us",
    "gpr.make_us": "us",
    "rom.predict_self_us": "us", "rom.band_bytes": "bytes_computed",
    "rom.save_ms": "ms", "rom.load_ms": "ms", "rom.archive_bytes": "bytes",
    "gca.loss_and_grads_ms": "ms", "gca.val_loss_ms": "ms",
    "gca.predict_us": "us", "gca.params": "count",
    "optim.adamw_ms": "ms",
    "training.self_ms": "ms", "training.epochs": "count",
    "metrics.coeff_plot_ms": "ms", "metrics.maxdisp_plot_ms": "ms",
    "cli.import_s": "s", "cli.startup_s": "s",
    "quality.rel_l2_max": "ratio", "quality.max_disp_err_mm": "mm",
    "trace.overhead_train_s": "s", "trace.overhead_predict_us": "us",
}


# The shared host's speed drifts in spells of seconds, so a per-call median
# over a whole run flips between a fast and a slow mode with the share of the
# run spent in each. A timing is therefore taken per block of about BLOCK_S
# of run time and averaged over the blocks, dropping TRIM of them at each
# end. A tail needs TAIL_MIN_N calls in a block.
BLOCK_S = 1.0
TRIM = 0.2
TAIL_MIN_N = 100


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def values_of(samples) -> list[float]:
    return [value for _, value in samples]


def over_blocks(samples, stat=median, min_n: int = 1) -> float:
    """`stat` of each block of (time, value) samples, then the mean of the
    block figures with TRIM of them dropped at each end; 0.0 without
    samples. A block takes the samples that end within BLOCK_S of its first
    one, and more until it holds `min_n`; an op longer than BLOCK_S is a
    block of its own, and a last block short of `min_n` joins the one
    before it."""
    if not samples:
        return 0.0
    blocks: list[list[float]] = []
    opened = 0.0
    for ended, value in samples:
        if not blocks or (ended - opened >= BLOCK_S
                          and len(blocks[-1]) >= min_n):
            blocks.append([])
            opened = ended
        blocks[-1].append(value)
    if len(blocks) > 1 and len(blocks[-1]) < min_n:
        blocks[-2].extend(blocks.pop())
    figures = sorted(stat(block) for block in blocks)
    cut = int(len(figures) * TRIM)
    return statistics.fmean(figures[cut:len(figures) - cut])


def blas_info() -> list[dict]:
    """OpenBLAS libraries mapped into this process, with thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
        libs.append(info)
    return libs


def machine() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "ROMFORGE_THREADS": os.environ.get("ROMFORGE_THREADS"),
    }


def end_to_end(run, samples) -> dict[str, float]:
    return {
        "setup_s": median(run.setup_times),
        "train_s": over_blocks(samples["train_s"]),
        "predict_p50_us": over_blocks(samples["predict_us"]),
        "predict_p90_us": over_blocks(samples["predict_us"], p90,
                                      TAIL_MIN_N),
        "eval_s": over_blocks(samples["eval_s"]),
        "peak_rss_mb": run.peak_rss_mb(),
    }


def per_layer(run, stats, untraced, traced) -> dict[str, float]:
    values = {name: stats.median(span, self_only) * scale
              for name, (span, self_only, scale) in SPAN_METRICS.items()}
    trains = stats.count("rom.train")
    values["gpr.fit_calls"] = stats.count("gpr.fit") / trains if trains else 0.0
    epochs = stats.count("gca.loss_and_grads")
    gca_trains = stats.count("training.train_gca")
    values["training.epochs"] = epochs / gca_trains if gca_trains else 0.0
    values["training.self_ms"] = (
        stats.sum("training.train_gca", self_only=True) / epochs * 1e3
        if epochs else 0.0)
    values["cli.import_s"] = median(run.cli_import_s)
    values["cli.startup_s"] = median(run.cli_startup_s)
    values["trace.overhead_train_s"] = (
        over_blocks(traced["train_s"]) - over_blocks(untraced["train_s"]))
    values["trace.overhead_predict_us"] = (
        over_blocks(traced["predict_us"]) - over_blocks(untraced["predict_us"]))
    for name in RUN_COUNTS:
        values[name] = float(run.counts.get(name, 0.0))
    samples = traced if traced["rel_l2_max"] else untraced
    values["quality.rel_l2_max"] = median(values_of(samples["rel_l2_max"]))
    values["quality.max_disp_err_mm"] = median(
        values_of(samples["max_disp_err_mm"]))
    return values


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, src: Path) -> tuple[dict, dict, dict]:
    """Run one workload. Returns the result, the sample count of each
    metric, and a record of the run's counts plus, when traced, its spans."""
    from tracer import SpanStats, Tracer
    from workloads import LOOP, SETUP, SETUP_MIN_S, SETUP_REPEATS, Run

    run = Run(workload, seed, workdir, src)
    setup, loop = SETUP[workload.kind], LOOP[workload.kind]
    state = setup(run, SETUP_REPEATS, SETUP_MIN_S)
    record = {"counts": run.counts}
    if not trace:
        loop(run, state, seconds)
        values = end_to_end(run, run.samples)
        units = END_TO_END
        counts = {"setup_s": len(run.setup_times),
                  "train_s": len(run.samples["train_s"]),
                  "predict_p50_us": len(run.samples["predict_us"]),
                  "predict_p90_us": len(run.samples["predict_us"]),
                  "eval_s": len(run.samples["eval_s"]), "peak_rss_mb": 1}
    else:
        loop(run, state, seconds / 2)
        untraced, run.samples = run.samples, defaultdict(list)
        tracer = Tracer()
        restore = tracer.install()
        run.tracer = tracer
        try:
            state = None
            state = setup(run, 1, 0.0)
            loop(run, state, seconds / 2)
        finally:
            restore()
            run.tracer = None
        # cli-1k spans come from the CLI processes; the benchmark's own
        # in-process reference checks there are not the workload's work
        processes = run.cli_spans if workload.kind == "cli" else [tracer.spans]
        stats = SpanStats()
        for spans in processes:
            stats.add(spans)
        values = per_layer(run, stats, untraced, run.samples)
        units = PER_LAYER
        counts = {name: stats.count(span)
                  for name, (span, _, _) in SPAN_METRICS.items()}
        record.update(absent=sorted(tracer.absent),
                      processes=processes)
    metrics = {name: {"value": float(values[name]), "unit": units[name]}
               for name in units}
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return result, counts, record


def report(workload, result, counts, record) -> None:
    """Human-readable lines: each metric with its unit and sample count."""
    print(f"# workload {workload.name} ({workload.mesh.n_nodes} nodes)")
    print("# counts " + json.dumps(record["counts"], sort_keys=True))
    for name, metric in result["metrics"].items():
        n = counts.get(name)
        tail = f" n={n}" if n is not None else ""
        if n == 0:
            tail += " absent"
        print(f"# {name:28s} {metric['value']:<22.10g} {metric['unit']}{tail}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# fail_frac {failed / attempted if attempted else 0.0:g} "
          f"({failed} failed of {attempted} attempted)")


def main(argv=None) -> int:
    if not (SRC / "romforge" / "__init__.py").is_file():
        print(f"perfbench: no romforge sources under {SRC}; run from the root "
              "of a romforge checkout", file=sys.stderr)
        return 2
    if "ROMFORGE_THREADS" in os.environ:
        print("perfbench: unset ROMFORGE_THREADS; the benchmark measures the "
              "default n_jobs=1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import romforge
    if Path(romforge.__file__).resolve().parent != (SRC / "romforge").resolve():
        print(f"perfbench: romforge imported from {romforge.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    out = ROOT / ".perfbench"
    workdir = out / f"run-{workload.name}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, counts, record = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), workdir, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = machine()
    print("# machine " + json.dumps(info, sort_keys=True))
    if "processes" in record:
        trace_path = out / f"trace-{workload.name}-s{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "machine": info,
             **result, **record}))
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    report(workload, result, counts, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
