"""romforge: reduced-order distortion surrogates for powder-bed parts.

Two surrogate families over a shared snapshot data model:

- POD-GPR: proper orthogonal decomposition (method of snapshots) with one
  Gaussian-process regressor per retained mode, including 95% bands.
- GCA: a parameterized graph convolutional autoencoder trained with
  hand-written backpropagation, AdamW, and cosine warm restarts.

A synthetic cylinder generator stands in for finite-element data, and a CLI
(`romforge gen/train/predict/eval`) wires the workflow end to end.
"""

from .dataset import (
    CYLINDER_RADIUS_MM,
    LAYER_THICKNESS_MM,
    InputNormalization,
    MeshGeometry,
    ParameterPoint,
    SnapshotMatrix,
    SnapshotTensor,
    generate_synthetic_dataset,
    load_snapshot_tensor,
    read_snapshot_bin,
    save_snapshot_tensor,
    split_dataset,
    synthetic_distortion,
    write_snapshot_bin,
)
from .errors import (
    ConditioningError,
    ConfigurationError,
    CorruptionError,
    DataError,
    DegenerateBasisError,
    DegenerateMetricError,
    DivergenceError,
    DuplicateParameterError,
    FormatError,
    RomforgeError,
    ShapeError,
    SplitError,
    UnknownParameterError,
)
from .gca import (
    GcaArchitecture,
    GcaModel,
    Graph,
    build_graph,
    elu,
    init_gca,
    load_gca,
    predict_gca,
    save_gca,
)
from .gpr import (
    GprModel,
    fit_gpr,
    log_marginal_likelihood,
    make_gpr,
    predict_gpr,
)
from .metrics import (
    EvalReport,
    EvalRow,
    TimingResult,
    emit_coefficient_plot,
    emit_max_displacement_plot,
    evaluation_row,
    max_displacement_error,
    relative_l2,
    report_from_dict,
    report_to_dict,
    time_predict,
)
from .optim import adamw_step, cosine_warm_restart_lr, init_adamw_state
from .pod import (
    PodBasis,
    compute_pod,
    energy_fraction,
    project,
    reconstruct,
)
from .rom import (
    FieldPrediction,
    PodGprRom,
    load_rom,
    predict_distortion,
    predict_distortion_many,
    save_rom,
    train_pod_gpr,
)
from .training import EpochRecord, GcaTrainConfig, train_gca, write_history_csv

__version__ = "0.1.0"

__all__ = [
    "CYLINDER_RADIUS_MM",
    "LAYER_THICKNESS_MM",
    "ConditioningError",
    "ConfigurationError",
    "CorruptionError",
    "DataError",
    "DegenerateBasisError",
    "DegenerateMetricError",
    "DivergenceError",
    "DuplicateParameterError",
    "EpochRecord",
    "EvalReport",
    "EvalRow",
    "FieldPrediction",
    "FormatError",
    "GcaArchitecture",
    "GcaModel",
    "GcaTrainConfig",
    "GprModel",
    "Graph",
    "InputNormalization",
    "MeshGeometry",
    "ParameterPoint",
    "PodBasis",
    "PodGprRom",
    "RomforgeError",
    "ShapeError",
    "SnapshotMatrix",
    "SnapshotTensor",
    "SplitError",
    "TimingResult",
    "UnknownParameterError",
    "adamw_step",
    "build_graph",
    "compute_pod",
    "cosine_warm_restart_lr",
    "elu",
    "emit_coefficient_plot",
    "emit_max_displacement_plot",
    "energy_fraction",
    "evaluation_row",
    "fit_gpr",
    "generate_synthetic_dataset",
    "init_adamw_state",
    "init_gca",
    "load_gca",
    "load_rom",
    "load_snapshot_tensor",
    "log_marginal_likelihood",
    "make_gpr",
    "max_displacement_error",
    "predict_distortion",
    "predict_distortion_many",
    "predict_gca",
    "predict_gpr",
    "project",
    "read_snapshot_bin",
    "reconstruct",
    "relative_l2",
    "report_from_dict",
    "report_to_dict",
    "save_gca",
    "save_rom",
    "save_snapshot_tensor",
    "split_dataset",
    "synthetic_distortion",
    "time_predict",
    "train_gca",
    "train_pod_gpr",
    "write_history_csv",
    "write_snapshot_bin",
]
