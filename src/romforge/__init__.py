"""romforge: reduced-order distortion surrogates for powder-bed parts.

Two surrogate families over a shared snapshot data model:

- POD-GPR: proper orthogonal decomposition (method of snapshots) with one
  Gaussian-process regressor per retained mode, including 95% bands.
- GCA: a parameterized graph convolutional autoencoder trained with
  hand-written backpropagation, AdamW, and cosine warm restarts.

A synthetic cylinder generator stands in for finite-element data, and a CLI
(`romforge gen/train/predict/eval`) wires the workflow end to end. The
package namespace holds the POD-GPR quick start only; every other name is
imported from the module that defines it.
"""

from .dataset import generate_synthetic_dataset, split_dataset
from .rom import predict_distortion, train_pod_gpr

__version__ = "0.1.0"

__all__ = ["generate_synthetic_dataset", "split_dataset", "train_pod_gpr",
           "predict_distortion"]
