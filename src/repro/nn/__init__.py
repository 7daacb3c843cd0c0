"""A small, self-contained deep-learning framework built on NumPy.

This subpackage is the substrate the reproduction uses in place of
TensorFlow/PyTorch (which are not available offline).  It holds what both
RouteNet models run and no more:

* :class:`repro.nn.tensor.Tensor` — reverse-mode automatic differentiation
  over NumPy arrays, with the gather/segment-sum functions of
  :mod:`repro.nn.tensor` that message passing is built from.
* Dense layers (:mod:`repro.nn.layers`) for the readout, and the GRU cell
  with its checkpointed sequence scan (:mod:`repro.nn.recurrent`), compiled
  to raw NumPy step kernels by :mod:`repro.nn.scan_kernels`.
* The Adam optimiser with gradient clipping (:mod:`repro.nn.optimizers`),
  the MSE loss (:mod:`repro.nn.losses`) and evaluation metrics
  (:mod:`repro.nn.metrics`).
* Data-parallel gradient workers (:mod:`repro.nn.parallel`), training
  history and early stopping (:mod:`repro.nn.training`), and parameter
  (de)serialisation (:mod:`repro.nn.serialization`).

The API intentionally mirrors the shape of mainstream frameworks so that the
model code in :mod:`repro.models` reads like the reference TensorFlow
implementation of RouteNet.
"""

from repro.nn.tensor import (
    Tensor,
    default_dtype,
    gather_segment_sum,
    get_default_dtype,
    make_multi_output,
    masked_where,
    no_grad,
    ones,
    randn,
    resolve_dtype,
    set_default_dtype,
    tensor,
    zeros,
)
from repro.nn.module import Module, Parameter
from repro.nn.layers import Dense, Sequential
from repro.nn.recurrent import GRUCell, RNNCellBase, ScanScatter, scan_rnn
from repro.nn.optimizers import Adam
from repro.nn.losses import mse_loss
from repro.nn.metrics import (
    mean_absolute_percentage_error,
    mean_relative_error,
    pearson_correlation,
    relative_errors,
)
from repro.nn.initializers import glorot_uniform, zeros_init
from repro.nn.parallel import (
    GradientWorkerPool,
    make_gradient_executor,
    path_weighted_average,
)
from repro.nn.serialization import load_parameters
from repro.nn.training import EarlyStopping, History

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "zeros",
    "ones",
    "randn",
    "Module",
    "Parameter",
    "Dense",
    "Sequential",
    "GRUCell",
    "RNNCellBase",
    "ScanScatter",
    "scan_rnn",
    "make_multi_output",
    "Adam",
    "mse_loss",
    "relative_errors",
    "mean_relative_error",
    "mean_absolute_percentage_error",
    "pearson_correlation",
    "glorot_uniform",
    "zeros_init",
    "GradientWorkerPool",
    "make_gradient_executor",
    "path_weighted_average",
    "load_parameters",
    "EarlyStopping",
    "History",
]
