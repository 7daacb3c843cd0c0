"""A small, self-contained deep-learning framework built on NumPy.

This subpackage is the substrate the reproduction uses in place of
TensorFlow/PyTorch (which are not available offline).  It provides:

* :class:`repro.nn.tensor.Tensor` — reverse-mode automatic differentiation
  over NumPy arrays.
* Layers (:mod:`repro.nn.layers`) and recurrent cells
  (:mod:`repro.nn.recurrent`) sufficient to express RouteNet and the
  Extended RouteNet architectures (dense layers, GRU/LSTM cells).
* Optimisers (:mod:`repro.nn.optimizers`), losses (:mod:`repro.nn.losses`)
  and evaluation metrics (:mod:`repro.nn.metrics`).
* Training history and early stopping (:mod:`repro.nn.training`), and
  parameter (de)serialisation helpers.

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
from repro.nn import functional
from repro.nn.module import Module, Parameter
from repro.nn.layers import Dense, Dropout, Embedding, LayerNorm, Sequential
from repro.nn.recurrent import GRUCell, LSTMCell, RNNCellBase, ScanScatter, scan_rnn
from repro.nn.optimizers import (
    SGD,
    Adam,
    Momentum,
    Optimizer,
    RMSProp,
    ConstantSchedule,
    ExponentialDecay,
    StepDecay,
)
from repro.nn.losses import (
    huber_loss,
    mae_loss,
    mape_loss,
    mse_loss,
    log_mse_loss,
)
from repro.nn.metrics import (
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_relative_error,
    pearson_correlation,
    r2_score,
    relative_errors,
)
from repro.nn.initializers import (
    glorot_normal,
    glorot_uniform,
    he_normal,
    he_uniform,
    normal_init,
    zeros_init,
)
from repro.nn.parallel import (
    GradientWorkerPool,
    make_gradient_executor,
    path_weighted_average,
)
from repro.nn.serialization import load_parameters, save_parameters
from repro.nn.training import EarlyStopping, History

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "zeros",
    "ones",
    "randn",
    "functional",
    "Module",
    "Parameter",
    "Dense",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Sequential",
    "GRUCell",
    "LSTMCell",
    "RNNCellBase",
    "ScanScatter",
    "scan_rnn",
    "make_multi_output",
    "Optimizer",
    "SGD",
    "Momentum",
    "RMSProp",
    "Adam",
    "ConstantSchedule",
    "ExponentialDecay",
    "StepDecay",
    "mse_loss",
    "mae_loss",
    "huber_loss",
    "mape_loss",
    "log_mse_loss",
    "relative_errors",
    "mean_relative_error",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "r2_score",
    "pearson_correlation",
    "glorot_uniform",
    "glorot_normal",
    "he_uniform",
    "he_normal",
    "normal_init",
    "zeros_init",
    "GradientWorkerPool",
    "make_gradient_executor",
    "path_weighted_average",
    "save_parameters",
    "load_parameters",
    "EarlyStopping",
    "History",
]
