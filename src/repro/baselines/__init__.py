"""Analytic baseline network models (queueing theory).

The paper motivates GNN models by noting that "traditional methods like
Queueing Theory often fail to provide accurate models for complex real-world
scenarios".  This subpackage implements those traditional methods so the
benchmarks can quantify that gap:

* :class:`~repro.baselines.queueing.MM1Model` — infinite-buffer M/M/1 links.
* :class:`~repro.baselines.queueing.MM1KModel` — finite-buffer M/M/1/K links
  with loss-aware thinning of flows along their paths.

The M/M/1/K model also labels the analytic datasets
(:mod:`repro.datasets.analytic`), and both models are the queueing-theory
baselines of ``benchmarks/test_baseline_queueing_theory.py``.
"""

from repro.baselines.queueing import (
    MM1KModel,
    MM1Model,
    QueueingNetworkModel,
    mm1_waiting_time,
    mm1k_blocking_probability,
    mm1k_mean_queue_length,
)

__all__ = [
    "QueueingNetworkModel",
    "MM1Model",
    "MM1KModel",
    "mm1_waiting_time",
    "mm1k_blocking_probability",
    "mm1k_mean_queue_length",
]
