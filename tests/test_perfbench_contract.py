"""The repository benchmark's lookup contract with the program.

``perfbench/layers.py`` wraps the program's public calls by name for the
traced run, and ``perfbench/workloads.py`` swaps ``EarlyStopping`` in the
trainer module and ``execute_unit`` in the factory module.  A rename of
any of them would only show up when the benchmark runs; this test makes it
fail the suite instead.
"""

import os

from repro.datasets import factory
from repro.models import trainer
from repro.nn.tensor import Tensor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_name_perfbench_looks_up_exists(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import tracing

    assert callable(trainer.EarlyStopping)
    assert callable(factory.execute_unit)
    backward = Tensor.backward
    tracer = tracing.Tracer(str(tmp_path))
    try:
        layers.install(tracer)
        assert Tensor.backward is not backward
    finally:
        tracer.uninstall()
    assert Tensor.backward is backward
