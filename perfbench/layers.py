"""The per-layer ledger: which public calls are wrapped, and the metrics.

Each layer is named after its module.  :func:`install` wraps the calls
the traced run measures, patching each name where its caller looks it up
(``simulate_network``, ``clip_gradients_by_norm`` and ``tensorize_sample``
are imported into their callers' namespaces).  The two memoised plan
builders are wrapped with a cache peek, so a call served from the memo
records no span and only real builds count.

:data:`PER_LAYER` lists every per-layer metric with its unit and the
direction that is better; ``BENCHMARK.json`` carries the same list.
"""

from __future__ import annotations

import importlib
import math
import multiprocessing
import os
from typing import Dict, List, Optional

from tracing import SpanTable, Tracer, coverage

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("simulator.events", "count", "lower"),
    ("simulator.busy_s", "s", "lower"),
    ("simulator.events_per_busy_s", "1/s", "higher"),
    ("datasets.generator.busy_s", "s", "lower"),
    ("datasets.generator.samples", "count", "higher"),
    ("datasets.sharded.write_s", "s", "lower"),
    ("datasets.sharded.bytes_written", "bytes", "lower"),
    ("datasets.sharded.read_s", "s", "lower"),
    ("datasets.sharded.samples_read", "count", "higher"),
    ("datasets.factory.unit_busy_s", "s", "lower"),
    ("datasets.factory.units", "count", "lower"),
    ("datasets.factory.worker_idle_share", "ratio", "lower"),
    ("datasets.factory.useful_share", "ratio", "higher"),
    ("datasets.factory.quarantined", "count", "lower"),
    ("datasets.normalization.fit_s", "s", "lower"),
    ("datasets.tensorize.busy_s", "s", "lower"),
    ("datasets.tensorize.calls", "count", "lower"),
    ("datasets.batching.merge_s", "s", "lower"),
    ("datasets.batching.merges", "count", "lower"),
    ("datasets.prefetch.wait_s", "s", "lower"),
    ("datasets.prefetch.producer_busy_s", "s", "lower"),
    ("datasets.prefetch.peak_live_batches", "count", "lower"),
    ("models.message_passing.plan_s", "s", "lower"),
    ("models.message_passing.plan_builds", "count", "lower"),
    ("models.message_passing.plan_hit_share", "ratio", "higher"),
    ("nn.scan_kernels.forward_s", "s", "lower"),
    ("models.forward_s", "s", "lower"),
    ("models.predict_s", "s", "lower"),
    ("nn.tensor.backward_s", "s", "lower"),
    ("nn.optimizers.clip_s", "s", "lower"),
    ("nn.optimizers.step_s", "s", "lower"),
    ("nn.optimizers.steps", "count", "lower"),
    ("models.trainer.eval_s", "s", "lower"),
    ("models.trainer.checkpoint_s", "s", "lower"),
    ("models.trainer.epochs_to_target", "count", "lower"),
    ("nn.parallel.submit_s", "s", "lower"),
    ("nn.parallel.collect_wait_s", "s", "lower"),
    ("nn.parallel.bytes_per_step", "bytes", "lower"),
    ("nn.parallel.worker_threads", "count", "lower"),
    ("supervision.respawns", "count", "lower"),
    ("trace.untraced_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

#: Span names whose self time is one per-layer ``*_s`` metric.
SELF_TIME = {
    "simulator.busy_s": "simulator",
    "datasets.generator.busy_s": "datasets.generator",
    "datasets.sharded.write_s": "datasets.sharded.write",
    "datasets.sharded.read_s": "datasets.sharded.read",
    "datasets.factory.unit_busy_s": "datasets.factory.unit",
    "datasets.normalization.fit_s": "datasets.normalization.fit",
    "datasets.tensorize.busy_s": "datasets.tensorize",
    "datasets.batching.merge_s": "datasets.batching.merge",
    "datasets.prefetch.wait_s": "datasets.prefetch.wait",
    "models.message_passing.plan_s": "models.message_passing.plan",
    "nn.scan_kernels.forward_s": "nn.scan_kernels.forward",
    "models.forward_s": "models.forward",
    "models.predict_s": "models.predict",
    "nn.tensor.backward_s": "nn.tensor.backward",
    "nn.optimizers.clip_s": "nn.optimizers.clip",
    "nn.optimizers.step_s": "nn.optimizers.step",
    "models.trainer.eval_s": "models.trainer.eval",
    "models.trainer.checkpoint_s": "models.trainer.checkpoint",
    "nn.parallel.submit_s": "nn.parallel.submit",
    "nn.parallel.collect_wait_s": "nn.parallel.collect",
}

#: Span names whose call count is one per-layer count metric.
CALLS = {
    "datasets.generator.samples": "datasets.generator",
    "datasets.factory.units": "datasets.factory.unit",
    "datasets.tensorize.calls": "datasets.tensorize",
    "datasets.batching.merges": "datasets.batching.merge",
    "nn.optimizers.steps": "nn.optimizers.step",
}

PRODUCER_THREAD = "batch-prefetcher"
FORWARD_SPANS = ("models.forward", "models.predict")


def _thread_count(pid: int) -> Optional[int]:
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return None


def install(tracer: Tracer) -> None:
    """Wrap every measured public call of the program."""
    def module(name):
        # import_module, not ``import a.b as c``: a package attribute may
        # shadow its submodule (``repro.nn.tensor`` is also a function).
        return importlib.import_module(f"repro.{name}")

    whatif, batching, factory, generator, normalization, prefetch, sharded = map(
        module, ("analysis.whatif", "datasets.batching", "datasets.factory",
                 "datasets.generator", "datasets.normalization", "datasets.prefetch",
                 "datasets.sharded"))
    simulation, tensorize, extended, message_passing, trainer = map(
        module, ("datasets.simulation", "datasets.tensorize", "models.extended",
                 "models.message_passing", "models.trainer"))
    optimizers, parallel, scan_kernels, tensor = map(
        module, ("nn.optimizers", "nn.parallel", "nn.scan_kernels", "nn.tensor"))

    tracer.wrap(simulation, "simulate_network", "simulator",
                count=lambda result, *a, **k: result.events_processed,
                tag=lambda topology, *a, **k: topology.name)
    tracer.wrap(generator.DatasetGenerator, "generate_one", "datasets.generator",
                tag=lambda self, *a, **k: self.base_topology.name)
    tracer.wrap(factory, "write_shard", "datasets.sharded.write",
                count=lambda record, directory, *a, **k: os.path.getsize(
                    os.path.join(directory, record["name"])))
    tracer.wrap_generator(sharded.ShardedDatasetReader, "__iter__",
                          "datasets.sharded.read")
    tracer.wrap(factory, "execute_unit", "datasets.factory.unit")
    tracer.wrap(normalization.FeatureNormalizer, "fit", "datasets.normalization.fit")
    for module in (tensorize, prefetch, whatif, trainer):
        tracer.wrap(module, "tensorize_sample", "datasets.tensorize")
    for module in (batching, prefetch):
        tracer.wrap(module, "merge_tensorized_samples", "datasets.batching.merge")
    tracer.wrap(prefetch.BatchPrefetcher, "__next__", "datasets.prefetch.wait")
    tracer.wrap(extended, "build_index", "models.message_passing.plan",
                skip=lambda sample: sample._index_cache is not None)
    tracer.wrap(extended, "build_scan_plan", "models.message_passing.plan",
                skip=lambda sample, index, interleaved=False:
                ("interleaved" if interleaved else "link") in index._scan_plans)
    tracer.wrap(message_passing, "compile_scan_spec", "models.message_passing.plan")
    tracer.wrap(scan_kernels, "run_compiled_scan", "nn.scan_kernels.forward")
    tracer.wrap(extended.ExtendedRouteNet, "forward",
                lambda *a, **k: FORWARD_SPANS[0] if tensor.is_grad_enabled()
                else FORWARD_SPANS[1])
    tracer.wrap(tensor.Tensor, "backward", "nn.tensor.backward")
    tracer.wrap(trainer, "clip_gradients_by_norm", "nn.optimizers.clip")
    tracer.wrap(optimizers.Adam, "step", "nn.optimizers.step")
    tracer.wrap(trainer.RouteNetTrainer, "evaluate_loss", "models.trainer.eval")
    tracer.wrap(trainer.RouteNetTrainer, "save_checkpoint", "models.trainer.checkpoint")

    def step_bytes(result, pool, flat_params, batches, *a, **k):
        # Computed, not measured: one parameter publish into the shared
        # ring, the batch payloads pickled into the step messages, and one
        # flat gradient back per batch.
        return (flat_params.nbytes * (1 + len(batches))
                + sum(batch.nbytes for batch in batches))

    tracer.wrap(parallel.GradientWorkerPool, "submit_group_payload",
                "nn.parallel.submit", count=step_bytes)

    def sample_worker_threads(result, *a, **k):
        for child in multiprocessing.active_children():
            threads = _thread_count(child.pid)
            if threads is not None:
                tracer.gauge_max("nn.parallel.worker_threads", threads)

    tracer.wrap(parallel.GradientWorkerPool, "collect_group", "nn.parallel.collect",
                after=sample_worker_threads)

    def capture_executor(executor, *a, **k):
        tracer.captured.setdefault("executors", []).append(executor)

    tracer.wrap(trainer, "make_gradient_executor", "nn.parallel.start",
                after=capture_executor)


def layer_metrics(table: SpanTable, tracer: Tracer, reps: int, roots: List[str],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, per timed repetition, from the recorded spans.

    ``roots`` names the workload's own root spans (excluded from coverage),
    ``extra`` carries what the spans cannot see: catalog counts, history
    fields, the overhead comparison.  Layers a workload does not exercise
    read 0.
    """
    per_rep = 1.0 / max(reps, 1)
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, span in SELF_TIME.items():
        values[metric] = table.self_seconds(span) * per_rep
    for metric, span in CALLS.items():
        values[metric] = table.calls(span) * per_rep
    values["datasets.sharded.bytes_written"] = table.work("datasets.sharded.write") * per_rep
    values["datasets.sharded.samples_read"] = table.work("datasets.sharded.read") * per_rep
    if values["simulator.busy_s"] > 0:
        values["simulator.events_per_busy_s"] = (
            table.work("simulator") * per_rep / values["simulator.busy_s"])
    values["datasets.prefetch.producer_busy_s"] = (
        table.thread_self_seconds(PRODUCER_THREAD) * per_rep)
    builds = table.named("models.message_passing.plan")
    values["models.message_passing.plan_builds"] = len(builds) * per_rep
    forwards = [s for name in FORWARD_SPANS for s in table.named(name)]
    if forwards:
        building = {(s[0], s[1]) for s in
                    (table.ancestor_named(b, FORWARD_SPANS) for b in builds) if s}
        values["models.message_passing.plan_hit_share"] = (
            1.0 - len(building) / len(forwards))
    submits = table.named("nn.parallel.submit")
    if submits:
        values["nn.parallel.bytes_per_step"] = (
            sum(s[7] for s in submits) / len(submits))
    values["nn.parallel.worker_threads"] = tracer.gauges.get(
        "nn.parallel.worker_threads", 0.0)
    restarts = sum(getattr(executor, "restarts", 0)
                   for executor in tracer.captured.get("executors", []))
    values["supervision.respawns"] = restarts * per_rep
    windows = [(s[4], s[5]) for name in roots for s in table.named(name)]
    values["trace.untraced_share"] = 1.0 - coverage(table.spans, windows, exclude=roots)
    for name, value in extra.items():
        values[name] += value
    return {name: value if math.isfinite(value) else 0.0
            for name, value in values.items()}


def ledger_lines(table: SpanTable, reps: int) -> List[str]:
    """The human-readable ledger: calls, self and inclusive time per span."""
    lines = [f"  {'span':34s} {'calls/rep':>10s} {'self s/rep':>11s} {'incl s/rep':>11s}"]
    for name, calls, self_seconds, inclusive in table.ledger():
        lines.append(f"  {name:34s} {calls / reps:10.1f} {self_seconds / reps:11.4f} "
                     f"{inclusive / reps:11.4f}")
    return lines
