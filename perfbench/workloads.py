"""The benchmark's four workloads on the shipping defaults.

Every workload builds its inputs from the seed in :meth:`setup`, then the
runner repeats :meth:`run_rep` until the run's time is spent.  A
repetition times one operation a user runs, checks its output, and
reports the values that must repeat exactly for one seed.  With a host
probe (:mod:`probe`), a repetition also measures it next to each timed
unit, so that the unit's seconds can be scaled to the reference host.

* ``generate`` - a simulation-backed factory job (``run_job``, 2 workers,
  fresh store per repetition) over GEANT2 and NSFNET.
* ``train`` - a serial in-memory ``RouteNetTrainer.fit`` of the extended
  model on GEANT2 scenarios, batch size 2, until the validation loss
  reaches a fixed target.
* ``train_stream_dp`` - the same model and store streamed out of core
  with ``num_workers=2`` and a stream window far smaller than the store.
* ``predict`` - one client in a closed loop sending what-if queries, each
  a fresh routing-plus-traffic pair on a shared GEANT2 or NSFNET topology.

``host_probe`` names each workload's probe kind.  ``train_stream_dp``
scales only its set-ups, which run in this process: neither kind,
measured here or in its gradient workers, tracks the epochs the workers
run, and they are timed raw.  ``rate_median`` picks the gated rate: the
median query rate for ``predict``, pooled over jobs and epochs
otherwise, as the issue defines ``gen_samples_per_s`` and
``train_samples_per_s``.

Shipping defaults: compiled scan, float64, binary shards, bucketing on,
and the CLI's model size (state 16, 4 message-passing iterations).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import pickle
import shutil
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from probe import HostProbe
from repro.analysis.whatif import WhatIfAnalyzer
from repro.datasets import factory as factory_module
from repro.datasets.factory import DatasetJobSpec, expand_units, resolve_topology, run_job
from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sharded import MANIFEST_NAME, ShardedDatasetReader
from repro.models import ExtendedRouteNet, RouteNetConfig, RouteNetTrainer, TrainerConfig
from repro.models import trainer as trainer_module
from repro.routing.shortest_path import random_variation_routing, shortest_path_routing
from repro.topology.generators import assign_queue_sizes
from repro.traffic.generators import scaled_to_utilization, uniform_traffic

#: (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("samples_per_s", "samples/s", "higher"),
]

WORKERS = 2
DTYPE = "float64"
BATCH_SIZE = 2
LEARNING_RATE = 0.003
TRAIN_SAMPLES = 16
VAL_SAMPLES = 8
EPOCH_CAP = 20
#: Validation-loss targets, on the steep part of the learning curve.
TRAIN_TARGET = 0.6
STREAM_TARGET = 0.9
#: Batches per stream window: 2 samples against a 16-sample store.
STREAM_WINDOW = 1
#: Queries per timed repetition of ``predict``: the host probe runs
#: after blocks of queries, not after single ones.
QUERIES_PER_REP = 20


@dataclasses.dataclass
class Rep:
    """One timed repetition of a workload's operation."""

    wall_s: float
    samples: int
    #: Denominator of the pooled rate: the time the samples took.
    busy_s: float
    #: (samples, seconds, probe) of each timed unit (a job, an epoch or a
    #: query): probe is None or (host probe, its seconds next to the unit).
    units: List[tuple] = dataclasses.field(default_factory=list)
    attempted: int = 1
    failures: List[str] = dataclasses.field(default_factory=list)
    #: Output checks that failed (also counted in ``failures``).
    wrong: List[str] = dataclasses.field(default_factory=list)
    #: Values that must repeat exactly for one seed on one commit.
    repeat: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Other figures the rep measured.
    figures: Dict[str, float] = dataclasses.field(default_factory=dict)

    def fail(self, message: str, wrong_output: bool = False) -> None:
        self.failures.append(message)
        if wrong_output:
            self.wrong.append(message)


def timed(tracer, root: str, function: Callable, *args, **kwargs):
    """Run ``function``; in a traced run, inside the workload's root span."""
    if tracer is None:
        return function(*args, **kwargs)
    return tracer.run_span(root, function, *args, **kwargs)


def digest_of(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def build_model() -> ExtendedRouteNet:
    return ExtendedRouteNet(RouteNetConfig(dtype=DTYPE, seed=0))


def build_store(seed: int, path: str, samples: int, normalize: bool = True) -> str:
    """An analytic GEANT2 factory store, built in-process."""
    spec = DatasetJobSpec(topologies=("geant2",), samples_per_scenario=samples,
                          unit_size=8, seed=seed)
    status = run_job(spec, path, workers=1, fit_normalizer=normalize)
    if not status["complete"]:
        raise RuntimeError(f"setup store at '{path}' did not complete")
    return path


class _TargetStop:
    """Stands in for ``EarlyStopping`` inside ``fit``: stop at the target.

    ``fit`` builds its early-stopping hook just before the first epoch and
    asks it once per epoch, after the epoch's history row and checkpoint
    are written.  The hook records when the first epoch at or below the
    target ended and, given a host probe, measures it each time, outside
    the epoch's timed seconds.
    """

    def __init__(self, target: float, started: float, probe=None) -> None:
        self.target = target
        self.started = started
        self.reached_after: Optional[float] = None
        self.epoch: Optional[int] = None
        self.probe = probe
        #: Probe seconds before the first epoch and after every epoch.
        self.probes: List[float] = []

    def measure(self) -> None:
        if self.probe is not None:
            self.probes.append(self.probe.measure())

    @contextlib.contextmanager
    def installed(self):
        stop = self
        original = trainer_module.EarlyStopping

        class Hook:
            def __init__(self, *args, **kwargs) -> None:
                stop.measure()

            def update(self, value: float, epoch: int) -> bool:
                stop.measure()
                if value <= stop.target and stop.epoch is None:
                    stop.reached_after = time.perf_counter() - stop.started
                    stop.epoch = epoch
                return stop.epoch is not None

        trainer_module.EarlyStopping = Hook
        try:
            yield self
        finally:
            trainer_module.EarlyStopping = original


def _train_config(**overrides) -> TrainerConfig:
    return TrainerConfig(epochs=EPOCH_CAP, batch_size=BATCH_SIZE, dtype=DTYPE,
                         learning_rate=LEARNING_RATE, early_stopping_patience=1,
                         **overrides)


def _check_history(rep: Rep, history, stop: _TargetStop, samples_per_epoch: int) -> None:
    losses = list(history.train_loss) + list(history.val_loss)
    if not all(value is not None and math.isfinite(value) for value in losses):
        rep.fail("non-finite training or validation loss", wrong_output=True)
    if stop.epoch is None:
        rep.fail(f"validation loss never reached the target {stop.target} "
                 f"within {EPOCH_CAP} epochs")
    epochs = len(history.epochs)
    rep.samples = samples_per_epoch * epochs
    rep.busy_s = float(sum(history.epoch_seconds))
    # Epoch k lies between probes k and k + 1.
    probes = [(stop.probe, (before + after) / 2)
              for before, after in zip(stop.probes, stop.probes[1:])]
    rep.units = [(samples_per_epoch, seconds, probes[k] if probes else None)
                 for k, seconds in enumerate(history.epoch_seconds)]
    rep.repeat["epochs_to_target"] = stop.epoch
    rep.repeat["loss_trajectory"] = digest_of(
        [[float(v) for v in history.train_loss], [float(v) for v in history.val_loss]])
    rep.repeat["val_loss"] = [float(v) for v in history.val_loss]
    rep.figures["time_to_target_s"] = (stop.reached_after if stop.reached_after
                                       is not None else float("nan"))
    peaks = [p for p in history.peak_live_batches if p is not None]
    rep.figures["peak_live_batches"] = float(max(peaks)) if peaks else 0.0


def rate(reps: List[Rep], median: bool = False, scaled: bool = True) -> float:
    """Samples per second over the timed units (jobs, epochs or queries).

    Pooled (samples over the seconds they took, over every unit) unless
    ``median``, which takes the median of the units' own rates.  Unless
    ``scaled`` is false, a probed unit's seconds are scaled to
    reference-host seconds.
    """
    units = [(samples, seconds * (probe[0].scale(probe[1]) if scaled and probe else 1.0))
             for rep in reps for samples, seconds, probe in rep.units]
    if median:
        return statistics.median(samples / seconds for samples, seconds in units)
    return sum(samples for samples, _ in units) / sum(seconds for _, seconds in units)


@contextlib.contextmanager
def probed_units(probe: HostProbe, spool: str):
    """Measure ``probe`` before and after every factory unit, in its worker.

    A worker looks ``execute_unit`` up in the factory module when it runs
    a unit, and ``run_job`` forks its workers, so the patch reaches them.
    Each worker appends its probe seconds to its own file in ``spool``
    before it reports the unit done.
    """
    os.makedirs(spool)
    original = factory_module.execute_unit

    def execute_unit(*args, **kwargs):
        before = probe.measure()
        try:
            return original(*args, **kwargs)
        finally:
            after = probe.measure()
            with open(os.path.join(spool, f"{os.getpid()}.txt"), "a",
                      encoding="utf-8") as handle:
                handle.write(f"{before!r} {after!r}\n")

    factory_module.execute_unit = execute_unit
    try:
        yield
    finally:
        factory_module.execute_unit = original


def read_probes(spool: str) -> List[float]:
    values = []
    for name in sorted(os.listdir(spool)):
        with open(os.path.join(spool, name), "r", encoding="utf-8") as handle:
            values.extend(float(value) for value in handle.read().split())
    return values


# ---------------------------------------------------------------------- #
class Generate:
    """Simulation-backed factory job over GEANT2 and NSFNET, 2 workers.

    The job sweeps four fixed peak-utilisation levels: the seed varies
    traffic matrices, queue sizes and simulator streams, while the load
    grid keeps the simulated work per job comparable across seeds.
    """

    name = "generate"
    host_probe = "python"
    rate_median = False
    samples_per_scenario = 1
    unit_size = 1
    #: Highest load first: the longest units are dispatched first, which
    #: keeps the two workers' finishing times close.
    utilization_levels = (0.8, 0.65, 0.5, 0.35)

    def setup(self, seed: int, path: str) -> dict:
        spec = DatasetJobSpec(topologies=("geant2", "nsfnet"),
                              samples_per_scenario=self.samples_per_scenario,
                              unit_size=self.unit_size, seed=seed,
                              axes={"utilization_range": [
                                  (level, level) for level in self.utilization_levels]},
                              base_config={"backend": "simulation"})
        # The output check's reference: how many paths (delays) each
        # topology's samples must carry.
        paths = {name: shortest_path_routing(resolve_topology(name, seed)).num_paths
                 for name in spec.topologies}
        expand_units(spec)
        return {"spec": spec, "paths": paths}

    def run_rep(self, inputs: dict, workdir: str, index: int, tracer, probe=None) -> Rep:
        path = os.path.join(workdir, f"store-{index}")
        spool = os.path.join(workdir, f"probes-{index}")
        probing = probed_units(probe, spool) if probe else contextlib.nullcontext()
        started = time.perf_counter()
        with probing:
            status = timed(tracer, "workload.generate", run_job, inputs["spec"], path,
                           workers=WORKERS)
        wall = time.perf_counter() - started
        # The job's host probe: the median over every unit's probes.
        job_probe = (probe, statistics.median(read_probes(spool))) if probe else None
        rep = Rep(wall_s=wall, samples=status["samples_written"], busy_s=wall,
                  attempted=status["total_units"],
                  units=[(status["samples_written"], wall, job_probe)])
        quarantined = status["quarantined_units"]
        for unit in quarantined:
            rep.fail(f"unit {unit} quarantined")
        if not status["complete"]:
            rep.fail("job did not complete", wrong_output=True)
        digest = hashlib.sha256()
        try:
            samples = 0
            for sample in ShardedDatasetReader(path):  # verifies every checksum
                samples += 1
                delays = np.asarray(sample.delays, dtype=np.float64)
                expected = inputs["paths"][sample.topology.name]
                if delays.shape != (expected,):
                    rep.fail(f"sample {samples}: {delays.shape[0]} delays for "
                             f"{expected} paths", wrong_output=True)
                elif not (np.all(np.isfinite(delays)) and np.all(delays > 0)):
                    rep.fail(f"sample {samples}: non-finite or non-positive delay",
                             wrong_output=True)
                record = sample.to_dict()
                record["metadata"].pop("sim_wall_seconds", None)
                digest.update(json.dumps(record, sort_keys=True).encode())
            if samples != status["samples_written"]:
                rep.fail(f"read back {samples} of {status['samples_written']} samples",
                         wrong_output=True)
        except ValueError as error:  # a shard failed its checksum
            rep.fail(f"read-back failed: {error}", wrong_output=True)
        with open(os.path.join(path, MANIFEST_NAME), "r", encoding="utf-8") as handle:
            units = json.load(handle)["catalog"]["units"]
        rep.repeat["simulator.events"] = status["events_processed"]
        rep.repeat["store_digest"] = digest.hexdigest()[:16]
        rep.figures.update({
            "catalog.events_processed": float(status["events_processed"]),
            "catalog.sim_wall_seconds": sum(u.get("sim_wall_seconds", 0.0) for u in units),
            "catalog.generation_seconds": status["generation_seconds"],
            "catalog.executions": float(status["total_attempts"]),
            "catalog.done_units": float(status["done_units"]),
            "quarantined": float(len(quarantined)),
            "run_job_wall_s": wall,
        })
        shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(spool, ignore_errors=True)
        return rep

    def figures(self, reps: List[Rep]) -> List[tuple]:
        return [("gen_samples_per_s", rate(reps, scaled=False), "samples/s")]


class Train:
    """Serial in-memory fit of the extended model until a target loss."""

    name = "train"
    host_probe = "numpy"
    rate_median = False
    target = TRAIN_TARGET

    def setup(self, seed: int, path: str) -> dict:
        store = build_store(seed, os.path.join(path, "train"), TRAIN_SAMPLES)
        val_store = build_store(seed + 1_000_003, os.path.join(path, "val"),
                                VAL_SAMPLES, normalize=False)
        reader = ShardedDatasetReader(store)
        return {"store": store, "normalizer": reader.normalizer.to_dict(),
                "train": reader.read_all(),
                "val": ShardedDatasetReader(val_store).read_all(),
                "model": pickle.dumps(build_model())}

    def fit(self, inputs: dict, workdir: str, index: int):
        trainer = RouteNetTrainer(
            pickle.loads(inputs["model"]), _train_config(),
            normalizer=FeatureNormalizer.from_dict(inputs["normalizer"]))
        return trainer.fit(inputs["train"], inputs["val"],
                           checkpoint_path=os.path.join(workdir, f"ckpt-{index}.npz"))

    def run_rep(self, inputs: dict, workdir: str, index: int, tracer, probe=None) -> Rep:
        started = time.perf_counter()
        stop = _TargetStop(self.target, started, probe)
        with stop.installed():
            history = timed(tracer, f"workload.{self.name}", self.fit, inputs,
                            workdir, index)
        rep = Rep(wall_s=time.perf_counter() - started, samples=0, busy_s=0.0)
        _check_history(rep, history, stop, TRAIN_SAMPLES)
        return rep

    def figures(self, reps: List[Rep]) -> List[tuple]:
        times = [rep.figures["time_to_target_s"] for rep in reps]
        return [("train_samples_per_s", rate(reps, scaled=False), "samples/s"),
                ("time_to_target_s", statistics.median(times), "s")]


class TrainStreamDP(Train):
    """The same model and store streamed out of core on 2 gradient workers."""

    name = "train_stream_dp"
    target = STREAM_TARGET

    def setup(self, seed: int, path: str) -> dict:
        inputs = super().setup(seed, path)
        del inputs["train"]  # streamed from the store instead
        return inputs

    def run_rep(self, inputs: dict, workdir: str, index: int, tracer, probe=None) -> Rep:
        # Epochs timed raw: the probe is for the set-ups only.
        return super().run_rep(inputs, workdir, index, tracer, None)

    def fit(self, inputs: dict, workdir: str, index: int):
        trainer = RouteNetTrainer(
            pickle.loads(inputs["model"]),
            _train_config(num_workers=WORKERS, stream_window=STREAM_WINDOW))
        return trainer.fit(dataset_path=inputs["store"], val_samples=inputs["val"])

    def serial_reference(self, inputs: dict) -> None:
        """One streamed serial epoch: the baseline the pool is held to."""
        trainer = RouteNetTrainer(
            pickle.loads(inputs["model"]),
            TrainerConfig(epochs=1, batch_size=BATCH_SIZE, dtype=DTYPE,
                          learning_rate=LEARNING_RATE, stream_window=STREAM_WINDOW))
        trainer.fit(dataset_path=inputs["store"], val_samples=inputs["val"])


class Predict:
    """Closed-loop what-if queries from one client, fresh scenarios each."""

    name = "predict"
    host_probe = "numpy"
    rate_median = True
    #: Every fourth query goes to NSFNET, the topology the model never saw.
    unseen_every = 4
    candidates = 3

    def setup(self, seed: int, path: str) -> dict:
        store = build_store(seed, os.path.join(path, "train"), VAL_SAMPLES)
        reader = ShardedDatasetReader(store)
        model = build_model()
        trainer = RouteNetTrainer(model, TrainerConfig(
            epochs=2, batch_size=BATCH_SIZE, dtype=DTYPE, learning_rate=LEARNING_RATE))
        trainer.fit(reader.read_all())
        rng = np.random.default_rng([seed, 7])
        topologies = []
        for name in ("geant2", "nsfnet"):
            topology = assign_queue_sizes(resolve_topology(name), 0.5, rng=rng)
            routings = [shortest_path_routing(topology)] + [
                random_variation_routing(topology, k=3, rng=rng)
                for _ in range(self.candidates - 1)]
            topologies.append((name, topology, routings))
        return {"analyzer": WhatIfAnalyzer(model, trainer.normalizer),
                "topologies": topologies, "seed": seed}

    def query(self, inputs: dict, index: int):
        """Query ``index``: a candidate routing and a fresh traffic matrix."""
        unseen = index % self.unseen_every == self.unseen_every - 1
        name, topology, routings = inputs["topologies"][1 if unseen else 0]
        rng = np.random.default_rng([inputs["seed"], index])
        routing = routings[(index // self.unseen_every) % len(routings)]
        traffic = uniform_traffic(topology.num_nodes, 0.5, 1.5, rng=rng)
        traffic = scaled_to_utilization(traffic, routing, float(rng.uniform(0.3, 0.85)))
        return name, topology, routing, traffic

    def run_rep(self, inputs: dict, workdir: str, index: int, tracer, probe=None) -> Rep:
        """``QUERIES_PER_REP`` queries, each timed on its own.

        The host probe, measured once after the block, stands for the
        whole block: the host's speed drifts over seconds, not over the
        half second a block takes.
        """
        rep = Rep(wall_s=0.0, samples=0, busy_s=0.0, attempted=QUERIES_PER_REP)
        latencies = {"geant2": [], "nsfnet": []}
        for query in range(index * QUERIES_PER_REP, (index + 1) * QUERIES_PER_REP):
            name, topology, routing, traffic = self.query(inputs, query)
            started = time.perf_counter()
            try:
                prediction = timed(tracer, "workload.predict",
                                   inputs["analyzer"].predict, topology, routing, traffic)
            except Exception as error:  # noqa: BLE001 - a raising query is a failure
                prediction = None
                rep.fail(f"query {query} raised {error!r}", wrong_output=True)
            wall = time.perf_counter() - started
            rep.wall_s += wall
            rep.samples += 1
            rep.busy_s += wall
            rep.units.append((1, wall, None))
            if prediction is None:
                continue
            values = np.asarray(prediction.values)
            if values.shape != (routing.num_paths,) or not np.all(np.isfinite(values)):
                rep.fail(f"query {query}: expected {routing.num_paths} finite values",
                         wrong_output=True)
            latencies[name].append(wall * 1e3)
        rep.figures["latencies_ms"] = latencies
        if probe is not None:
            block_probe = (probe, probe.measure())
            rep.units = [(samples, seconds, block_probe) for samples, seconds, _ in rep.units]
        return rep

    def figures(self, reps: List[Rep]) -> List[tuple]:
        latencies = sorted(unit[1] * 1e3 for rep in reps for unit in rep.units)
        rows = [("predict_p50_ms", statistics.median(latencies), "ms")]
        # The highest whole percentile with at least ten queries beyond it:
        # p99 from 1000 queries on.
        tail = min(99, int(100 * (len(latencies) - 10) / len(latencies)))
        if tail > 50:
            rows.append((f"predict_p{tail}_ms", float(np.percentile(latencies, tail)), "ms"))
        for name in ("geant2", "nsfnet"):
            own = [value for rep in reps for value in rep.figures["latencies_ms"][name]]
            if own:
                rows.append((f"{name}_predict_p50_ms", statistics.median(own), "ms"))
        rows.append(("queries", float(len(latencies)), "count"))
        return rows


WORKLOADS = {workload.name: workload for workload in
             (Generate, Train, TrainStreamDP, Predict)}

