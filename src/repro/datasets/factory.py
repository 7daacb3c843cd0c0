"""Dataset factory: job-spec-driven, resumable, multi-process generation.

The CLI's ``generate`` and every store-building caller generate through
this module; :func:`~repro.datasets.generator.generate_dataset` remains as
the in-memory list helper.  Generation is split into four layers:

**Job spec** — :class:`DatasetJobSpec` declares a sweep: topologies ×
:class:`~repro.datasets.generator.DatasetConfig` axes × a sample budget
per scenario.  :func:`expand_units` expands it *deterministically* into
shard-sized :class:`WorkUnit`\\ s.  Each unit draws from its own derived
RNG stream ``np.random.default_rng([job_seed, unit_index])``, so a unit's
output depends only on the spec and its index — never on which worker ran
it, in what order, or how many workers there were.  (``generate_dataset``
instead threads a single RNG through every sample, so the same seed gives
different samples there.)

**Execution** — :func:`run_job` executes the pending units, either
in-process or on a :class:`~repro.supervision.Farm` of worker processes.
Every worker runs whole units end to end and commits each as **one shard
file** via
:func:`repro.datasets.sharded.write_shard` (temp + ``os.replace``), so a
killed run leaves only whole units on disk.

**Catalog** — the store's ``manifest.json`` is extended with a
``catalog`` block recording per-unit provenance: the generator config,
backend, scenario axes, seed path, simulator version, status and
measured generation cost.  The manifest is atomically rewritten after
every completed unit (the commit point), which is what makes runs
resumable: re-running the same spec with ``resume=True`` executes **only
missing or failed units** (incremental top-up), and
:func:`merge_catalogs` combines several runs into one trainable store.
The ``shards`` index lists completed units in unit order, so any
:class:`~repro.datasets.sharded.ShardedDatasetReader` — and therefore the
whole training stack — reads a factory store unchanged, with a
deterministic sample order regardless of worker count.

**CLI** — ``python -m repro.cli generate`` (``--workers N``, ``--resume``)
drives :func:`run_job` and ``python -m repro.cli status`` prints
:func:`job_status`.

**Fault tolerance** — the farm is supervised (see :mod:`repro.supervision`):
a worker that dies or hangs past its task timeout is reaped and respawned
by the farm, and its unit is re-queued — safe because unit content is a pure function of
``[job_seed, unit_index]``.  A unit that keeps failing is retried up to
``max_retries`` extra times (every execution counts into the catalog's
per-unit ``attempts``) and then **quarantined**: its status and traceback
land in the catalog, the run completes and reports it instead of aborting.
Shard integrity is checked on resume — a committed shard whose bytes no
longer match its catalog SHA-256 is set aside as ``<shard>.corrupt`` and
its unit re-executed.  Concurrent ``resume`` runs over one store (e.g. a
shared filesystem farm) coordinate through atomic per-unit **claim files**
(``.claims/unit-NNNNNN.claim``, ``O_CREAT|O_EXCL``, stale claims taken
over by mtime age) and adopt each other's committed units at every
manifest commit, so no unit is ever executed twice concurrently.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.generator import DatasetConfig, DatasetGenerator
from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sharded import (
    MANIFEST_NAME,
    SHARD_EXTENSION,
    ShardedDatasetReader,
    _write_manifest,
    file_sha256,
    is_sharded_store,
    write_shard,
)
from repro.supervision import Farm, Lost, Reply, SupervisionPolicy
from repro.testing.faults import fault_point, log_execution
from repro.topology.geant2 import geant2_topology
from repro.topology.generators import (
    grid_topology,
    linear_topology,
    random_topology,
    ring_topology,
    scale_free_topology,
    star_topology,
)
from repro.topology.graph import Topology
from repro.topology.nsfnet import nsfnet_topology
from repro.version import __version__

__all__ = [
    "DatasetJobSpec",
    "WorkUnit",
    "expand_units",
    "execute_unit",
    "run_job",
    "job_status",
    "format_job_status",
    "merge_catalogs",
    "resolve_topology",
]

#: Seed-path suffix reserved for deriving per-job random topologies.
#: Units seed from the two-element path ``[job_seed, unit_index]``
#: (SeedSequence entropy must be non-negative); the topology stream uses a
#: three-element path, which can never collide with any unit's.
_TOPOLOGY_SEED_SUFFIX = (0, 1)

_NAMED_TOPOLOGIES = {
    "geant2": geant2_topology,
    "nsfnet": nsfnet_topology,
}

#: Parametric families: ``"<family>:<size>"`` resolves via these builders.
_PARAMETRIC_TOPOLOGIES = {
    "ring": ring_topology,
    "linear": linear_topology,
    "star": star_topology,
    "scale_free": scale_free_topology,
}


def resolve_topology(name: str, job_seed: int = 0) -> Topology:
    """Build the topology a job-spec name refers to.

    ``"geant2"`` / ``"nsfnet"`` are the paper topologies; ``"ring:8"``,
    ``"linear:6"``, ``"star:5"`` and ``"scale_free:20"`` build parametric
    families; ``"random:12"`` draws a connected random topology from the
    job's dedicated RNG sub-stream, so it is identical for every unit of
    the job (and across worker counts) but varies with the job seed.
    """
    if name in _NAMED_TOPOLOGIES:
        return _NAMED_TOPOLOGIES[name]()
    family, _, parameter = name.partition(":")
    if parameter:
        try:
            size = int(parameter)
        except ValueError:
            raise ValueError(
                f"topology '{name}': size '{parameter}' is not an integer") from None
        if family == "random":
            return random_topology(
                size, rng=np.random.default_rng([job_seed, *_TOPOLOGY_SEED_SUFFIX]))
        if family in _PARAMETRIC_TOPOLOGIES:
            return _PARAMETRIC_TOPOLOGIES[family](size)
    known = sorted(_NAMED_TOPOLOGIES) + sorted(
        f"{f}:<n>" for f in list(_PARAMETRIC_TOPOLOGIES) + ["random"])
    raise ValueError(f"unknown topology '{name}' (known: {', '.join(known)})")


#: DatasetConfig fields a spec may sweep or pin; num_samples and seed are
#: owned by the expansion (unit size and derived streams respectively).
_CONFIG_FIELDS = tuple(
    f.name for f in dataclasses.fields(DatasetConfig)
    if f.name not in ("num_samples", "seed"))


@dataclasses.dataclass
class DatasetJobSpec:
    """A declarative sweep: topologies × DatasetConfig axes × a seed range.

    Attributes
    ----------
    topologies:
        Topology names resolvable by :func:`resolve_topology`.
    samples_per_scenario:
        Samples generated for every (topology × axes combination) scenario.
    unit_size:
        Samples per work unit — the granularity of scheduling, of atomic
        commit and of resume.  The last unit of a scenario may be smaller.
    seed:
        The job seed.  Unit ``k`` draws from
        ``np.random.default_rng([seed, k])``, so every unit's stream is
        independent of execution order and worker count.
    axes:
        Swept :class:`DatasetConfig` fields → list of values; the sweep is
        their cartesian product (in the declared order).
    base_config:
        Fixed :class:`DatasetConfig` overrides shared by every scenario
        (e.g. ``{"backend": "simulation"}``).
    """

    topologies: Sequence[str] = ("geant2",)
    samples_per_scenario: int = 100
    unit_size: int = 32
    seed: int = 0
    axes: Dict[str, Sequence] = dataclasses.field(default_factory=dict)
    base_config: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        self.topologies = tuple(self.topologies)
        if not self.topologies:
            raise ValueError("topologies must name at least one topology")
        if self.samples_per_scenario < 1:
            raise ValueError("samples_per_scenario must be positive")
        if self.unit_size < 1:
            raise ValueError("unit_size must be at least 1")
        for field_name, values in self.axes.items():
            if field_name not in _CONFIG_FIELDS:
                raise ValueError(
                    f"axis '{field_name}' is not a sweepable DatasetConfig "
                    f"field (choose from {', '.join(_CONFIG_FIELDS)})")
            if not list(values):
                raise ValueError(f"axis '{field_name}' has no values")
        for field_name in self.base_config:
            if field_name not in _CONFIG_FIELDS:
                raise ValueError(
                    f"base_config field '{field_name}' is not a DatasetConfig "
                    f"field (choose from {', '.join(_CONFIG_FIELDS)})")
        overlap = set(self.axes) & set(self.base_config)
        if overlap:
            raise ValueError(
                f"fields {sorted(overlap)} appear in both axes and base_config")

    # ------------------------------------------------------------------ #
    def scenarios(self) -> List[Tuple[str, Dict[str, object]]]:
        """Deterministic scenario list: (topology, axes values) pairs."""
        axis_names = list(self.axes)
        combos = list(itertools.product(*(self.axes[a] for a in axis_names)))
        return [(topology, dict(zip(axis_names, combo)))
                for topology in self.topologies
                for combo in combos]

    @property
    def num_units(self) -> int:
        per_scenario = -(-self.samples_per_scenario // self.unit_size)
        return per_scenario * len(self.scenarios())

    @property
    def total_samples(self) -> int:
        return self.samples_per_scenario * len(self.scenarios())

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "topologies": list(self.topologies),
            "samples_per_scenario": self.samples_per_scenario,
            "unit_size": self.unit_size,
            "seed": self.seed,
            "axes": {name: list(values) for name, values in self.axes.items()},
            "base_config": dict(self.base_config),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "DatasetJobSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Catalogs written while units could be JSONL shards record a
        ``payload`` key as well; it names a shard encoding, not part of the
        sweep, so it is ignored.
        """
        return cls(**{key: value for key, value in record.items()
                      if key != "payload"})

    def fingerprint(self) -> str:
        """Canonical identity of the sweep — what resume matches against."""
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One independently executable slice of a job: ≤ ``unit_size`` samples
    of one scenario, with its own derived RNG stream."""

    index: int                  #: global unit index (the seed derivation key)
    topology: str
    axes: Dict[str, object]
    config: DatasetConfig       #: full per-unit generator config
    num_samples: int
    scenario_index: int
    sample_offset: int          #: offset of the first sample within the scenario

    @property
    def shard_name_stem(self) -> str:
        return f"unit-{self.index:06d}"


def expand_units(spec: DatasetJobSpec) -> List[WorkUnit]:
    """Deterministically expand a job spec into its work units.

    Unit indices enumerate scenarios in spec order and sample blocks within
    each scenario in offset order; the expansion depends only on the spec,
    so workers can re-derive it locally from the pickled spec and resume
    runs address units stably across processes and sessions.
    """
    units: List[WorkUnit] = []
    index = 0
    for scenario_index, (topology, axes) in enumerate(spec.scenarios()):
        offset = 0
        while offset < spec.samples_per_scenario:
            count = min(spec.unit_size, spec.samples_per_scenario - offset)
            config = DatasetConfig(num_samples=count, seed=spec.seed,
                                   **{**spec.base_config, **axes})
            units.append(WorkUnit(index=index, topology=topology,
                                  axes=dict(axes), config=config,
                                  num_samples=count,
                                  scenario_index=scenario_index,
                                  sample_offset=offset))
            offset += count
            index += 1
    return units


def execute_unit(spec: DatasetJobSpec, unit: WorkUnit, path: str) -> dict:
    """Generate one unit's samples and atomically commit its shard file.

    Returns the unit's provenance record for the catalog.  The unit's RNG
    stream ``default_rng([job_seed, unit_index])`` makes the shard's
    content a pure function of (spec, unit index) — bit-identical whether
    it runs in the parent, in any worker, or in a later resume.
    """
    started = time.perf_counter()
    log_execution("unit", unit_index=unit.index, pid=os.getpid())
    fault_point("factory.unit.start", unit_index=unit.index)
    rng = np.random.default_rng([spec.seed, unit.index])
    topology = resolve_topology(unit.topology, spec.seed)
    generator = DatasetGenerator(topology, unit.config)
    samples = []
    events_processed = 0
    sim_wall_seconds = 0.0
    for position in range(unit.num_samples):
        sample = generator.generate_one(rng)
        sample.metadata.update({
            "job_seed": spec.seed,
            "unit_index": unit.index,
            "unit_position": position,
            **unit.axes,
        })
        events_processed += int(sample.metadata.get("events_processed", 0))
        # The wall time goes to the catalog only: left in the sample it
        # would make the shard's bytes differ between runs of one spec.
        sim_wall_seconds += float(sample.metadata.pop("sim_wall_seconds", 0.0))
        samples.append(sample)
    name = unit.shard_name_stem + SHARD_EXTENSION
    record = write_shard(path, name, samples)
    fault_point("factory.unit.committed", unit_index=unit.index,
                path=os.path.join(path, name))
    return {
        "shard": record["name"],
        "written_samples": record["num_samples"],
        "sha256": record["sha256"],
        "generation_seconds": time.perf_counter() - started,
        "events_processed": events_processed,
        "sim_wall_seconds": sim_wall_seconds,
    }


# ---------------------------------------------------------------------- #
# Catalog layer
# ---------------------------------------------------------------------- #

def _initial_unit_state(unit: WorkUnit) -> dict:
    return {
        "index": unit.index,
        "status": "pending",
        "topology": unit.topology,
        "axes": dict(unit.axes),
        "config": dataclasses.asdict(unit.config),
        "backend": unit.config.backend,
        "num_samples": unit.num_samples,
        "scenario_index": unit.scenario_index,
        "sample_offset": unit.sample_offset,
        "seed_path": [unit.config.seed, unit.index],
        "shard": None,
        "attempts": 0,  #: cumulative executions across all runs/resumes
    }


def _build_manifest(spec: DatasetJobSpec, units_state: List[dict],
                    normalizer: Optional[FeatureNormalizer] = None,
                    metadata: Optional[dict] = None) -> dict:
    """The store manifest: a plain sharded-store index (readable by any
    :class:`ShardedDatasetReader`, shards in unit order) plus the catalog."""
    done = [state for state in units_state if state["status"] == "done"]

    def shard_record(state: dict) -> dict:
        record = {"name": state["shard"],
                  "num_samples": state["written_samples"]}
        if state.get("sha256"):
            record["sha256"] = state["sha256"]
        return record

    return {
        "format_version": 3,
        "metadata": dict(metadata) if metadata else {},
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "total_samples": sum(state["written_samples"] for state in done),
        "shards": [shard_record(state) for state in done],
        "catalog": {
            "job": spec.to_dict(),
            "fingerprint": spec.fingerprint(),
            "simulator_version": __version__,
            "units": units_state,
        },
    }


def _recorded_fingerprint(catalog: dict) -> Optional[str]:
    """The fingerprint of the job a catalog records, as this version
    computes it (so a catalog that still carries a ``payload`` key matches
    its spec); None when the record is no single job spec (e.g. a merge)."""
    try:
        return DatasetJobSpec.from_dict(catalog["job"]).fingerprint()
    except (KeyError, TypeError, ValueError):
        return None


def _read_manifest(path: str) -> dict:
    with open(os.path.join(path, MANIFEST_NAME), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_units_state(spec: DatasetJobSpec, path: str,
                      resume: bool) -> Tuple[List[dict], Optional[dict]]:
    """Fresh or restored per-unit state for a run over ``path``.

    A unit counts as done only when the catalog says so *and* its shard
    file still exists *and* (when a checksum was recorded) the shard's
    bytes still hash to it — a shard that disappeared re-queues exactly
    that unit, and one that rotted on disk is set aside as
    ``<shard>.corrupt`` and re-queued with the corruption noted.  Units
    that were not done (pending / quarantined) come back as pending but
    keep their cumulative ``attempts`` and last error.  A store holding a
    different job's catalog, or a plain sharded store without one, is
    refused rather than silently clobbered.
    """
    units = expand_units(spec)
    fresh = [_initial_unit_state(unit) for unit in units]
    if not is_sharded_store(path):
        return fresh, None
    manifest = _read_manifest(path)
    catalog = manifest.get("catalog")
    if catalog is None:
        raise ValueError(
            f"'{path}' holds a sharded store without a factory catalog; "
            "refusing to overwrite it (pick a new output directory)")
    if _recorded_fingerprint(catalog) != spec.fingerprint():
        raise ValueError(
            f"'{path}' was generated from a different job spec; re-run with "
            "the original spec to top it up, or pick a new output directory")
    if not resume:
        raise ValueError(
            f"'{path}' already holds this job's catalog; pass resume=True "
            "(CLI --resume) to execute only its missing units")
    recorded = {state["index"]: state for state in catalog.get("units", [])}
    restored = []
    for state in fresh:
        previous = recorded.get(state["index"])
        if previous is None:
            restored.append(state)
            continue
        state["attempts"] = int(previous.get("attempts", 0))
        if previous.get("status") == "done" and previous.get("shard"):
            shard_path = os.path.join(path, previous["shard"])
            if os.path.isfile(shard_path):
                expected = previous.get("sha256")
                if expected is None or file_sha256(shard_path) == expected:
                    restored.append(previous)
                    continue
                # Silent corruption: set the bytes aside for post mortem
                # (no manifest will ever reference the .corrupt name, so
                # readers never touch it), then re-queue the unit.
                os.replace(shard_path, shard_path + ".corrupt")
                state["error"] = (
                    f"shard '{previous['shard']}' failed checksum "
                    f"verification on resume (expected sha256 {expected}); "
                    "the corrupt bytes were set aside as "
                    f"'{previous['shard']}.corrupt' and the unit re-queued")
        elif previous.get("error"):
            state["error"] = previous["error"]
        restored.append(state)
    return restored, manifest


def _mark_done(state: dict, record: dict) -> None:
    state.update(record)
    state["status"] = "done"
    state.pop("error", None)


def _mark_quarantined(state: dict, error: str) -> None:
    """A unit that exhausted its retries: recorded, skipped, reported."""
    state["status"] = "quarantined"
    state["error"] = error
    state["shard"] = None


# ---------------------------------------------------------------------- #
# Claim layer — multi-process / multi-host mutual exclusion per unit
# ---------------------------------------------------------------------- #

_CLAIMS_DIR = ".claims"


def _claim_file(path: str, index: int) -> str:
    return os.path.join(path, _CLAIMS_DIR, f"unit-{index:06d}.claim")


def _try_claim_unit(path: str, index: int, ttl: float) -> bool:
    """Atomically claim unit ``index`` for this process.

    The claim is an ``O_CREAT|O_EXCL`` file — on any POSIX filesystem
    (NFS included, for this flag combination) exactly one creator wins,
    which is what lets concurrent ``resume`` runs on a shared store divide
    the pending units without ever executing one twice.  A claim older
    than ``ttl`` seconds (by mtime) belongs to a presumed-dead run and is
    taken over.  Returns False when another live run holds the unit.
    """
    claim = _claim_file(path, index)
    os.makedirs(os.path.dirname(claim), exist_ok=True)
    for _ in range(2):
        try:
            fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - os.path.getmtime(claim)
            except OSError:
                continue  # holder released between EXCL and stat; retry
            if age <= ttl:
                return False
            try:  # stale: the holder died without releasing; take over
                os.remove(claim)
            except OSError:
                pass
            continue
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "time": time.time()}, handle)
        return True
    return False


def _release_claim(path: str, index: int) -> None:
    try:
        os.remove(_claim_file(path, index))
    except OSError:
        pass


def _commit_lock_file(path: str) -> str:
    return os.path.join(path, _CLAIMS_DIR, "manifest.lock")


def _acquire_commit_lock(path: str, stale: float = 30.0) -> None:
    """Serialise manifest commits across concurrent resume runs.

    A commit is a read-modify-write of ``manifest.json`` (adopt the
    latest on-disk state, then rewrite the whole file); two unserialised
    commits can interleave so the later write erases the earlier one's
    freshly committed unit — after which the earlier run's released
    claim no longer protects it and a competitor re-executes it.  The
    lock is held only for the few milliseconds of the adopt+write cycle;
    a lock older than ``stale`` seconds belongs to a dead run and is
    broken.
    """
    lock = _commit_lock_file(path)
    os.makedirs(os.path.dirname(lock), exist_ok=True)
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - os.path.getmtime(lock)
            except OSError:
                continue  # released between EXCL and stat; retry at once
            if age > stale:
                try:
                    os.remove(lock)
                except OSError:
                    pass
                continue
            time.sleep(0.005)
            continue
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        return


def _release_commit_lock(path: str) -> None:
    try:
        os.remove(_commit_lock_file(path))
    except OSError:
        pass


# ---------------------------------------------------------------------- #
# Execution layer
# ---------------------------------------------------------------------- #

class _UnitWorker:
    """Executes units by index: the handler of every factory worker, and
    the whole engine of an in-process run.

    It re-derives the unit list from the spec, so only the unit index
    travels to a worker; the worker writes the unit's shard itself and
    only the small provenance record travels back.  ``execute_unit`` is
    looked up in this module at call time, so a patch of it made before
    the workers start reaches them.
    """

    def __init__(self, rank: int, spec: DatasetJobSpec, path: str) -> None:
        self.spec = spec
        self.path = path
        self.units = expand_units(spec)

    def __call__(self, index: int) -> dict:
        return execute_unit(self.spec, self.units[index], self.path)


class _InProcess:
    """The ``workers=1`` engine: a one-worker stand-in for a :class:`Farm`
    that runs each unit in the calling process when it is waited on."""

    size = 1

    def __init__(self, spec: DatasetJobSpec, path: str) -> None:
        self._execute = _UnitWorker(0, spec, path)
        self._queued: List[int] = []

    @property
    def busy(self) -> bool:
        return bool(self._queued)

    def send(self, rank: int, index: int) -> None:
        self._queued.append(index)

    def wait(self) -> List[Reply]:
        index = self._queued.pop(0)
        try:
            return [Reply(0, index, self._execute(index), None)]
        except Exception:  # noqa: BLE001 - retry, then quarantine
            return [Reply(0, index, None, traceback.format_exc())]

    def close(self) -> None:
        self._queued = []


def run_job(spec: DatasetJobSpec, path: str, workers: int = 1,
            resume: bool = False, limit: Optional[int] = None,
            progress: Optional[Callable[[int, int, int], None]] = None,
            fit_normalizer: bool = True,
            metadata: Optional[dict] = None,
            max_retries: int = 2,
            task_timeout: Optional[float] = None,
            max_restarts: Optional[int] = None,
            claim_ttl: float = 3600.0) -> dict:
    """Execute a job spec's pending units into the store at ``path``.

    Parameters
    ----------
    workers:
        Worker processes; 1 executes units in-process (identical output —
        unit content never depends on the execution engine).
    resume:
        Continue a store already holding this job's catalog: only units
        that are missing, quarantined, whose shard file has disappeared,
        or whose shard fails its checksum are executed.  Without it, an
        existing catalog is refused.
    limit:
        Execute at most this many units this invocation (budgeted top-up);
        the rest stay pending for a later ``resume`` run.
    progress:
        ``progress(unit_index, completed_this_run, scheduled_this_run)``
        after every unit commits.
    fit_normalizer:
        When the job completes, fit a :class:`FeatureNormalizer` by
        streaming the finished store and record it in the manifest.
    max_retries:
        Extra executions a failing unit gets (crash, hang or exception)
        before it is quarantined.  Every execution counts into the unit's
        cumulative catalog ``attempts``.
    task_timeout:
        Seconds one unit may run on a worker before the worker is presumed
        hung, killed and respawned (``None`` disables).
    max_restarts:
        Worker respawns this run may spend before giving up (default 8).
    claim_ttl:
        Seconds after which another run's unit claim counts as stale and
        is taken over (its holder presumed dead).

    Returns :func:`job_status` of the store.  A run with quarantined units
    **completes** (their errors are in the catalog and the status report;
    the CLI exits non-zero); only unrecoverable farm errors raise — after
    flushing the catalog, so the store is always resumable from its last
    committed unit.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    policy = SupervisionPolicy(
        task_timeout=task_timeout, max_retries=max_retries,
        max_restarts=8 if max_restarts is None else max_restarts)
    os.makedirs(path, exist_ok=True)
    units_state, previous_manifest = _load_units_state(spec, path, resume)
    states = {state["index"]: state for state in units_state}
    previous_metadata = (previous_manifest or {}).get("metadata") or {}
    manifest_metadata = {**previous_metadata, **(metadata or {})}
    held_claims: set = set()

    def adopt_external_progress() -> None:
        """Fold units committed by a concurrent run into our state.

        Two resumes sharing one store each rewrite the whole manifest;
        without adoption, each rewrite would erase the other's finished
        units.  Claims guarantee a unit we hold is never concurrently
        done elsewhere, so adoption only ever fills in units we skipped.
        """
        if not is_sharded_store(path):
            return
        try:
            manifest = _read_manifest(path)
        except (OSError, json.JSONDecodeError):  # pragma: no cover - race
            return
        for record in (manifest.get("catalog") or {}).get("units", []):
            state = states.get(record.get("index"))
            if (state is None or state["status"] == "done"
                    or record.get("index") in held_claims):
                continue
            if (record.get("status") == "done" and record.get("shard")
                    and os.path.isfile(os.path.join(path, record["shard"]))):
                state.clear()
                state.update(record)

    def commit(normalizer: Optional[FeatureNormalizer] = None) -> None:
        # Adopt-then-write must be atomic with respect to other runs'
        # commits, or the write clobbers records they committed since our
        # read (see _acquire_commit_lock).
        _acquire_commit_lock(path)
        try:
            adopt_external_progress()
            _write_manifest(path, _build_manifest(spec, units_state,
                                                  normalizer=normalizer,
                                                  metadata=manifest_metadata))
        finally:
            _release_commit_lock(path)

    def try_take(index: int) -> bool:
        """Dispatch gate: claim the unit and re-check it is still needed."""
        if states[index]["status"] == "done":
            return False
        if index not in held_claims:
            if not _try_claim_unit(path, index, claim_ttl):
                return False  # another live run is generating it right now
            # The claim may have been released by a run that *finished* the
            # unit; adopt before re-executing it pointlessly (and, worse,
            # racing a reader of its committed shard).  The unit must not
            # be in held_claims yet — adoption skips held units (they are
            # ours to execute), and here done-ness is the very thing being
            # re-checked.
            adopt_external_progress()
            if states[index]["status"] == "done":
                _release_claim(path, index)
                return False
            held_claims.add(index)
        states[index]["attempts"] = int(states[index].get("attempts", 0)) + 1
        attempts_this_run[index] = attempts_this_run.get(index, 0) + 1
        return True

    def finish(index: int) -> None:
        if index in held_claims:
            held_claims.discard(index)
            _release_claim(path, index)

    def handle_failure(index: int, error: str) -> bool:
        """Retry (True) or quarantine (False) a failed execution."""
        if attempts_this_run.get(index, 0) <= policy.max_retries:
            states[index]["error"] = error
            commit()
            return True
        _mark_quarantined(states[index], error)
        commit()
        finish(index)
        return False

    attempts_this_run: Dict[int, int] = {}
    pending = [state["index"] for state in units_state
               if state["status"] != "done"]
    if limit is not None:
        if limit < 0:
            raise ValueError("limit must be non-negative")
        pending = pending[:limit]

    # One dynamic queue feeds either engine: units are handed out one at a
    # time as workers free up (units can have very different costs —
    # simulation duration and topology size are sweep axes), and the
    # manifest is committed after every completed unit so an interrupted
    # run keeps everything already finished.
    queue = list(pending)
    done_count = 0
    engine = None

    def dispatch(rank: int) -> None:
        """Hand worker ``rank`` its next dispatchable unit, if any."""
        while queue:
            index = queue.pop(0)
            if try_take(index):
                engine.send(rank, index)
                return

    try:
        # Commit the full unit plan up front so `status` sees pending units
        # (and an interrupted first run is already resumable).
        commit()
        if workers == 1:
            engine = _InProcess(spec, path)
        else:
            engine = Farm(min(workers, len(pending)), _UnitWorker, (spec, path),
                          policy, label="factory worker")
        for rank in range(engine.size):
            dispatch(rank)
        while engine.busy:
            for event in engine.wait():
                if isinstance(event, Lost):
                    # A lost worker was generating exactly one unit; its
                    # replacement reruns it bit-identically (the unit's RNG
                    # stream depends only on its index).
                    (index,) = event.messages
                    error = f"{event.reason} (generating unit {index})"
                else:
                    index, error = event.message, event.error
                if error is None:
                    _mark_done(states[index], event.value)
                    done_count += 1
                    # Commit before releasing the claim: once the claim is
                    # gone a concurrent resume may take the unit, and only
                    # the committed manifest tells it the work is done.
                    commit()
                    finish(index)
                    if progress is not None:
                        progress(index, done_count, len(pending))
                elif handle_failure(index, error):
                    queue.insert(0, index)  # retry promptly (claim still held)
                dispatch(event.rank)
    except BaseException:
        # Unrecoverable (restart budget, spawn failure, interrupt): flush
        # what finished so the crashed run resumes from its last commit.
        try:
            commit()
        except Exception:  # noqa: BLE001 - the original error matters more
            pass
        raise
    finally:
        if engine is not None:
            engine.close()
        for index in list(held_claims):
            finish(index)

    complete = all(state["status"] == "done" for state in units_state)
    if complete and fit_normalizer:
        normalizer = FeatureNormalizer().fit(ShardedDatasetReader(path))
        commit(normalizer=normalizer)
    return job_status(path)


# ---------------------------------------------------------------------- #
# Status and merge
# ---------------------------------------------------------------------- #

def job_status(path: str) -> dict:
    """Per-unit progress of a factory store: done/pending/quarantined
    counts, cumulative execution attempts, sample totals and aggregate
    generation cost.  ``failed_units`` is kept as a legacy alias of
    ``quarantined_units``."""
    if not is_sharded_store(path):
        raise FileNotFoundError(f"no sharded dataset store at '{path}'")
    manifest = _read_manifest(path)
    catalog = manifest.get("catalog")
    if catalog is None:
        raise ValueError(f"'{path}' is a sharded store without a factory catalog")
    units = catalog.get("units", [])
    by_status: Dict[str, List[int]] = {"done": [], "pending": [],
                                       "quarantined": [], "failed": []}
    for state in units:
        by_status.setdefault(state.get("status", "pending"), []).append(state["index"])
    # Pre-quarantine catalogs recorded exhausted units as "failed".
    quarantined = by_status["quarantined"] + by_status["failed"]
    done = [state for state in units if state.get("status") == "done"]
    return {
        "path": path,
        "total_units": len(units),
        "done_units": len(by_status["done"]),
        "pending_units": len(by_status["pending"]),
        "quarantined_units": quarantined,
        "failed_units": quarantined,
        "total_attempts": sum(int(state.get("attempts", 0)) for state in units),
        "complete": len(by_status["done"]) == len(units) and bool(units),
        "samples_written": sum(state.get("written_samples", 0) for state in done),
        "total_samples_planned": sum(state.get("num_samples", 0) for state in units),
        "generation_seconds": sum(state.get("generation_seconds", 0.0)
                                  for state in done),
        "events_processed": sum(state.get("events_processed", 0) for state in done),
        "simulator_version": catalog.get("simulator_version"),
        "has_normalizer": manifest.get("normalizer") is not None,
        "job": catalog.get("job", {}),
    }


def format_job_status(status: dict) -> str:
    """Human-readable ``python -m repro.cli status`` report."""
    lines = [
        f"factory store       : {status['path']}",
        f"units done/total    : {status['done_units']}/{status['total_units']}"
        + (" (complete)" if status["complete"] else ""),
        f"samples written     : {status['samples_written']}"
        f"/{status['total_samples_planned']}",
        f"generation seconds  : {status['generation_seconds']:.2f}",
        f"normalizer attached : {'yes' if status['has_normalizer'] else 'no'}",
    ]
    if status["events_processed"]:
        rate = status["events_processed"] / max(status["generation_seconds"], 1e-9)
        lines.insert(4, f"simulator events    : {status['events_processed']} "
                        f"({rate:.0f} events/sec)")
    attempts = status.get("total_attempts", 0)
    if attempts > status["done_units"]:
        retries = attempts - status["done_units"]
        lines.append(f"execution attempts  : {attempts} "
                     f"({retries} beyond one per finished unit)")
    if status["quarantined_units"]:
        lines.append(f"QUARANTINED units   : {status['quarantined_units']} "
                     "(tracebacks recorded in the catalog; re-run with "
                     "--resume to retry them)")
    if status["pending_units"]:
        lines.append(f"pending units       : {status['pending_units']} "
                     "(re-run with --resume to top up)")
    return "\n".join(lines)


def merge_catalogs(sources: Sequence[str], output: str,
                   fit_normalizer: bool = True) -> dict:
    """Merge several factory stores into one trainable store.

    Every source's *done* units are copied into ``output`` under fresh
    sequential unit names; their catalog records are preserved verbatim
    (plus ``source`` / ``source_index`` provenance), so the merged catalog
    still tells exactly which job, seed path and config produced every
    shard.  Sources may hold format-2 JSONL shards from older stores — the
    reader dispatches its decoder per shard file — but **not** mix
    simulator versions: mixing
    samples produced by different generator/simulator code would silently
    poison the merged store's provenance, so mismatched
    ``simulator_version`` values are refused with an error naming each
    source's version.  Returns the merged store's :func:`job_status`.
    """
    if not sources:
        raise ValueError("at least one source store is required")
    if is_sharded_store(output):
        raise ValueError(
            f"'{output}' already holds a store; merge into a fresh directory")
    os.makedirs(output, exist_ok=True)
    merged_units: List[dict] = []
    shards: List[dict] = []
    jobs = []
    versions = set()
    source_versions: List[Tuple[str, object]] = []
    for source in sources:
        if not is_sharded_store(source):
            raise FileNotFoundError(f"no sharded dataset store at '{source}'")
        manifest = _read_manifest(source)
        catalog = manifest.get("catalog")
        if catalog is None:
            raise ValueError(
                f"'{source}' is a sharded store without a factory catalog; "
                "only factory stores carry the provenance a merge preserves")
        versions.add(catalog.get("simulator_version"))
        if len(versions) > 1:
            raise ValueError(
                "refusing to merge catalogs with mismatched simulator "
                "versions — the merged store's provenance would silently "
                "mix generator code: "
                + ", ".join(f"'{src}' → {ver}" for src, ver in source_versions
                            + [(source, catalog.get("simulator_version"))])
                + "; regenerate the outdated store(s) first")
        source_versions.append((source, catalog.get("simulator_version")))
        jobs.append({"source": source, "job": catalog.get("job", {}),
                     "fingerprint": catalog.get("fingerprint")})
        for state in catalog.get("units", []):
            if state.get("status") != "done" or not state.get("shard"):
                continue
            extension = state["shard"][state["shard"].index("."):]
            new_index = len(merged_units)
            new_name = f"unit-{new_index:06d}{extension}"
            shutil.copyfile(os.path.join(source, state["shard"]),
                            os.path.join(output, new_name + ".tmp"))
            os.replace(os.path.join(output, new_name + ".tmp"),
                       os.path.join(output, new_name))
            merged = dict(state)
            merged.update({"index": new_index, "shard": new_name,
                           "source": source, "source_index": state["index"]})
            merged_units.append(merged)
            shard = {"name": new_name,
                     "num_samples": state["written_samples"]}
            if state.get("sha256"):  # the copy has the same bytes
                shard["sha256"] = state["sha256"]
            shards.append(shard)
    if not merged_units:
        raise ValueError("no completed units found in the source stores")
    manifest = {
        "format_version": 3,
        "metadata": {"merged_from": [job["source"] for job in jobs]},
        "normalizer": None,
        "total_samples": sum(shard["num_samples"] for shard in shards),
        "shards": shards,
        "catalog": {
            "job": {"merged_from": jobs},
            "fingerprint": None,
            "simulator_version": versions.pop(),
            "units": merged_units,
        },
    }
    _write_manifest(output, manifest)
    if fit_normalizer:
        manifest["normalizer"] = FeatureNormalizer().fit(
            ShardedDatasetReader(output)).to_dict()
        _write_manifest(output, manifest)
    return job_status(output)
