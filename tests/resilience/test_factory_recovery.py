"""Dataset-factory fault recovery.

A worker farm that loses a worker (abrupt death or hang) respawns it and
re-queues the unit; because unit content is a pure function of
``[job_seed, unit_index]``, the recovered store is byte-identical to a
fault-free run's, with the extra executions visible in the catalog's
per-unit ``attempts``.  A crash-looping farm exhausts its restart budget
and raises — after flushing the catalog, so the store resumes from its
last committed unit."""

import json
import os

import pytest

from repro.datasets import DatasetJobSpec, ShardedDatasetReader, job_status, run_job
from repro.datasets.sharded import MANIFEST_NAME, is_sharded_store
from repro.supervision import RestartBudgetExceeded
from repro.testing.faults import ENV_MARKER_DIR, ENV_PLAN


def small_spec(**overrides) -> DatasetJobSpec:
    """3 units × 2 samples on a 4-node ring — milliseconds per unit."""
    parameters = dict(topologies=("ring:4",), samples_per_scenario=6,
                      unit_size=2, seed=7,
                      base_config={"small_queue_fraction": 0.5})
    parameters.update(overrides)
    return DatasetJobSpec(**parameters)


def store_contents(path):
    return [json.dumps(sample.to_dict(), sort_keys=True)
            for sample in ShardedDatasetReader(path)]


def unit_states(path):
    with open(os.path.join(path, MANIFEST_NAME)) as handle:
        return json.load(handle)["catalog"]["units"]


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("resilience") / "reference")
    assert run_job(small_spec(), path, workers=1)["complete"]
    return path


def _arm(monkeypatch, tmp_path, specs):
    monkeypatch.setenv(ENV_PLAN, json.dumps(specs))
    monkeypatch.setenv(ENV_MARKER_DIR, str(tmp_path / "markers"))


def test_worker_death_is_recovered_bit_identically(tmp_path, monkeypatch,
                                                   reference_store):
    """The tentpole acceptance criterion for the factory farm: kill the
    worker generating unit 1 once; the run completes, the store equals the
    fault-free store, and the catalog records both executions."""
    _arm(monkeypatch, tmp_path, [{"site": "factory.unit.start", "kind": "die",
                                  "match": {"unit_index": 1},
                                  "once": True, "id": "die-unit-1"}])
    path = str(tmp_path / "store")
    status = run_job(small_spec(), path, workers=2)
    assert status["complete"]
    assert status["quarantined_units"] == []
    assert (tmp_path / "markers" / "fired-die-unit-1").is_file()
    assert store_contents(path) == store_contents(reference_store)
    states = unit_states(path)
    assert states[1]["attempts"] == 2
    assert status["total_attempts"] == 4  # 3 units + the one retry


def test_hung_worker_exceeds_task_timeout_and_unit_is_redone(
        tmp_path, monkeypatch, reference_store):
    _arm(monkeypatch, tmp_path, [{"site": "factory.unit.start", "kind": "hang",
                                  "seconds": 60.0,
                                  "match": {"unit_index": 0},
                                  "once": True, "id": "hang-unit-0"}])
    path = str(tmp_path / "store")
    status = run_job(small_spec(), path, workers=2, task_timeout=2.0)
    assert status["complete"]
    assert store_contents(path) == store_contents(reference_store)
    assert unit_states(path)[0]["attempts"] == 2


def test_in_task_exception_is_retried_in_the_serial_engine(
        tmp_path, monkeypatch, reference_store):
    """`fail` faults raise inside execute_unit — the retry path that needs
    no respawn.  A transient failure costs one retry and leaves no error
    in the finished catalog record."""
    _arm(monkeypatch, tmp_path, [{"site": "factory.unit.start", "kind": "fail",
                                  "match": {"unit_index": 2},
                                  "once": True, "id": "fail-unit-2"}])
    path = str(tmp_path / "store")
    status = run_job(small_spec(), path, workers=1)
    assert status["complete"]
    assert store_contents(path) == store_contents(reference_store)
    states = unit_states(path)
    assert states[2]["attempts"] == 2
    assert states[2]["status"] == "done"
    assert "error" not in states[2]


def test_crash_loop_exhausts_restart_budget_but_flushes_the_catalog(
        tmp_path, monkeypatch, reference_store):
    """A fault that kills *every* worker touching unit 1 is a crash loop:
    the farm must give up loudly once the restart budget is spent — after
    committing the manifest, so everything already finished survives and
    a fault-free resume completes the store."""
    monkeypatch.setenv(ENV_PLAN, json.dumps(
        [{"site": "factory.unit.start", "kind": "die",
          "match": {"unit_index": 1}}]))  # not once: fires on every attempt
    path = str(tmp_path / "store")
    with pytest.raises(RestartBudgetExceeded, match="restart budget"):
        run_job(small_spec(), path, workers=2, max_restarts=1, max_retries=5)

    # The flush satellite: the catalog landed despite the raise.
    assert is_sharded_store(path)
    flushed = job_status(path)
    assert flushed["total_units"] == 3
    assert not flushed["complete"]

    monkeypatch.delenv(ENV_PLAN)
    final = run_job(small_spec(), path, workers=1, resume=True)
    assert final["complete"]
    assert store_contents(path) == store_contents(reference_store)
