"""Per-unit claim files: atomic mutual exclusion for concurrent resumes.

Two `--resume` runs sharing one store must divide the pending units
between them without ever executing a unit twice.  The claim is an
``O_CREAT|O_EXCL`` file (atomic on any POSIX filesystem); stale claims
(holder presumed dead, by mtime age) are taken over.  The concurrency
test runs two real resume processes, slowed by `delay` faults so their
executions genuinely overlap, and proves exactly-once execution from the
cross-process execution log."""

import json
import multiprocessing as mp
import os
import re
import time

import pytest

from repro.datasets import DatasetJobSpec, ShardedDatasetReader, run_job
from repro.datasets.factory import _claim_file, _release_claim, _try_claim_unit
from repro.testing.faults import ENV_EXEC_LOG, ENV_PLAN


def small_spec(**overrides) -> DatasetJobSpec:
    parameters = dict(topologies=("ring:4",), samples_per_scenario=8,
                      unit_size=2, seed=7,
                      base_config={"small_queue_fraction": 0.5})
    parameters.update(overrides)
    return DatasetJobSpec(**parameters)


def store_contents(path):
    return [json.dumps(sample.to_dict(), sort_keys=True)
            for sample in ShardedDatasetReader(path)]


class TestClaimPrimitive:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        path = str(tmp_path)
        assert _try_claim_unit(path, 0, ttl=3600.0)
        assert not _try_claim_unit(path, 0, ttl=3600.0)
        assert _try_claim_unit(path, 1, ttl=3600.0)  # other units unaffected
        _release_claim(path, 0)
        assert _try_claim_unit(path, 0, ttl=3600.0)

    def test_claim_records_its_holder(self, tmp_path):
        path = str(tmp_path)
        assert _try_claim_unit(path, 4, ttl=3600.0)
        with open(_claim_file(path, 4)) as handle:
            holder = json.load(handle)
        assert holder["pid"] == os.getpid()

    def test_stale_claim_is_taken_over(self, tmp_path):
        path = str(tmp_path)
        assert _try_claim_unit(path, 0, ttl=3600.0)
        # Backdate the claim far past the TTL: its holder is presumed dead.
        ancient = time.time() - 7200.0
        os.utime(_claim_file(path, 0), (ancient, ancient))
        assert _try_claim_unit(path, 0, ttl=3600.0)

    def test_release_of_unclaimed_unit_is_a_noop(self, tmp_path):
        _release_claim(str(tmp_path), 99)


class TestClaimsGateExecution:
    def test_held_claim_blocks_a_unit_until_released(self, tmp_path):
        """A unit claimed by another (live) run is skipped, not executed —
        and picked up by the next resume once the claim is gone."""
        path = str(tmp_path / "store")
        spec = small_spec()
        run_job(spec, path, workers=1, limit=0)  # catalog only, all pending
        assert _try_claim_unit(path, 0, ttl=3600.0)  # "another run" holds 0

        executed = []
        status = run_job(spec, path, workers=1, resume=True,
                         progress=lambda i, done, total: executed.append(i))
        assert executed == [1, 2, 3]
        assert status["pending_units"] == 1
        assert not status["complete"]

        _release_claim(path, 0)
        final = run_job(spec, path, workers=1, resume=True)
        assert final["complete"]


def _resume_run(spec, path):
    """Child-process body for the concurrency test (fault plan + execution
    log arrive through the inherited environment)."""
    run_job(spec, path, workers=1, resume=True, fit_normalizer=False)


class TestConcurrentResumes:
    def test_two_concurrent_resumes_execute_each_unit_exactly_once(
            self, tmp_path, monkeypatch):
        """The acceptance criterion: two simultaneous resume processes over
        one store complete without duplicating any in-flight unit.  Every
        execution is `delay`-stretched so the runs genuinely overlap, and
        logged to a shared O_APPEND file that must show each unit exactly
        once."""
        spec = small_spec()
        path = str(tmp_path / "store")
        reference = str(tmp_path / "reference")
        assert run_job(spec, reference, workers=1)["complete"]
        run_job(spec, path, workers=1, limit=0)  # catalog only, all pending

        log = tmp_path / "exec.log"
        monkeypatch.setenv(ENV_EXEC_LOG, str(log))
        monkeypatch.setenv(ENV_PLAN, json.dumps(
            [{"site": "factory.unit.start", "kind": "delay",
              "seconds": 0.25}]))

        context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        racers = [context.Process(target=_resume_run, args=(spec, path))
                  for _ in range(2)]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=120)
        assert [racer.exitcode for racer in racers] == [0, 0]

        executions = re.findall(r"unit_index=(\d+)", log.read_text())
        assert sorted(executions) == ["0", "1", "2", "3"]

        # A final (no-op) resume verifies every shard's checksum, confirms
        # nothing is left pending, and attaches the normalizer.
        monkeypatch.delenv(ENV_PLAN)
        monkeypatch.delenv(ENV_EXEC_LOG)
        final = run_job(spec, path, workers=1, resume=True)
        assert final["complete"]
        assert final["total_attempts"] == 4  # exactly once per unit, ever
        assert store_contents(path) == store_contents(reference)
