"""Dataset factory tests: deterministic expansion, worker-count-invariant
content, resumable execution (only missing units run), catalog provenance,
merging, the CLI layer, and the satellite fixes (DatasetConfig validation
gaps, simulator cost metadata)."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import (
    DatasetConfig,
    DatasetJobSpec,
    ShardedDatasetReader,
    expand_units,
    execute_unit,
    job_status,
    merge_catalogs,
    run_job,
)
from repro.datasets.factory import format_job_status, resolve_topology
from repro.datasets.sharded import MANIFEST_NAME
from repro.version import __version__
from tests.datasets.legacy_formats import jsonl_factory_store, record_payload_in_catalog


def spec_for(**overrides) -> DatasetJobSpec:
    """The small reference job of this module: 2 scenarios × 3 units × 2
    samples on a 5-node ring (analytic backend, runs in milliseconds)."""
    parameters = dict(
        topologies=("ring:5",),
        samples_per_scenario=6,
        unit_size=2,
        seed=3,
        axes={"traffic_model": ["uniform", "gravity"]},
        base_config={"small_queue_fraction": 0.5},
    )
    parameters.update(overrides)
    return DatasetJobSpec(**parameters)


def store_contents(path):
    """Order-preserving canonical sample encodings of a store."""
    return [json.dumps(sample.to_dict(), sort_keys=True)
            for sample in ShardedDatasetReader(path)]


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    """One uninterrupted single-process run of the reference job."""
    path = str(tmp_path_factory.mktemp("factory") / "reference")
    status = run_job(spec_for(), path, workers=1)
    assert status["complete"]
    return path


class TestJobSpec:
    def test_expansion_is_deterministic(self):
        first, second = expand_units(spec_for()), expand_units(spec_for())
        assert len(first) == len(second) == 6
        assert [dataclasses.asdict(u) for u in first] == \
               [dataclasses.asdict(u) for u in second]
        # 2 scenarios (uniform, gravity) × 3 units of 2 samples each.
        assert [u.num_samples for u in first] == [2] * 6
        assert [u.scenario_index for u in first] == [0, 0, 0, 1, 1, 1]
        assert [u.sample_offset for u in first] == [0, 2, 4] * 2
        assert first[0].config.traffic_model == "uniform"
        assert first[3].config.traffic_model == "gravity"

    def test_ragged_final_unit(self):
        units = expand_units(spec_for(samples_per_scenario=5, axes={}))
        assert [u.num_samples for u in units] == [2, 2, 1]

    def test_spec_round_trips_through_dict(self):
        spec = spec_for()
        rebuilt = DatasetJobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.fingerprint() == spec.fingerprint()
        # Older catalogs also record the shard encoding; it is not part of
        # the sweep.
        for payload in ("binary", "jsonl"):
            recorded = dict(spec.to_dict(), payload=payload)
            assert DatasetJobSpec.from_dict(recorded).fingerprint() == spec.fingerprint()
        with pytest.raises(TypeError):
            DatasetJobSpec(payload="binary")

    def test_invalid_axis_field_rejected(self):
        with pytest.raises(ValueError, match="not a sweepable"):
            spec_for(axes={"num_samples": [1, 2]})
        with pytest.raises(ValueError, match="no values"):
            spec_for(axes={"traffic_model": []})
        with pytest.raises(ValueError, match="both axes and base_config"):
            spec_for(axes={"backend": ["analytic"]},
                     base_config={"backend": "analytic"})
        with pytest.raises(ValueError, match="base_config"):
            spec_for(base_config={"not_a_field": 1})

    def test_resolve_topology(self):
        assert resolve_topology("geant2").num_nodes == 24
        assert resolve_topology("ring:7").num_nodes == 7
        # Random topologies derive from the job seed only: identical for
        # every unit and worker, different across job seeds.
        a = resolve_topology("random:9", job_seed=1)
        b = resolve_topology("random:9", job_seed=1)
        assert [l.capacity for l in a.links()] == [l.capacity for l in b.links()]
        with pytest.raises(ValueError, match="unknown topology"):
            resolve_topology("hypercube:4")
        with pytest.raises(ValueError, match="not an integer"):
            resolve_topology("ring:big")


class TestExecution:
    def test_unit_output_is_order_and_worker_independent(self, tmp_path,
                                                         reference_store):
        """Executing one unit standalone reproduces exactly that slice of
        the full run — the per-unit RNG derivation at work."""
        spec = spec_for()
        unit = expand_units(spec)[3]
        alone = str(tmp_path / "alone")
        os.makedirs(alone)
        record = execute_unit(spec, unit, alone)
        assert record["written_samples"] == unit.num_samples
        # Wrap the lone shard in a manifest so the reader can decode it.
        with open(os.path.join(alone, MANIFEST_NAME), "w") as handle:
            json.dump({"format_version": 3, "payload": "binary",
                       "total_samples": record["written_samples"],
                       "shards": [{"name": record["shard"],
                                   "num_samples": record["written_samples"]}]},
                      handle)
        full = store_contents(reference_store)
        assert store_contents(alone) == full[6:8]  # unit 3 = samples 6..7

    def test_multiprocess_run_matches_single_process(self, tmp_path,
                                                     reference_store):
        path = str(tmp_path / "workers2")
        status = run_job(spec_for(), path, workers=2)
        assert status["complete"]
        assert store_contents(path) == store_contents(reference_store)
        # Same catalog shape too: shards listed in unit order.
        assert [s["name"] for s in ShardedDatasetReader(path).shards] == \
               [f"unit-{i:06d}.npz" for i in range(6)]

    def test_normalizer_attached_on_completion(self, reference_store):
        reader = ShardedDatasetReader(reference_store)
        assert reader.normalizer is not None

    def test_sample_provenance_metadata(self, reference_store):
        samples = ShardedDatasetReader(reference_store).read_all()
        assert [s.metadata["unit_index"] for s in samples] == \
               [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        assert samples[0].metadata["traffic_model"] == "uniform"
        assert samples[-1].metadata["traffic_model"] == "gravity"
        assert samples[0].metadata["job_seed"] == 3

    def test_catalog_provenance(self, reference_store):
        status = job_status(reference_store)
        assert status["complete"]
        assert status["simulator_version"] == __version__
        with open(os.path.join(reference_store, MANIFEST_NAME)) as handle:
            catalog = json.load(handle)["catalog"]
        assert catalog["fingerprint"] == spec_for().fingerprint()
        unit = catalog["units"][3]
        assert unit["status"] == "done"
        assert unit["axes"] == {"traffic_model": "gravity"}
        assert unit["seed_path"] == [3, 3]
        assert unit["config"]["backend"] == "analytic"
        assert unit["generation_seconds"] > 0


class TestResume:
    def test_interrupted_run_resumes_only_missing_units(self, tmp_path,
                                                        reference_store):
        """The acceptance scenario: a killed run (simulated by a budgeted
        `limit`) leaves whole units; resume executes exactly the missing
        ones and the final store equals an uninterrupted run's."""
        path = str(tmp_path / "interrupted")
        partial = run_job(spec_for(), path, workers=1, limit=2)
        assert (partial["done_units"], partial["pending_units"]) == (2, 4)
        assert not partial["complete"]
        # The partial store already reads as a valid (smaller) dataset.
        assert store_contents(path) == store_contents(reference_store)[:4]

        executed = []
        final = run_job(spec_for(), path, workers=1, resume=True,
                        progress=lambda index, done, total: executed.append(index))
        assert executed == [2, 3, 4, 5]
        assert final["complete"]
        assert store_contents(path) == store_contents(reference_store)

    def test_deleted_shard_is_regenerated(self, tmp_path, reference_store):
        path = str(tmp_path / "damaged")
        run_job(spec_for(), path, workers=1)
        os.remove(os.path.join(path, "unit-000002.npz"))
        executed = []
        status = run_job(spec_for(), path, workers=1, resume=True,
                         progress=lambda index, done, total: executed.append(index))
        assert executed == [2]
        assert status["complete"]
        assert store_contents(path) == store_contents(reference_store)

    @pytest.mark.parametrize("payload", ["binary", "jsonl"])
    def test_store_with_a_payload_catalog_resumes(self, tmp_path, payload,
                                                  reference_store):
        """A store whose catalog records the shard encoding in its job spec
        (as every factory store did before format 3 became the only write
        format) resumes: only the missing units run, as npz shards."""
        path = str(tmp_path / payload)
        if payload == "jsonl":
            jsonl_factory_store(spec_for(), path, limit=2)
        else:
            run_job(spec_for(), path, workers=1, limit=2)
            record_payload_in_catalog(path, payload)
        executed = []
        final = run_job(spec_for(), path, workers=1, resume=True,
                        progress=lambda index, done, total: executed.append(index))
        assert executed == [2, 3, 4, 5]
        assert final["complete"]
        assert store_contents(path) == store_contents(reference_store)
        with open(os.path.join(path, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 3
        assert manifest["catalog"]["fingerprint"] == spec_for().fingerprint()
        extension = ".jsonl.gz" if payload == "jsonl" else ".npz"
        assert [s["name"] for s in manifest["shards"]] == \
               [f"unit-00000{i}{extension}" for i in range(2)] \
               + [f"unit-00000{i}.npz" for i in range(2, 6)]

    def test_resume_flag_required_and_spec_must_match(self, tmp_path):
        path = str(tmp_path / "guarded")
        run_job(spec_for(), path, workers=1, limit=1)
        with pytest.raises(ValueError, match="resume"):
            run_job(spec_for(), path, workers=1)
        with pytest.raises(ValueError, match="different job spec"):
            run_job(spec_for(seed=99), path, workers=1, resume=True)

    def test_failing_unit_is_retried_then_quarantined(self, tmp_path,
                                                      monkeypatch,
                                                      reference_store):
        import repro.datasets.factory as factory_module
        path = str(tmp_path / "flaky")
        real_execute = factory_module.execute_unit

        def broken_execute(spec, unit, store_path):
            if unit.index == 4:
                raise RuntimeError("injected unit failure")
            return real_execute(spec, unit, store_path)

        monkeypatch.setattr(factory_module, "execute_unit", broken_execute)
        # A persistently failing unit no longer aborts the job: the run
        # completes, the unit is quarantined with its traceback, and every
        # execution (1 initial + max_retries) is counted.
        status = run_job(spec_for(), path, workers=1, max_retries=1)
        assert status["quarantined_units"] == [4]
        assert status["failed_units"] == [4]  # legacy alias
        assert not status["complete"]
        assert status["done_units"] == 5
        with open(os.path.join(path, MANIFEST_NAME)) as handle:
            quarantined = json.load(handle)["catalog"]["units"][4]
        assert quarantined["status"] == "quarantined"
        assert "injected unit failure" in quarantined["error"]
        assert quarantined["attempts"] == 2  # 1 + max_retries

        monkeypatch.setattr(factory_module, "execute_unit", real_execute)
        executed = []
        final = run_job(spec_for(), path, workers=1, resume=True,
                        progress=lambda index, done, total: executed.append(index))
        assert executed == [4]
        assert final["complete"]
        assert final["quarantined_units"] == []
        # 5 clean units once each, unit 4 twice in run one + once on resume.
        assert final["total_attempts"] == 5 + 2 + 1
        assert store_contents(path) == store_contents(reference_store)


class TestMerge:
    def test_merge_preserves_samples_and_provenance(self, tmp_path,
                                                    reference_store):
        other = str(tmp_path / "other-seed")
        run_job(spec_for(seed=17), other, workers=1)
        merged = str(tmp_path / "merged")
        status = merge_catalogs([reference_store, other], merged)
        assert status["complete"]
        assert status["samples_written"] == 24
        assert store_contents(merged) == (store_contents(reference_store)
                                          + store_contents(other))
        reader = ShardedDatasetReader(merged)
        assert reader.normalizer is not None
        with open(os.path.join(merged, MANIFEST_NAME)) as handle:
            units = json.load(handle)["catalog"]["units"]
        assert len(units) == 12
        assert units[7]["source"] == other
        assert units[7]["source_index"] == 1
        assert units[7]["seed_path"] == [17, 1]

    def test_merge_reads_back_a_jsonl_era_store(self, tmp_path, reference_store):
        older = jsonl_factory_store(spec_for(seed=17), str(tmp_path / "older"))
        merged = str(tmp_path / "merged")
        status = merge_catalogs([older, reference_store], merged)
        assert status["complete"]
        assert store_contents(merged) == (store_contents(older)
                                          + store_contents(reference_store))
        with open(os.path.join(merged, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 3
        assert [s["name"] for s in manifest["shards"]] == \
               [f"unit-{i:06d}.jsonl.gz" for i in range(6)] \
               + [f"unit-{i:06d}.npz" for i in range(6, 12)]

    def test_merge_refuses_existing_store_and_plain_stores(self, tmp_path,
                                                           reference_store):
        with pytest.raises(ValueError, match="fresh directory"):
            merge_catalogs([reference_store], reference_store)
        with pytest.raises(FileNotFoundError):
            merge_catalogs([str(tmp_path / "missing")], str(tmp_path / "out"))


class TestCLI:
    def test_generate_status_resume_train_flow(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["generate", "--topology", "nsfnet", "--samples", "6",
                     "--unit-size", "2", "--workers", "2", "--limit-units", "2",
                     "--seed", "5", "--output", store]) == 0
        assert main(["status", "--dataset", store]) == 0
        out = capsys.readouterr().out
        assert "units done/total    : 2/3" in out
        assert "re-run with --resume" in out
        assert main(["generate", "--topology", "nsfnet", "--samples", "6",
                     "--unit-size", "2", "--resume",
                     "--seed", "5", "--output", store]) == 0
        assert main(["status", "--dataset", store]) == 0
        out = capsys.readouterr().out
        assert "(complete)" in out
        # The finished factory store trains like any dataset.
        weights = str(tmp_path / "weights")
        assert main(["train", "--dataset", store, "--model", "original",
                     "--epochs", "1", "--state-dim", "4", "--iterations", "2",
                     "--output", weights]) == 0

    def test_status_rejects_non_factory_paths(self, tmp_path,
                                               reference_store):
        with pytest.raises(FileNotFoundError):
            job_status(str(tmp_path / "nowhere"))
        # A plain sharded store (no catalog) is neither reportable nor a
        # valid factory output directory.
        from repro.datasets.sharded import ShardedDatasetWriter
        plain = str(tmp_path / "plain")
        with ShardedDatasetWriter(plain, shard_size=4) as writer:
            for sample in ShardedDatasetReader(reference_store):
                writer.write(sample)
        with pytest.raises(ValueError, match="without a factory catalog"):
            job_status(plain)
        with pytest.raises(ValueError, match="refusing to overwrite"):
            run_job(spec_for(), plain, workers=1)
        failed_free = format_job_status(job_status(reference_store))
        assert "FAILED" not in failed_free


class TestDatasetConfigValidation:
    """Satellite: zero/negative values that used to pass silently must now
    raise errors naming the offending field."""

    @pytest.mark.parametrize("field,value", [
        ("noise_std", -0.1),
        ("simulation_duration", 0.0),
        ("simulation_duration", -1.0),
        ("mean_packet_size_bits", 0.0),
        ("mean_packet_size_bits", -8000.0),
        ("default_queue_size", 0),
        ("small_queue_size", -1),
    ])
    def test_invalid_values_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatasetConfig(**{field: value})

    def test_valid_boundaries_still_accepted(self):
        DatasetConfig(noise_std=0.0, simulation_duration=0.1,
                      mean_packet_size_bits=1.0,
                      default_queue_size=1, small_queue_size=1)


class TestSimulatorCostMetadata:
    """Satellite: simulation-backed samples record their generation cost."""

    @staticmethod
    def _spec(**overrides):
        parameters = dict(topologies=("ring:4",), samples_per_scenario=1,
                          unit_size=1, seed=1,
                          base_config={"backend": "simulation",
                                       "simulation_duration": 0.2})
        parameters.update(overrides)
        return DatasetJobSpec(**parameters)

    @staticmethod
    def _units(path):
        with open(os.path.join(path, MANIFEST_NAME)) as handle:
            return json.load(handle)["catalog"]["units"]

    def test_events_and_wall_time_recorded(self, tmp_path):
        path = str(tmp_path / "sim")
        status = run_job(self._spec(), path, workers=1)
        assert status["events_processed"] > 0
        sample = next(iter(ShardedDatasetReader(path)))
        assert sample.metadata["events_processed"] > 0
        assert sample.metadata["generator"] == "packet-simulator"
        # The catalog aggregates the same cost per unit, and keeps the wall
        # time the sample does not carry.
        unit = self._units(path)[0]
        assert unit["events_processed"] == sample.metadata["events_processed"]
        assert unit["sim_wall_seconds"] > 0
        assert "sim_wall_seconds" not in sample.metadata

    def test_simulated_shards_are_byte_identical_across_runs(self, tmp_path):
        """Wall time varies between runs; shard bytes must not, whatever
        the worker count."""
        spec = self._spec(samples_per_scenario=2)
        digests = []
        for name, workers in (("first", 1), ("again", 1), ("two-workers", 2)):
            path = str(tmp_path / name)
            assert run_job(spec, path, workers=workers)["complete"]
            digests.append([unit["sha256"] for unit in self._units(path)])
        assert len(digests[0]) == 2
        assert digests[0] == digests[1] == digests[2]
