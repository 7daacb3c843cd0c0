"""Artifact integrity: checksummed shards, corruption refusal, targeted
regeneration on resume, and crash consistency of the shard commit
protocol (a writer killed between finishing the bytes and the rename must
leave no partial shard under the final name)."""

import json
import os
import struct
import zipfile

import pytest

from repro.datasets import DatasetJobSpec, ShardedDatasetReader, job_status, run_job
from repro.datasets.sharded import MANIFEST_NAME, file_sha256, is_sharded_store
from repro.supervision import RestartBudgetExceeded
from repro.testing import faults
from repro.testing.faults import ENV_PLAN
from tests.datasets.legacy_formats import jsonl_factory_store


def small_spec(**overrides) -> DatasetJobSpec:
    parameters = dict(topologies=("ring:4",), samples_per_scenario=6,
                      unit_size=2, seed=7,
                      base_config={"small_queue_fraction": 0.5})
    parameters.update(overrides)
    return DatasetJobSpec(**parameters)


def store_contents(path):
    return [json.dumps(sample.to_dict(), sort_keys=True)
            for sample in ShardedDatasetReader(path)]


def shard_digests(path):
    """name -> sha256 of the actual shard bytes on disk, in manifest order."""
    with open(os.path.join(path, MANIFEST_NAME)) as handle:
        shards = json.load(handle)["shards"]
    return {s["name"]: file_sha256(os.path.join(path, s["name"]))
            for s in shards}


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("integrity") / "reference")
    assert run_job(small_spec(), path, workers=1)["complete"]
    return path


@pytest.mark.parametrize("payload,shard_name", [
    ("binary", "unit-000001.npz"),
    ("jsonl", "unit-000001.jsonl.gz"),
])
def test_reader_refuses_a_corrupted_shard_naming_it(tmp_path, payload,
                                                    shard_name):
    path = str(tmp_path / payload)
    if payload == "jsonl":  # a store of the JSONL era: read, never written
        jsonl_factory_store(small_spec(), path)
    else:
        assert run_job(small_spec(), path, workers=1)["complete"]
    assert store_contents(path)  # pristine store reads (and verifies) fine

    faults._corrupt_file(os.path.join(path, shard_name))
    reader = ShardedDatasetReader(path)
    with pytest.raises(ValueError, match="failed checksum") as excinfo:
        list(reader)
    message = str(excinfo.value)
    assert shard_name in message
    assert "sha256" in message and "regenerate" in message


def test_verification_is_per_reader_and_once_per_shard(reference_store):
    reader = ShardedDatasetReader(reference_store)
    assert reader.verify_checksums
    list(reader)
    verified_once = set(reader._verified_shards)
    assert len(verified_once) == 3
    list(reader)  # second pass re-uses the verified set, no re-hash
    assert reader._verified_shards == verified_once
    relaxed = ShardedDatasetReader(reference_store, verify_checksums=False)
    list(relaxed)
    assert not relaxed._verified_shards


def _flip_member_byte(shard_path: str, member: str) -> None:
    """Flip the last byte of ``member``'s data inside an npz shard."""
    with zipfile.ZipFile(shard_path) as archive:
        info = archive.getinfo(member)
    with open(shard_path, "r+b") as handle:
        handle.seek(info.header_offset + 26)
        name_length, extra_length = struct.unpack("<HH", handle.read(4))
        handle.seek(info.header_offset + 30 + name_length + extra_length
                    + info.file_size - 1)
        byte = handle.read(1)[0]
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte ^ 0xFF]))


@pytest.mark.parametrize("verify", [True, False],
                         ids=["after-verified-pass", "unverified"])
def test_member_corrupted_between_passes_is_refused(tmp_path, verify):
    """Each pass re-reads the shard's bytes, but only the reader's first
    touch hashes them: a member rotting after that (or under
    ``verify_checksums=False``) must fail its CRC-32 on the next pass, with
    an error naming the shard and the member."""
    path = str(tmp_path / "store")
    assert run_job(small_spec(), path, workers=1)["complete"]
    reader = ShardedDatasetReader(path, verify_checksums=verify)
    assert len(list(reader)) == 6
    _flip_member_byte(os.path.join(path, "unit-000001.npz"), "s00001.delays.npy")
    with pytest.raises(ValueError, match="CRC-32") as excinfo:
        list(reader)
    message = str(excinfo.value)
    assert "unit-000001.npz" in message and "s00001.delays.npy" in message


def test_resume_sets_aside_corrupt_shard_and_regenerates_exactly_it(
        tmp_path, reference_store):
    """The acceptance criterion: flip bytes in one committed shard; resume
    must re-execute exactly that unit (quarantining the rotten bytes as
    `.corrupt`) and restore a store equal to the fault-free one."""
    path = str(tmp_path / "store")
    run_job(small_spec(), path, workers=1)
    faults._corrupt_file(os.path.join(path, "unit-000001.npz"))

    executed = []
    status = run_job(small_spec(), path, workers=1, resume=True,
                     progress=lambda index, done, total: executed.append(index))
    assert executed == [1]
    assert status["complete"]
    assert os.path.isfile(os.path.join(path, "unit-000001.npz.corrupt"))
    assert store_contents(path) == store_contents(reference_store)
    assert shard_digests(path) == shard_digests(reference_store)
    # The corruption round trip is visible in the catalog's attempt count.
    assert status["total_attempts"] == 3 + 1


def test_crash_between_shard_bytes_and_rename_leaves_no_partial_shard(
        tmp_path, monkeypatch, reference_store):
    """Kill the factory worker at `sharded.shard.pre_replace` — after the
    unit's bytes are fully written to the `.tmp` name, before the rename.
    With a zero restart budget the run dies; the store must hold no file
    under the final shard name, stay resumable, and resume to a store
    byte-identical to an uninterrupted run's."""
    monkeypatch.setenv(ENV_PLAN, json.dumps(
        [{"site": "sharded.shard.pre_replace", "kind": "die",
          "match": {"name": "unit-000001.npz"}}]))
    path = str(tmp_path / "store")
    with pytest.raises(RestartBudgetExceeded):
        run_job(small_spec(), path, workers=2, max_restarts=0)

    assert not os.path.exists(os.path.join(path, "unit-000001.npz"))
    assert is_sharded_store(path)  # catalog flushed before the raise
    crashed = job_status(path)
    assert not crashed["complete"]

    monkeypatch.delenv(ENV_PLAN)
    final = run_job(small_spec(), path, workers=1, resume=True)
    assert final["complete"]
    assert shard_digests(path) == shard_digests(reference_store)
    assert store_contents(path) == store_contents(reference_store)
