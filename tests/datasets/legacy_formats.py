"""Writers for the dataset formats the package still reads but no longer writes.

* format 1 — one gzipped JSON blob (``.json.gz``) holding every sample;
* format 2 — a sharded store of gzipped-JSONL shards (``.jsonl.gz``), as
  plain stores and as dataset-factory stores of that era;
* format-3 factory stores whose catalog records the shard encoding in its
  job spec (``"payload": "binary"``), as they were written before format 3
  became the only write format.

Each writer produces the bytes the package wrote for the same samples when
it still wrote these formats, so the tests can hold the read, resume and
merge paths to stores that exist on disk today.
"""

from __future__ import annotations

import gzip
import io
import json
import os

from repro.datasets import ShardedDatasetReader, run_job
from repro.datasets.sharded import MANIFEST_NAME, file_sha256


def save_json_blob(samples, path, normalizer=None, metadata=None) -> str:
    """Stream samples into a format-1 ``.json.gz`` blob; returns its path."""
    if not path.endswith(".json.gz"):
        path = path + ".json.gz"
    temporary = path + ".tmp"
    with gzip.open(temporary, "wt", encoding="utf-8") as handle:
        handle.write('{"format_version": 1, "metadata": ')
        json.dump(metadata or {}, handle)
        handle.write(', "normalizer": ')
        json.dump(normalizer.to_dict() if normalizer is not None else None, handle)
        handle.write(', "samples": [')
        for index, sample in enumerate(samples):
            if index:
                handle.write(", ")
            json.dump(sample.to_dict(), handle)
        handle.write("]}")
    os.replace(temporary, path)
    return path


def write_jsonl_shard(directory, name, samples) -> dict:
    """Write one gzipped-JSONL shard (one Sample dict per line) atomically.

    The gzip header carries mtime 0, so the bytes depend only on the
    samples and the shard name.  Returns the shard's manifest record.
    """
    temporary = os.path.join(directory, name + ".tmp")
    count = 0
    with open(temporary, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as compressed, \
            io.TextIOWrapper(compressed, encoding="utf-8") as handle:
        for sample in samples:
            json.dump(sample.to_dict(), handle)
            handle.write("\n")
            count += 1
    digest = file_sha256(temporary)
    os.replace(temporary, os.path.join(directory, name))
    return {"name": name, "num_samples": count, "sha256": digest}


def _write_manifest(path, manifest) -> None:
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


def write_jsonl_store(samples, path, shard_size=256, normalizer=None,
                      metadata=None) -> str:
    """Write a format-2 store of ``shard_size``-sample JSONL shards."""
    os.makedirs(path, exist_ok=True)
    samples = list(samples)
    shards = [write_jsonl_shard(path, f"shard-{index:05d}.jsonl.gz",
                                samples[start:start + shard_size])
              for index, start in enumerate(range(0, len(samples), shard_size))]
    _write_manifest(path, {
        "format_version": 2,
        "payload": "jsonl",
        "metadata": dict(metadata) if metadata else {},
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "total_samples": len(samples),
        "shards": shards,
    })
    return path


def record_payload_in_catalog(path, payload="binary") -> None:
    """Rewrite a factory store's manifest the way it was written when the
    job spec carried the shard encoding: a ``payload`` key in the manifest
    and in the catalog's job, whose fingerprint includes it."""
    with open(os.path.join(path, MANIFEST_NAME), encoding="utf-8") as handle:
        manifest = json.load(handle)
    catalog = manifest["catalog"]
    catalog["job"]["payload"] = payload
    catalog["fingerprint"] = json.dumps(catalog["job"], sort_keys=True)
    manifest["payload"] = payload
    manifest["format_version"] = 2 if payload == "jsonl" else 3
    _write_manifest(path, manifest)


def jsonl_factory_store(spec, path, **run_job_options) -> str:
    """A dataset-factory store whose units are format-2 JSONL shards.

    Runs ``spec`` (its units are written as npz shards), then re-encodes
    every done unit as ``unit-NNNNNN.jsonl.gz`` and records the catalog as
    a JSONL job spec did.
    """
    run_job(spec, path, workers=1, **run_job_options)
    samples = iter(ShardedDatasetReader(path))
    with open(os.path.join(path, MANIFEST_NAME), encoding="utf-8") as handle:
        manifest = json.load(handle)
    by_name = {}
    for state in manifest["catalog"]["units"]:
        if state["status"] != "done":
            continue
        unit_samples = [next(samples) for _ in range(state["written_samples"])]
        os.remove(os.path.join(path, state["shard"]))
        record = write_jsonl_shard(path, f"unit-{state['index']:06d}.jsonl.gz",
                                   unit_samples)
        by_name[state["shard"]] = record
        state.update(shard=record["name"], sha256=record["sha256"])
    manifest["shards"] = [by_name[shard["name"]] for shard in manifest["shards"]]
    _write_manifest(path, manifest)
    record_payload_in_catalog(path, "jsonl")
    return path
