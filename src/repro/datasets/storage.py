"""Persisting datasets (samples plus their normaliser) to disk.

:func:`save_dataset` writes one format: a format-3 sharded store directory
(binary npz shards plus a manifest, see :mod:`repro.datasets.sharded`).
:func:`load_dataset` reads it and both older formats, which nothing here
writes any more:

* **format 1** — one gzipped JSON file (``.json.gz``) holding every sample;
* **format 2** — a sharded store of gzipped-JSONL shards.
"""

from __future__ import annotations

import gzip
import json
import os
from typing import Iterable, List, Optional, Tuple

from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sample import Sample
from repro.datasets.sharded import (
    ShardedDatasetReader,
    ShardedDatasetWriter,
    is_sharded_store,
    shard_size_for,
)

__all__ = ["save_dataset", "load_dataset"]


def save_dataset(samples: Iterable[Sample], path: str,
                 normalizer: Optional[FeatureNormalizer] = None,
                 metadata: Optional[dict] = None,
                 shards: int = 1) -> str:
    """Write samples (and optionally their normaliser) as a store at ``path``.

    The samples are spread over ``shards`` shard files of a sharded store
    directory (see :class:`~repro.datasets.sharded.ShardedDatasetWriter`),
    which :func:`load_dataset` and the streaming training path both read.
    The manifest is written last, so a failed save never leaves a store
    that reads back truncated, and a rewrite keeps the previous store
    readable until it commits.

    Returns the path written.
    """
    # Spreading over exactly N shards needs the sample count up front;
    # sized inputs (lists, readers) are used as-is, only unsized iterators
    # are buffered.  For a truly unbounded stream drive a
    # ShardedDatasetWriter with a fixed shard_size directly instead.
    try:
        count = len(samples)
    except TypeError:
        samples = list(samples)
        count = len(samples)
    with ShardedDatasetWriter(path, shard_size=shard_size_for(count, shards),
                              normalizer=normalizer,
                              metadata=metadata) as writer:
        for sample in samples:
            writer.write(sample)
    return writer.path


def _resolve_dataset_path(path: str) -> str:
    """The existing dataset path: the exact path first, then ``.json.gz``.

    Checking the given path *first* means a file deliberately named without
    the suffix loads fine, and a missing dataset produces an error naming
    every candidate that was tried rather than a confusing message about a
    suffixed path the user never typed.  Only a loadable exact path — a
    file, or a directory that really is a sharded store — takes precedence:
    a manifest-less directory (e.g. the residue of an aborted sharded
    write) must not shadow a good ``<path>.json.gz`` next to it.
    """
    if os.path.isfile(path) or is_sharded_store(path):
        return path
    if not path.endswith(".json.gz"):
        suffixed = path + ".json.gz"
        if os.path.isfile(suffixed):
            return suffixed
        if os.path.isdir(path):
            raise FileNotFoundError(
                f"'{path}' is a directory but holds no sharded-store manifest "
                f"(and no '{suffixed}' exists)")
        raise FileNotFoundError(
            f"no dataset at '{path}' (also tried '{suffixed}')")
    raise FileNotFoundError(f"no dataset file at '{path}'")


def load_dataset(path: str) -> Tuple[List[Sample], Optional[FeatureNormalizer], dict]:
    """Load a dataset in any of the three formats.

    Returns ``(samples, normalizer_or_None, metadata)``.  Sharded stores
    are materialised in full here — for out-of-core training iterate a
    :class:`~repro.datasets.sharded.ShardedDatasetReader` (or pass
    ``dataset_path=`` to ``RouteNetTrainer.fit``) instead.
    """
    path = _resolve_dataset_path(path)
    if os.path.isdir(path):
        reader = ShardedDatasetReader(path)
        return reader.read_all(), reader.normalizer, dict(reader.metadata)
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("format_version", 1)
    if version != 1:
        raise ValueError(
            f"unsupported dataset format_version {version!r} in '{path}': "
            f"this build reads format 1 (single .json.gz blob), format 2 "
            f"(sharded store, gzipped-JSONL shards) and format 3 (sharded "
            f"store, binary npz shards)")
    samples = [Sample.from_dict(entry) for entry in payload["samples"]]
    normalizer = (FeatureNormalizer.from_dict(payload["normalizer"])
                  if payload.get("normalizer") else None)
    return samples, normalizer, payload.get("metadata", {})
