"""Sharded on-disk dataset store: binary npz shards plus a manifest.

Format 3 of the dataset storage layer, and the only format this package
writes.  A sharded store is a *directory*::

    store/
      manifest.json          <- format_version 3, shard index, normalizer
      shard-00000.npz        <- raw index/float arrays per sample
      shard-00001.npz
      ...

Every sample is stored as a handful of typed arrays (routing as offsets
into one flat node-id vector, traffic as the dense float64 matrix, targets
verbatim) plus one small JSON string for the non-array attributes, so
streamed epochs read samples with **zero JSON parsing of numeric data**,
and round trips are bit-exact.  ``np.savez`` stores the arrays
uncompressed, so the reader copies each one straight out of the shard's
bytes (:class:`_NpzShard`) instead of going through ``np.load``, whose
per-member zip and header parsing cost more than the rest of a sample's
decode.

Stores written before format 3 still read: a format-2 manifest lists
gzipped-JSONL shards (``.jsonl.gz``, one JSON-encoded Sample dict per
line), and :class:`ShardedDatasetReader` picks the decoder per shard file
by its extension, so a store may hold both kinds (a factory store of the
JSONL era topped up or merged with format-3 units).  Format 1 is the
single ``.json.gz`` blob that :func:`repro.datasets.storage.load_dataset`
reads.

Samples are written **incrementally** (rolling over to a new shard every
``shard_size`` samples), so large datasets can be persisted without ever
materialising the sample list — and read back the same way:
:class:`ShardedDatasetReader` is an iterable that decodes one sample at a
time, which is what the streaming training pipeline
(:mod:`repro.datasets.prefetch`) consumes to run epochs in O(window)
memory instead of O(dataset).

Crash safety mirrors the trainer's checkpointing: every shard is written to
a ``.tmp`` name and :func:`os.replace`-d into place when complete, and the
manifest — written last — is the commit point.  A killed writer leaves at
worst orphaned shard files and no *new* manifest, never a store that reads
back truncated; rewriting an existing store keeps the old generation fully
readable until the new manifest lands (rewrite shards carry a unique
``shard-<token>-NNNNN`` name prefix so the generations cannot collide, and
the superseded files are deleted only after the commit).

Integrity goes beyond crash atomicity: every shard's SHA-256 is computed
over the finished ``.tmp`` bytes and stamped into its manifest record, and
:class:`ShardedDatasetReader` re-hashes each shard the first time it reads
it (per reader instance), refusing silently rotten bytes with an error
naming the file and both digests.  Shard bytes are deterministic functions
of their samples (npz archives carry no timestamps), which is what lets
the fault-tolerance tests assert byte-identical stores across
crash/recover runs.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
import os
import shutil
import struct
import zipfile
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from numpy.lib import format as npy_format

from repro.testing.faults import fault_point

from repro.datasets.normalization import FeatureNormalizer
from repro.datasets.sample import Sample
from repro.routing.scheme import RoutingScheme
from repro.topology.graph import Topology
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "MANIFEST_NAME",
    "ShardedDatasetWriter",
    "ShardedDatasetReader",
    "attach_normalizer",
    "is_sharded_store",
    "shard_size_for",
    "SHARD_EXTENSION",
    "write_shard",
    "file_sha256",
]

MANIFEST_NAME = "manifest.json"

#: File extension of a format-3 shard; the reader decodes any other shard
#: (``.jsonl.gz``) as format-2 JSONL.
SHARD_EXTENSION = ".npz"

SUPPORTED_FORMAT_VERSIONS = (2, 3)


def _encode_sample(sample: Sample) -> Tuple[dict, str]:
    """Encode one sample as (typed arrays, JSON string of the rest).

    The arrays carry everything numeric — node/link structure, routing as
    one flat node vector plus per-path offsets, the dense traffic matrix
    and the target vectors — in their natural dtypes; the JSON string keeps
    only the small non-array attributes (topology name, node labels and
    scheduling disciplines, sample metadata).
    """
    topology = sample.topology
    nodes = topology.nodes()
    node_specs = [topology.node_spec(node) for node in nodes]
    links = topology.links()
    node_paths = sample.routing.node_paths()
    arrays = {
        "node_ids": np.asarray(nodes, dtype=np.int64),
        "queue_sizes": np.asarray([spec.queue_size for spec in node_specs],
                                  dtype=np.int64),
        "link_endpoints": np.asarray(
            [[link.source, link.target] for link in links],
            dtype=np.int64).reshape(-1, 2),
        "link_capacities": np.asarray([link.capacity for link in links],
                                      dtype=np.float64),
        "link_delays": np.asarray([link.propagation_delay for link in links],
                                  dtype=np.float64),
        "route_pairs": np.asarray(sample.routing.pairs(),
                                  dtype=np.int64).reshape(-1, 2),
        "route_offsets": np.cumsum(
            [0] + [len(path) for path in node_paths], dtype=np.int64),
        "route_nodes": (np.concatenate([np.asarray(p, dtype=np.int64)
                                        for p in node_paths])
                        if node_paths else np.zeros(0, dtype=np.int64)),
        "traffic": sample.traffic.matrix,
        "delays": sample.delays,
    }
    if sample.jitters is not None:
        arrays["jitters"] = sample.jitters
    if sample.losses is not None:
        arrays["losses"] = sample.losses
    meta = json.dumps({
        "name": topology.name,
        "labels": [spec.label for spec in node_specs],
        "scheduling": [spec.scheduling for spec in node_specs],
        "metadata": dict(sample.metadata),
    })
    return arrays, meta


def _decode_sample(get, available, meta_json: str) -> Sample:
    """Rebuild a :class:`Sample` from :func:`_encode_sample` arrays.

    ``get(field)`` returns the named array, ``available`` is the set of
    fields present (the optional target vectors may be absent).  The routing
    scheme is rebuilt without per-hop re-validation: the arrays were encoded
    from a scheme that was already validated against this very topology, so
    re-walking every hop on each streamed epoch would only re-prove what the
    writer established once.
    """
    meta = json.loads(meta_json)
    topology = Topology(name=meta.get("name", "topology"))
    # ``tolist`` turns each array into Python numbers in one call, instead
    # of one NumPy scalar per element.
    for node_id, queue_size, label, scheduling in zip(
            get("node_ids").tolist(), get("queue_sizes").tolist(),
            meta["labels"], meta["scheduling"]):
        topology.add_node(node_id, queue_size=queue_size,
                          label=label, scheduling=scheduling)
    for (source, target), capacity, delay in zip(
            get("link_endpoints").tolist(), get("link_capacities").tolist(),
            get("link_delays").tolist()):
        topology.add_link(source, target, capacity=capacity,
                          propagation_delay=delay)
    offsets = get("route_offsets").tolist()
    route_nodes = get("route_nodes").tolist()
    paths = {(source, destination): route_nodes[start:stop]
             for (source, destination), start, stop
             in zip(get("route_pairs").tolist(), offsets, offsets[1:])}
    return Sample(
        topology=topology,
        routing=RoutingScheme(topology, paths, validate=False),
        traffic=TrafficMatrix(get("traffic")),
        delays=get("delays"),
        jitters=get("jitters") if "jitters" in available else None,
        losses=get("losses") if "losses" in available else None,
        metadata=meta.get("metadata", {}),
    )


class _NpzShard:
    """The samples of one format-3 shard, decoded straight from its bytes.

    ``np.savez`` stores its members uncompressed, so every array is a
    slice of the shard's bytes.  The zip directory is indexed and the
    member names are grouped by sample once per shard.  Each member's
    CRC-32 is checked, as :mod:`zipfile` does, and each distinct npy
    header is parsed once per shard with NumPy's public header readers (a
    GEANT2 shard has 9 distinct headers among its 289 members).
    Compressed members and object dtypes are refused, as
    ``np.load(allow_pickle=False)`` refuses the latter, and every array is
    copied out of the bytes.
    """

    def __init__(self, blob: bytes, path: str) -> None:
        self._blob = memoryview(blob)
        self._path = path
        #: Parsed npy headers: header bytes -> (shape, fortran order, dtype).
        self._headers: Dict[bytes, Tuple[tuple, bool, np.dtype]] = {}
        try:
            with zipfile.ZipFile(io.BytesIO(blob)) as archive:
                members = archive.infolist()
        except zipfile.BadZipFile as error:
            raise ValueError(f"shard '{path}' is not a readable npz archive: "
                             f"{error}") from error
        self._members = {info.filename: info for info in members}
        #: Sample prefix (``s00000``) -> {field: member name}.
        self._samples: Dict[str, Dict[str, str]] = {}
        for name in self._members:
            prefix, dot, field = name[:-len(".npy")].partition(".")
            if dot:
                self._samples.setdefault(prefix, {})[field] = name

    def _fail(self, member: str, problem: str) -> ValueError:
        return ValueError(f"shard '{self._path}' member '{member}' {problem}")

    def read(self, member: str) -> np.ndarray:
        """A private copy of the array stored under ``member``."""
        info = self._members.get(member)
        if info is None:
            raise self._fail(member, "is missing")
        if info.compress_type != zipfile.ZIP_STORED:
            raise self._fail(member, "is compressed; format-3 shards store "
                             "their arrays uncompressed")
        # The local header's own name and extra lengths locate the data.
        name_length, extra_length = struct.unpack_from(
            "<HH", self._blob, info.header_offset + 26)
        start = info.header_offset + 30 + name_length + extra_length
        data = self._blob[start:start + info.file_size]
        if len(data) != info.file_size or zlib.crc32(data) != info.CRC:
            raise self._fail(member, "failed its CRC-32 check (corrupted "
                             "shard bytes)")
        # Magic, version, then a 2-byte (version 1) or 4-byte header length.
        length_bytes = 2 if data[6:7] == b"\x01" else 4
        header_end = 8 + length_bytes + int.from_bytes(
            data[8:8 + length_bytes], "little")
        header = bytes(data[:header_end])
        parsed = self._headers.get(header)
        if parsed is None:
            parsed = self._headers[header] = self._parse_header(member, header)
        shape, fortran_order, dtype = parsed
        count = math.prod(shape)
        if len(data) != header_end + count * dtype.itemsize:
            raise self._fail(member, "holds fewer or more bytes than its "
                             "header declares")
        flat = np.frombuffer(data, dtype=dtype, count=count, offset=header_end)
        return flat.reshape(shape, order="F" if fortran_order else "C").copy(order="K")

    def _parse_header(self, member: str, header: bytes) -> Tuple[tuple, bool, np.dtype]:
        handle = io.BytesIO(header)
        try:
            version = npy_format.read_magic(handle)
            if version == (1, 0):
                parsed = npy_format.read_array_header_1_0(handle)
            elif version == (2, 0):
                parsed = npy_format.read_array_header_2_0(handle)
            else:
                raise ValueError(f"npy format version {version} is not supported")
        except ValueError as error:
            raise self._fail(member, f"has an unreadable npy header: {error}") from error
        if parsed[2].hasobject:
            raise self._fail(member, "holds an object array, which cannot be "
                             "read without pickle")
        return parsed

    def samples(self):
        """Decode the shard's samples one at a time; returns their count.

        Only one sample's arrays are live beside the shard's bytes.
        """
        metas = self.read("meta.npy")
        for i in range(len(metas)):
            arrays = {field: self.read(member) for field, member
                      in self._samples.get(f"s{i:05d}", {}).items()}
            yield _decode_sample(arrays.__getitem__, arrays, str(metas[i]))
            del arrays
        return len(metas)


def file_sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes (streamed, constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_encoded_shard(directory: str, name: str,
                         encoded: List[Tuple[dict, str]]) -> dict:
    """Atomically write one npz shard from encoded samples.

    One npz archive per shard: sample ``i``'s arrays live under the key
    prefix ``s{i:05d}.`` and the per-sample JSON strings stack into one
    unicode "meta" array (also the sample count).  The archive is written
    to a ``.tmp`` name, hashed, and :func:`os.replace`-d into place, so a
    killed writer never leaves a partially written shard under the final
    name; the :func:`fault_point` lets the chaos suite kill the writer
    *between* finishing the bytes and the rename — the window where crash
    atomicity is earned.  Returns the shard's manifest record.
    """
    temporary = os.path.join(directory, name + ".tmp")
    archive = {}
    metas = []
    for i, (arrays, meta) in enumerate(encoded):
        prefix = f"s{i:05d}."
        for key, value in arrays.items():
            archive[prefix + key] = value
        metas.append(meta)
    archive["meta"] = np.array(metas)
    with open(temporary, "wb") as handle:
        np.savez(handle, **archive)
    digest = file_sha256(temporary)
    fault_point("sharded.shard.pre_replace", name=name)
    os.replace(temporary, os.path.join(directory, name))
    return {"name": name, "num_samples": len(encoded), "sha256": digest}


def write_shard(directory: str, name: str, samples) -> dict:
    """Write one complete, self-contained shard file atomically.

    The dataset factory's shard-write kernel: its worker processes each
    commit one whole work unit as one shard (:class:`ShardedDatasetWriter`
    rolls its shards through the same encoded-shard writer).  The file
    appears under ``directory/name`` only when fully written (temp +
    ``os.replace``), so concurrent writers of *different* names never
    interfere and a killed writer leaves at worst a ``.tmp`` residue.

    Returns the shard's manifest record
    ``{"name": ..., "num_samples": ..., "sha256": ...}``.  ``name`` must
    end in :data:`SHARD_EXTENSION` — the reader dispatches its decoder on
    the extension.
    """
    if not name.endswith(SHARD_EXTENSION):
        raise ValueError(f"shard name '{name}' must end in '{SHARD_EXTENSION}'")
    return _write_encoded_shard(directory, name,
                                [_encode_sample(s) for s in samples])


def is_sharded_store(path: str) -> bool:
    """True when ``path`` is a directory holding a sharded-store manifest."""
    return os.path.isdir(path) and os.path.isfile(os.path.join(path, MANIFEST_NAME))


def _write_manifest(path: str, manifest: dict) -> None:
    """Atomically (re)write the manifest — the store's commit point.

    The temp name carries the writer's pid: concurrent ``--resume`` runs
    committing the same store (coordinated per *unit* by claim files, but
    free to interleave manifest commits) must not rename each other's
    half-written temp file out from under the replace."""
    target = os.path.join(path, MANIFEST_NAME)
    temporary = f"{target}.{os.getpid()}.tmp"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    os.replace(temporary, target)


class ShardedDatasetWriter:
    """Write samples incrementally into a sharded dataset store.

    Parameters
    ----------
    path:
        Directory of the store (created if missing).  Re-writing an
        existing store is **atomic at the manifest**: the new generation's
        shards are written under fresh (collision-free) names while the old
        manifest — and every shard it references — stays untouched, so
        readers keep seeing the previous dataset until :meth:`close`
        replaces the manifest; only then are the superseded shard files
        deleted.  A rewrite killed at any point leaves the old store fully
        readable.
    shard_size:
        Samples per shard (the last shard may be smaller).
    normalizer / metadata:
        Stored in the manifest.  The normaliser can also be attached after
        the fact with :meth:`set_normalizer` (before :meth:`close`) or
        :func:`attach_normalizer` (after) — useful when it is fitted by
        streaming over the already-written store.

    Use as a context manager: a clean exit finalises the manifest, an
    exception aborts without one (a fresh store disappears, an existing one
    keeps its previous contents).
    """

    def __init__(self, path: str, shard_size: int = 256,
                 normalizer: Optional[FeatureNormalizer] = None,
                 metadata: Optional[dict] = None) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        self.path = path
        self.shard_size = shard_size
        self._normalizer = normalizer
        self._metadata = dict(metadata) if metadata else {}
        self._shards: List[dict] = []
        #: Encoded (arrays, meta) of the open shard's samples.
        self._pending: List[Tuple[dict, str]] = []
        self._closed = False
        self._created_directory = not os.path.exists(path)
        os.makedirs(path, exist_ok=True)
        # When a committed store already lives here, the new generation's
        # shards get a unique name prefix so they can never collide with a
        # shard the live manifest references — the prerequisite for the
        # atomic manifest swap in close().
        if os.path.exists(os.path.join(path, MANIFEST_NAME)):
            self._name_prefix = f"shard-{os.urandom(4).hex()}-"
        else:
            self._name_prefix = "shard-"

    # ------------------------------------------------------------------ #
    @property
    def num_samples(self) -> int:
        """Samples written so far (including the open shard)."""
        return (sum(shard["num_samples"] for shard in self._shards)
                + len(self._pending))

    def set_normalizer(self, normalizer: Optional[FeatureNormalizer]) -> None:
        """Set the normaliser recorded in the manifest at :meth:`close`."""
        self._normalizer = normalizer

    # ------------------------------------------------------------------ #
    def _shard_name(self) -> str:
        return f"{self._name_prefix}{len(self._shards):05d}{SHARD_EXTENSION}"

    def _seal_shard(self) -> None:
        """Write out the open shard and rename it into its final place."""
        if self._pending:
            self._shards.append(_write_encoded_shard(
                self.path, self._shard_name(), self._pending))
            self._pending = []

    def write(self, sample: Sample) -> None:
        """Append one sample (shards roll automatically every ``shard_size``)."""
        if self._closed:
            raise RuntimeError("writer is closed")
        # Encoded immediately (errors surface at write time and the Sample
        # object is not retained), written out at shard roll.
        self._pending.append(_encode_sample(sample))
        if len(self._pending) >= self.shard_size:
            self._seal_shard()

    def close(self) -> str:
        """Seal the open shard and commit the manifest; returns the path.

        The manifest replace is the commit point; superseded shard files
        from a previous generation (and any stray ``.tmp``) are deleted
        only *after* it, so a crash anywhere leaves either the old store or
        the new one fully readable — never a mixture.
        """
        if self._closed:
            return self.path
        self._seal_shard()
        manifest = {
            "format_version": 3,
            "metadata": self._metadata,
            "normalizer": (self._normalizer.to_dict()
                           if self._normalizer is not None else None),
            "total_samples": sum(s["num_samples"] for s in self._shards),
            "shards": self._shards,
        }
        _write_manifest(self.path, manifest)
        self._closed = True
        referenced = {shard["name"] for shard in self._shards}
        for name in os.listdir(self.path):
            if name == MANIFEST_NAME or name in referenced:
                continue
            if name.startswith("shard-"):
                try:
                    os.remove(os.path.join(self.path, name))
                except OSError:
                    pass
        return self.path

    def abort(self) -> None:
        """Drop everything this writer produced; commit nothing.

        A store directory this writer created is removed whole.  Otherwise
        the shards this writer sealed and its in-progress ``.tmp`` are
        removed, and a pre-existing store (manifest and its shards) is left
        exactly as it was.
        """
        self._pending = []
        self._closed = True
        if self._created_directory:
            shutil.rmtree(self.path, ignore_errors=True)
            return
        for name in [shard["name"] for shard in self._shards] + [
                self._shard_name() + ".tmp"]:
            try:
                os.remove(os.path.join(self.path, name))
            except OSError:
                pass
        self._shards = []

    def __enter__(self) -> "ShardedDatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class ShardedDatasetReader:
    """Stream samples back out of a sharded store, one at a time.

    The reader is a sized iterable: ``len(reader)`` is the manifest's total
    and every ``iter(reader)`` starts a fresh pass over the shards (one pass
    per training epoch).  Each pass reads every shard's bytes once and
    decodes one :class:`Sample` at a time from them (an npz shard's
    arrays, or one line of a format-2 JSONL shard), so what is live is one
    shard's bytes plus one sample's arrays, whatever the store's size —
    the property the out-of-core training path is built on.

    With ``verify_checksums=True`` (the default) each shard's bytes are
    hashed the **first** time this reader instance touches it and compared
    to the SHA-256 stamped in the manifest; a mismatch raises
    :class:`ValueError` naming the file and both digests instead of
    silently decoding rotten data.  Verification costs one hash of the
    bytes already read, on the first epoch only, and is skipped for shards
    whose manifest record predates checksums.  Every pass still checks
    each npz member's CRC-32, so bytes that rot after the first epoch (or
    under ``verify_checksums=False``) are refused with an error naming the
    shard and the member.
    """

    def __init__(self, path: str, verify_checksums: bool = True) -> None:
        if not is_sharded_store(path):
            raise FileNotFoundError(
                f"no sharded dataset store at '{path}' (expected a directory "
                f"containing {MANIFEST_NAME})")
        self.path = path
        self.verify_checksums = verify_checksums
        self._verified_shards: set = set()
        with open(os.path.join(path, MANIFEST_NAME), "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        version = manifest.get("format_version")
        if version not in SUPPORTED_FORMAT_VERSIONS:
            supported = " and ".join(str(v) for v in SUPPORTED_FORMAT_VERSIONS)
            raise ValueError(
                f"unsupported sharded-store format_version {version!r} "
                f"in '{path}' (this reader understands versions {supported}: "
                f"2 = gzipped-JSONL shards, 3 = binary npz shards)")
        self._manifest = manifest
        self.metadata: dict = manifest.get("metadata", {})
        self.normalizer: Optional[FeatureNormalizer] = (
            FeatureNormalizer.from_dict(manifest["normalizer"])
            if manifest.get("normalizer") else None)

    # ------------------------------------------------------------------ #
    @property
    def shards(self) -> List[dict]:
        """The manifest's shard index: ``[{"name", "num_samples"}, ...]``."""
        return list(self._manifest["shards"])

    @property
    def num_shards(self) -> int:
        return len(self._manifest["shards"])

    def __len__(self) -> int:
        return int(self._manifest["total_samples"])

    def _read_shard(self, shard: dict, shard_path: str) -> bytes:
        """The shard's bytes, read once for this pass.

        The reader's first touch of a checksummed shard also hashes the
        bytes and compares the digest with the manifest's; later passes,
        and shards without a recorded checksum, skip the hash.
        """
        with open(shard_path, "rb") as handle:
            blob = handle.read()
        expected = shard.get("sha256")
        if (not self.verify_checksums or expected is None
                or shard["name"] in self._verified_shards):
            return blob
        actual = hashlib.sha256(blob).hexdigest()
        if actual != expected:
            raise ValueError(
                f"shard '{shard_path}' failed checksum verification: "
                f"manifest records sha256 {expected} but the file hashes to "
                f"{actual} — the shard was corrupted after commit; "
                "regenerate it (factory stores: `repro-net generate "
                "--resume` quarantines and re-executes the unit)")
        self._verified_shards.add(shard["name"])
        return blob

    def __iter__(self) -> Iterator[Sample]:
        for shard in self._manifest["shards"]:
            count = yield from self._iter_shard(shard)
            if count != shard["num_samples"]:
                raise ValueError(
                    f"shard '{shard['name']}' of '{self.path}' holds {count} "
                    f"samples but the manifest records {shard['num_samples']} "
                    "(truncated or corrupted shard)")

    def _iter_shard(self, shard: dict):
        """Decode one shard's samples; returns their count.

        The shard's bytes live only as long as this generator, so one
        shard's bytes are read at a time.
        """
        shard_path = os.path.join(self.path, shard["name"])
        blob = self._read_shard(shard, shard_path)
        if shard["name"].endswith(SHARD_EXTENSION):
            return (yield from _NpzShard(blob, shard_path).samples())
        return (yield from self._iter_jsonl_shard(blob))

    @staticmethod
    def _iter_jsonl_shard(blob: bytes):
        count = 0
        with gzip.open(io.BytesIO(blob), "rt", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                yield Sample.from_dict(json.loads(line))
                count += 1
        return count

    def read_all(self) -> List[Sample]:
        """Materialise the whole store as a list (the non-streaming path)."""
        return list(self)


def attach_normalizer(path: str, normalizer: Optional[FeatureNormalizer]) -> None:
    """Rewrite a store's manifest with ``normalizer`` (atomically).

    Lets a normaliser be fitted *after* generation by streaming over the
    written store (``FeatureNormalizer().fit(ShardedDatasetReader(path))``)
    and then recorded without rewriting any shard.
    """
    if not is_sharded_store(path):
        raise FileNotFoundError(f"no sharded dataset store at '{path}'")
    with open(os.path.join(path, MANIFEST_NAME), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["normalizer"] = normalizer.to_dict() if normalizer is not None else None
    _write_manifest(path, manifest)


def shard_size_for(num_samples: int, shards: int) -> int:
    """Shard size that spreads ``num_samples`` over exactly ``shards`` files."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return max(1, math.ceil(num_samples / shards))
