"""Tests for the sharded dataset store (format 3, the one write format),
the read paths of formats 1 and 2, format-version validation and
suffix-tolerant loading."""

import gzip
import json
import os

import numpy as np
import pytest

from repro.datasets import (
    DatasetConfig,
    FeatureNormalizer,
    ShardedDatasetReader,
    ShardedDatasetWriter,
    attach_normalizer,
    generate_dataset,
    is_sharded_store,
    load_dataset,
    save_dataset,
)
from repro.datasets.sharded import (
    MANIFEST_NAME,
    SHARD_EXTENSION,
    file_sha256,
    shard_size_for,
    write_shard,
)
from repro.topology import ring_topology
from tests.datasets.legacy_formats import save_json_blob, write_jsonl_store


@pytest.fixture(scope="module")
def samples():
    return generate_dataset(ring_topology(5),
                            DatasetConfig(num_samples=7, seed=11,
                                          small_queue_fraction=0.5))


@pytest.fixture(scope="module")
def normalizer(samples):
    return FeatureNormalizer().fit(samples)


def assert_samples_equal(loaded, samples):
    """Every field of every sample survived the round trip exactly."""
    assert len(loaded) == len(samples)
    for original, rebuilt in zip(samples, loaded):
        # float64 arrays hit disk verbatim: exact equality, not allclose.
        np.testing.assert_array_equal(rebuilt.delays, original.delays)
        if original.jitters is not None:
            np.testing.assert_array_equal(rebuilt.jitters, original.jitters)
        if original.losses is not None:
            np.testing.assert_array_equal(rebuilt.losses, original.losses)
        np.testing.assert_array_equal(rebuilt.traffic.matrix,
                                      original.traffic.matrix)
        assert rebuilt.pair_order == original.pair_order
        assert rebuilt.routing.node_paths() == original.routing.node_paths()
        assert rebuilt.queue_sizes() == original.queue_sizes()
        assert rebuilt.topology.name == original.topology.name
        assert rebuilt.metadata == original.metadata
        for link_a, link_b in zip(original.topology.links(),
                                  rebuilt.topology.links()):
            assert link_a == link_b


def assert_bit_exact(loaded, samples):
    """Every numeric array came back with the same dtype and the same bytes
    (stricter than value equality: -0.0 vs 0.0 and NaN payloads differ)."""
    assert len(loaded) == len(samples)
    for original, rebuilt in zip(samples, loaded):
        pairs = [(original.delays, rebuilt.delays),
                 (original.traffic.matrix, rebuilt.traffic.matrix)]
        for field in ("jitters", "losses"):
            if getattr(original, field) is not None:
                pairs.append((getattr(original, field), getattr(rebuilt, field)))
        for before, after in pairs:
            assert after.dtype == before.dtype
            assert after.shape == before.shape
            assert after.tobytes() == before.tobytes()


class TestShardedWriterReader:
    def test_round_trip_with_shard_rolling(self, tmp_path, samples, normalizer):
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=3, normalizer=normalizer,
                                  metadata={"purpose": "test"}) as writer:
            for sample in samples:
                writer.write(sample)
            assert writer.num_samples == len(samples)
        reader = ShardedDatasetReader(store)
        assert len(reader) == 7
        assert reader.num_shards == 3  # 3 + 3 + 1
        assert [shard["num_samples"] for shard in reader.shards] == [3, 3, 1]
        assert reader.metadata == {"purpose": "test"}
        assert reader.normalizer.means == normalizer.means
        assert_samples_equal(reader.read_all(), samples)

    def test_shard_files_and_manifest_layout(self, tmp_path, samples):
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=4) as writer:
            for sample in samples:
                writer.write(sample)
        names = sorted(os.listdir(store))
        assert names == [MANIFEST_NAME, "shard-00000.npz", "shard-00001.npz"]
        with open(os.path.join(store, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 3
        assert manifest["total_samples"] == 7
        assert manifest["normalizer"] is None
        # Shards really are npz archives: per-sample key prefixes + meta.
        with np.load(os.path.join(store, "shard-00000.npz"),
                     allow_pickle=False) as archive:
            keys = set(archive.files)
            assert "meta" in keys
            assert archive["meta"].shape == (4,)
            assert {k.split(".", 1)[0] for k in keys if k != "meta"} \
                == {"s00000", "s00001", "s00002", "s00003"}

    def test_iteration_matches_read_all_and_restarts(self, tmp_path, samples):
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=2) as writer:
            for sample in samples:
                writer.write(sample)
        reader = ShardedDatasetReader(store)
        first_pass = [s.delays for s in reader]
        second_pass = [s.delays for s in reader]  # fresh pass per iter()
        assert len(first_pass) == len(second_pass) == 7
        for a, b in zip(first_pass, second_pass):
            np.testing.assert_array_equal(a, b)

    def test_aborted_writer_leaves_no_manifest(self, tmp_path, samples):
        store = str(tmp_path / "store")
        with pytest.raises(RuntimeError):
            with ShardedDatasetWriter(store, shard_size=1) as writer:
                writer.write(samples[0])  # seals a shard
                writer.write(samples[1])
                raise RuntimeError("simulated crash")
        assert not is_sharded_store(store)
        # The writer created the directory, so it removed it again: no
        # sealed shards and no half-written temp shards are left behind.
        assert not os.path.exists(store)
        with pytest.raises(FileNotFoundError):
            ShardedDatasetReader(store)

    def test_rewrite_is_atomic_at_the_manifest(self, tmp_path, samples):
        """Rewriting an existing store must keep the old generation fully
        readable until the new manifest lands: new shards use fresh names,
        an aborted rewrite leaves the old data untouched, and a committed
        one swaps the contents and deletes the superseded shard files."""
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=2) as writer:
            for sample in samples:
                writer.write(sample)
        assert len(ShardedDatasetReader(store)) == 7

        # Mid-rewrite (shards already sealed) the old store still reads.
        rewriter = ShardedDatasetWriter(store, shard_size=1)
        rewriter.write(samples[0])
        rewriter.write(samples[1])
        assert len(ShardedDatasetReader(store)) == 7
        rewriter.abort()  # simulated crash: old data intact, no new residue
        assert len(ShardedDatasetReader(store)) == 7
        assert len([n for n in os.listdir(store)
                    if n.startswith("shard-")]) == 4

        with ShardedDatasetWriter(store, shard_size=4) as writer:
            for sample in samples[:4]:
                writer.write(sample)
        reader = ShardedDatasetReader(store)
        assert len(reader) == 4
        # The superseded generation's files were cleaned after the commit.
        on_disk = {n for n in os.listdir(store) if n.startswith("shard-")}
        assert on_disk == {shard["name"] for shard in reader.shards}

    def test_attach_normalizer_after_the_fact(self, tmp_path, samples, normalizer):
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=4) as writer:
            for sample in samples:
                writer.write(sample)
        assert ShardedDatasetReader(store).normalizer is None
        # The intended streaming flow: fit on a reader pass, then attach.
        fitted = FeatureNormalizer().fit(ShardedDatasetReader(store))
        attach_normalizer(store, fitted)
        assert ShardedDatasetReader(store).normalizer.means == fitted.means
        assert fitted.means == normalizer.means

    def test_truncated_shard_detected(self, tmp_path, samples):
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=4) as writer:
            for sample in samples:
                writer.write(sample)
        manifest_path = os.path.join(store, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["shards"][0]["num_samples"] += 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="truncated or corrupted"):
            list(ShardedDatasetReader(store))

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedDatasetWriter(str(tmp_path / "s"), shard_size=0)
        with pytest.raises(ValueError):
            shard_size_for(10, 0)
        assert shard_size_for(7, 3) == 3
        assert shard_size_for(0, 4) == 1

    def test_unknown_format_version_rejected(self, tmp_path, samples):
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=4) as writer:
            for sample in samples:
                writer.write(sample)
        manifest_path = os.path.join(store, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 9
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError) as excinfo:
            ShardedDatasetReader(store)
        # The error must name every supported version and the store path.
        message = str(excinfo.value)
        assert "9" in message and "2" in message and "3" in message
        assert store in message


class TestBinaryPayload:
    """Format 3: zero-parse binary npz shard payloads."""

    def test_round_trip_is_bit_exact_with_shard_rolling(self, tmp_path, samples,
                                                        normalizer):
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=3,
                                  normalizer=normalizer) as writer:
            for sample in samples:
                writer.write(sample)
        reader = ShardedDatasetReader(store)
        assert reader.num_shards == 3  # 3 + 3 + 1
        assert_bit_exact(list(reader), samples)

    def test_shard_files_and_manifest_layout(self, tmp_path, samples):
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=4) as writer:
            for sample in samples:
                writer.write(sample)
        reader = ShardedDatasetReader(store)
        assert all(shard["name"].endswith(SHARD_EXTENSION)
                   for shard in reader.shards)
        # Each archive loads without pickle; sample i's arrays sit under the
        # "s{i:05d}." prefix and its non-array attributes in one JSON string
        # of the unicode "meta" array.
        with np.load(os.path.join(store, reader.shards[1]["name"]),
                     allow_pickle=False) as archive:
            meta = archive["meta"]
            assert meta.dtype.kind == "U"
            assert meta.shape == (3,)
            for i, original in enumerate(samples[4:]):
                prefix = f"s{i:05d}."
                np.testing.assert_array_equal(archive[prefix + "delays"],
                                              original.delays)
                np.testing.assert_array_equal(archive[prefix + "traffic"],
                                              original.traffic.matrix)
                attributes = json.loads(str(meta[i]))
                assert attributes["name"] == original.topology.name
                assert attributes["metadata"] == original.metadata

    def test_iteration_and_reread(self, tmp_path, samples):
        """The first pass decodes checksum-verified bytes, later passes
        re-read the bytes without the hash; both must yield the same
        samples, and a caller mutating a decoded sample must not change the
        next pass."""
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=2) as writer:
            for sample in samples:
                writer.write(sample)
        reader = ShardedDatasetReader(store)
        first_pass = list(reader)
        assert_bit_exact(first_pass, samples)
        for sample in first_pass:
            sample.delays[:] = -1.0
        assert_bit_exact(list(reader), samples)
        assert_bit_exact(list(ShardedDatasetReader(store,
                                                   verify_checksums=False)),
                         samples)

    def test_truncated_binary_shard_detected(self, tmp_path, samples):
        """A shard that is a valid archive but holds fewer samples than the
        manifest records (checksum kept consistent, so only the count can
        tell) is refused."""
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=4) as writer:
            for sample in samples:
                writer.write(sample)
        manifest_path = os.path.join(store, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        first = manifest["shards"][0]
        record = write_shard(store, first["name"], samples[:3])
        first["sha256"] = record["sha256"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="truncated or corrupted"):
            list(ShardedDatasetReader(store))

    @pytest.mark.parametrize("kind", ["compressed", "object"])
    def test_hand_written_shard_members_are_refused(self, tmp_path, samples,
                                                    kind):
        """The decoder reads members straight from the shard's bytes, so a
        shard with a compressed member, or with an object array that only
        pickle could read, is refused with an error naming shard and member
        (its checksum is kept consistent, so only the decoder can tell)."""
        store = str(tmp_path / "store")
        with ShardedDatasetWriter(store, shard_size=4) as writer:
            for sample in samples:
                writer.write(sample)
        manifest_path = os.path.join(store, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        first = manifest["shards"][0]
        shard_path = os.path.join(store, first["name"])
        with np.load(shard_path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        if kind == "compressed":
            np.savez_compressed(shard_path, **arrays)
            member, problem = "meta.npy", "compressed"
        else:
            arrays["s00001.delays"] = np.array([0.5, "x"], dtype=object)
            np.savez(shard_path, **arrays)
            member, problem = "s00001.delays.npy", "object array"
        first["sha256"] = file_sha256(shard_path)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match=problem) as excinfo:
            list(ShardedDatasetReader(store))
        assert first["name"] in str(excinfo.value)
        assert member in str(excinfo.value)

    def test_save_dataset_binary_round_trips(self, tmp_path, samples,
                                             normalizer):
        store = save_dataset(samples, str(tmp_path / "store"),
                             normalizer=normalizer, shards=2)
        reader = ShardedDatasetReader(store)
        assert all(shard["name"].endswith(SHARD_EXTENSION)
                   for shard in reader.shards)
        loaded, _, _ = load_dataset(store)
        assert_bit_exact(loaded, samples)


class TestStorageIntegration:
    def test_save_dataset_shards_option_round_trips(self, tmp_path, samples,
                                                    normalizer):
        store = save_dataset(samples, str(tmp_path / "store"),
                             normalizer=normalizer, metadata={"k": 1}, shards=2)
        assert is_sharded_store(store)
        assert ShardedDatasetReader(store).num_shards == 2
        loaded, loaded_normalizer, metadata = load_dataset(store)
        assert metadata == {"k": 1}
        assert loaded_normalizer.means == normalizer.means
        assert_samples_equal(loaded, samples)
        # One shard unless asked for more.
        single = save_dataset(samples, str(tmp_path / "single"))
        assert ShardedDatasetReader(single).num_shards == 1

    def test_format1_unknown_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.json.gz")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"format_version": 7, "samples": []}, handle)
        with pytest.raises(ValueError) as excinfo:
            load_dataset(path)
        message = str(excinfo.value)
        assert "7" in message and "format 1" in message
        assert "format 2" in message and "format 3" in message

    def test_format1_save_accepts_a_generator(self, tmp_path, samples):
        # A format-1 blob streamed from a generator still loads, and
        # save_dataset takes a generator as well.
        blob = save_json_blob((s for s in samples), str(tmp_path / "gen"))
        store = save_dataset((s for s in samples), str(tmp_path / "store"))
        for path in (blob, store):
            loaded, _, _ = load_dataset(path)
            assert_samples_equal(loaded, samples)

    def test_failed_save_leaves_nothing_behind(self, tmp_path, samples):
        class Exploding:
            def __len__(self):
                return 2

            def __iter__(self):
                yield samples[0]
                raise RuntimeError("boom")

        target = str(tmp_path / "crash")
        with pytest.raises(RuntimeError, match="boom"):
            save_dataset(Exploding(), target, shards=2)
        assert os.listdir(tmp_path) == []  # no store, no shard, no .tmp residue

    def test_load_checks_exact_path_before_suffixing(self, tmp_path, samples):
        # A dataset deliberately saved under a suffix-less name must load by
        # its exact path instead of erroring about '<name>.json.gz'.
        canonical = save_json_blob(samples[:2], str(tmp_path / "named"))
        bare = str(tmp_path / "bare")
        os.replace(canonical, bare)
        loaded, _, _ = load_dataset(bare)
        assert len(loaded) == 2

    def test_missing_dataset_error_names_both_candidates(self, tmp_path):
        missing = str(tmp_path / "nope")
        with pytest.raises(FileNotFoundError) as excinfo:
            load_dataset(missing)
        assert missing in str(excinfo.value)
        assert missing + ".json.gz" in str(excinfo.value)

    def test_plain_directory_is_not_a_dataset(self, tmp_path):
        directory = tmp_path / "plain"
        directory.mkdir()
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_dataset(str(directory))

    def test_manifestless_directory_does_not_shadow_suffixed_file(self, tmp_path,
                                                                  samples):
        """The residue of an aborted sharded write (a directory with no
        manifest) must not shadow a good '<path>.json.gz' next to it."""
        save_json_blob(samples[:2], str(tmp_path / "data"))
        (tmp_path / "data").mkdir()  # aborted-write residue
        loaded, _, _ = load_dataset(str(tmp_path / "data"))
        assert len(loaded) == 2

    def test_sharded_save_does_not_copy_sized_inputs(self, tmp_path, samples):
        """save_dataset(shards=N) must consume sized inputs as-is (no list()
        copy of a larger-than-RAM reader) — only unsized iterators buffer."""
        class CountingSequence:
            def __init__(self, items):
                self.items = items
                self.iterations = 0
            def __len__(self):
                return len(self.items)
            def __iter__(self):
                self.iterations += 1
                return iter(self.items)

        source = CountingSequence(samples)
        store = save_dataset(source, str(tmp_path / "sized"), shards=2)
        assert source.iterations == 1  # streamed straight through, once
        assert len(ShardedDatasetReader(store)) == len(samples)


class TestReadOnlyFormats:
    """Formats 1 and 2 are no longer written, but every store on disk
    still loads exactly."""

    def test_three_formats_load_equal(self, tmp_path, samples, normalizer):
        paths = {
            1: save_json_blob(samples, str(tmp_path / "format1"),
                              normalizer=normalizer, metadata={"k": 1}),
            2: write_jsonl_store(samples, str(tmp_path / "format2"),
                                 shard_size=3, normalizer=normalizer,
                                 metadata={"k": 1}),
            3: save_dataset(samples, str(tmp_path / "format3"),
                            normalizer=normalizer, metadata={"k": 1}, shards=3),
        }
        for path in paths.values():
            loaded, loaded_normalizer, metadata = load_dataset(path)
            assert_samples_equal(loaded, samples)
            assert metadata == {"k": 1}
            assert loaded_normalizer.means == normalizer.means
        for version in (2, 3):
            reader = ShardedDatasetReader(paths[version])
            assert [shard["num_samples"] for shard in reader.shards] == [3, 3, 1]
            assert_samples_equal(list(reader), samples)
            assert_samples_equal(list(reader), samples)  # a second pass

    def test_truncated_jsonl_shard_detected(self, tmp_path, samples):
        store = write_jsonl_store(samples, str(tmp_path / "store"), shard_size=4)
        manifest_path = os.path.join(store, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["shards"][0]["num_samples"] += 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="truncated or corrupted"):
            list(ShardedDatasetReader(store))
