"""Unit tests for the shard-aligned on-disk embedding store (repro.core.store)."""

import json

import numpy as np
import pytest

from repro.core.ann import RowCandidates
from repro.core.store import (
    STORE_MANIFEST,
    EmbeddingStore,
    MissingStoreError,
    StoreError,
    allocate_npy,
    write_npy_chunked,
)


@pytest.fixture
def states():
    rng = np.random.default_rng(3)
    source = [rng.normal(size=(50, 8)), rng.normal(size=(50, 8))]
    target = [rng.normal(size=(70, 8)), rng.normal(size=(70, 8))]
    return source, target


class TestWriters:
    def test_allocate_npy_is_loadable_from_creation(self, tmp_path):
        path = tmp_path / "a" / "b.npy"
        out = allocate_npy(path, (5, 3), np.float64)
        out[:] = 7.0
        out.flush()
        del out
        loaded = np.load(path)
        assert loaded.shape == (5, 3)
        assert np.all(loaded == 7.0)

    def test_write_npy_chunked_matches_source(self, tmp_path):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(37, 4))
        path = write_npy_chunked(tmp_path / "x.npy", array, chunk_rows=10)
        assert np.array_equal(np.load(path), array)
        # scalars and 1-D arrays stream too
        write_npy_chunked(tmp_path / "s.npy", np.float64(3.5))
        assert np.load(tmp_path / "s.npy") == 3.5
        write_npy_chunked(tmp_path / "v.npy", np.arange(11), chunk_rows=4)
        assert np.array_equal(np.load(tmp_path / "v.npy"), np.arange(11))


class TestEmbeddingStore:
    def test_roundtrip_states_and_pairs(self, tmp_path, states):
        source, target = states
        train = np.array([[0, 1], [2, 3]])
        test = np.array([[4, 5]])
        store = EmbeddingStore.create(tmp_path / "store", source_states=source,
                                      target_states=target, train_pairs=train,
                                      test_pairs=test, block_size=16)
        src_back, tgt_back = store.states()
        for a, b in zip(source, src_back):
            assert np.array_equal(a, b)
        for a, b in zip(target, tgt_back):
            assert np.array_equal(a, b)
        assert np.array_equal(store.train_pairs, train)
        assert np.array_equal(store.test_pairs, test)
        assert store.num_rounds == 2
        assert store.block_size == 16
        assert store.row_candidates() is None

    def test_mmap_and_in_memory_reads_are_bit_identical(self, tmp_path, states):
        source, target = states
        EmbeddingStore.create(tmp_path / "store", source_states=source,
                              target_states=target)
        mapped = EmbeddingStore.open(tmp_path / "store", mmap=True)
        loaded = EmbeddingStore.open(tmp_path / "store", mmap=False)
        assert isinstance(mapped.array("source_state_0"), np.memmap)
        assert not isinstance(loaded.array("source_state_0"), np.memmap)
        for name in mapped.manifest["arrays"]:
            assert np.array_equal(np.asarray(mapped.array(name)),
                                  loaded.array(name))

    def test_candidates_roundtrip_plain_and_grouped(self, tmp_path, states):
        source, target = states
        plain = RowCandidates.from_pairs(
            rows=[0, 0, 1, 2], cols=[3, 5, 1, 2], num_rows=50, num_columns=70)
        directory = tmp_path / "plain"
        store = EmbeddingStore.create(directory, source_states=source,
                                      target_states=target,
                                      row_candidates=plain)
        back = store.row_candidates()
        assert type(back) is RowCandidates
        assert np.array_equal(back.indptr, plain.indptr)
        assert np.array_equal(back.indices, plain.indices)
        assert "grouped_candidates" not in store.manifest
        # A store written by the removed bucket-grouped gather lists a
        # bucket-map shard; it still opens and reads back plain candidates.
        write_npy_chunked(directory / "candidates_bucket_of.npy",
                          np.arange(70) % 4)
        manifest = json.loads((directory / STORE_MANIFEST).read_text())
        manifest["arrays"].append("candidates_bucket_of")
        manifest["grouped_candidates"] = True
        (directory / STORE_MANIFEST).write_text(json.dumps(manifest))
        back = EmbeddingStore.open(directory).row_candidates()
        assert type(back) is RowCandidates
        assert np.array_equal(back.indices, plain.indices)

    def test_create_replaces_existing_store(self, tmp_path, states):
        source, target = states
        directory = tmp_path / "store"
        EmbeddingStore.create(directory, source_states=source,
                              target_states=target,
                              train_pairs=np.array([[0, 0]]))
        # Re-create without train pairs: the stale file must be gone.
        store = EmbeddingStore.create(directory, source_states=source[:1],
                                      target_states=target[:1])
        assert store.train_pairs is None
        assert not (directory / "train_pairs.npy").exists()
        assert store.num_rounds == 1

    def test_open_guards(self, tmp_path, states):
        source, target = states
        with pytest.raises(FileNotFoundError):
            EmbeddingStore.open(tmp_path / "missing")
        directory = tmp_path / "store"
        EmbeddingStore.create(directory, source_states=source,
                              target_states=target)
        manifest = json.loads((directory / STORE_MANIFEST).read_text())
        manifest["store_version"] = 99
        (directory / STORE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="store_version"):
            EmbeddingStore.open(directory)

    def test_round_count_mismatch_rejected(self, tmp_path, states):
        source, target = states
        with pytest.raises(ValueError, match="rounds"):
            EmbeddingStore.create(tmp_path / "store", source_states=source,
                                  target_states=target[:1])

    def test_crashed_create_leaves_no_readable_store(self, tmp_path, states):
        """The manifest is written last: without it the store doesn't exist."""
        source, target = states
        directory = tmp_path / "store"
        EmbeddingStore.create(directory, source_states=source,
                              target_states=target)
        (directory / STORE_MANIFEST).unlink()
        with pytest.raises(FileNotFoundError):
            EmbeddingStore.open(directory)


class TestStoreErrorPaths:
    """Corruption raises a diagnosable StoreError, never a raw numpy error."""

    @pytest.fixture
    def directory(self, tmp_path, states):
        source, target = states
        directory = tmp_path / "store"
        EmbeddingStore.create(directory, source_states=source,
                              target_states=target,
                              train_pairs=np.array([[0, 0]]))
        return directory

    def test_missing_manifest_is_missing_store_error(self, tmp_path, directory):
        assert issubclass(MissingStoreError, StoreError)
        assert issubclass(MissingStoreError, FileNotFoundError)
        with pytest.raises(MissingStoreError, match=STORE_MANIFEST):
            EmbeddingStore.open(tmp_path / "nothing-here")
        (directory / STORE_MANIFEST).unlink()
        with pytest.raises(MissingStoreError):
            EmbeddingStore.open(directory)

    def test_missing_shard_raises_store_error(self, directory):
        (directory / "source_state_1.npy").unlink()
        with pytest.raises(StoreError, match="source_state_1"):
            EmbeddingStore.open(directory)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_truncated_shard_raises_store_error(self, directory, mmap):
        shard = directory / "target_state_0.npy"
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreError, match="target_state_0"):
            EmbeddingStore.open(directory, mmap=mmap)

    def test_gutted_shard_header_raises_store_error(self, directory):
        (directory / "source_state_0.npy").write_bytes(b"not an npy file")
        with pytest.raises(StoreError, match="source_state_0"):
            EmbeddingStore.open(directory)

    def test_manifest_shard_shape_mismatch_raises_store_error(self, directory):
        manifest = json.loads((directory / STORE_MANIFEST).read_text())
        manifest["num_source"] = 51
        (directory / STORE_MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="manifest expects 51"):
            EmbeddingStore.open(directory)

    def test_swapped_shard_raises_store_error(self, directory):
        """A shard whose rows disagree with the manifest is rejected."""
        short = np.zeros((3, 8))
        np.save(directory / "source_state_0.npy", short)
        with pytest.raises(StoreError, match="source_state_0"):
            EmbeddingStore.open(directory)
