"""Shard-aligned on-disk embedding store backing out-of-core decodes.

An :class:`EmbeddingStore` is a directory of plain ``.npy`` files — one per
per-round propagation state, plus the candidate CSR (IVF bucket-probe
result) and the train/test splits — described by a ``store.json``
manifest.  Plain ``.npy`` (row-major, uncompressed) is
the whole point: ``np.load(mmap_mode="r")`` maps each file directly, so

* a decode worker that owns source rows ``[row_start, row_stop)`` touches
  only that row range's pages — a contiguous byte range per state file,
  aligned with the engine's ``block_size`` grid (recorded in the
  manifest, the same multiples :func:`repro.core.sharded.shard_boundaries`
  cuts shards on);
* candidate gathers fault in only the target rows they score instead of
  materialising ``n × d`` tables (each cell is one per-edge dot product,
  so a served row subset reads only its own rows' candidates);
* forked worker pools and co-hosted serving processes share one page-cache
  copy of every table.

The (no longer read) v1 artifact kept these arrays zipped inside
``decode.npz``, which cannot be mapped without unpacking; the v2 artifact
replaces that member zip with this store, making the mapped layout the
*native* one.  Stores written while the bucket-grouped gather existed may
also list that gather's bucket-map shard; it is read but ignored.

Writes stream through :func:`write_npy_chunked` (or an
:func:`allocate_npy` memmap filled by the producer), so creating a store
never requires holding a full table in memory either — the million-entity
benchmark synthesises its tables straight into store files chunk by chunk.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
from numpy.lib.format import open_memmap

from .ann import RowCandidates

__all__ = ["EmbeddingStore", "StoreError", "MissingStoreError",
           "write_npy_chunked", "allocate_npy", "STORE_MANIFEST"]


class StoreError(RuntimeError):
    """A store directory is unreadable or inconsistent with its manifest.

    Raised instead of whatever raw ``OSError`` / ``ValueError`` numpy
    produced, naming the store directory and the shard at fault so a
    corrupted artifact is diagnosable from the message alone.
    """


class MissingStoreError(StoreError, FileNotFoundError):
    """No ``store.json`` manifest under the directory.

    Subclasses :class:`FileNotFoundError` too, so callers that probed for
    the manifest's existence with ``except FileNotFoundError`` keep
    working.
    """

STORE_MANIFEST = "store.json"

#: Layout version of the store directory itself (independent of the
#: artifact format_version that embeds it).
_STORE_VERSION = 1

#: Rows per chunk of the streamed writers.
DEFAULT_CHUNK_ROWS = 65536


def allocate_npy(path, shape, dtype) -> np.memmap:
    """A writable ``.npy``-backed memmap for producer-streamed arrays.

    The returned map is a valid ``.npy`` file from the moment of creation;
    the caller fills it in slices (e.g. one synthesis/normalisation chunk
    at a time) and drops the reference — nothing larger than a slice ever
    lives in memory.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open_memmap(path, mode="w+", dtype=np.dtype(dtype), shape=tuple(shape))


def write_npy_chunked(path, array, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> Path:
    """Stream ``array`` (any array-like, incl. another memmap) into ``path``."""
    array = np.asanyarray(array)
    out = allocate_npy(path, array.shape, array.dtype)
    if array.ndim == 0:
        out[...] = array
    else:
        for start in range(0, array.shape[0], chunk_rows):
            stop = min(start + chunk_rows, array.shape[0])
            out[start:stop] = array[start:stop]
    out.flush()
    del out
    return Path(path)


class EmbeddingStore:
    """Memory-mapped view over a store directory (see module docstring)."""

    def __init__(self, directory: Path, manifest: dict,
                 arrays: dict[str, np.ndarray]):
        self.directory = Path(directory)
        self.manifest = manifest
        self._arrays = arrays

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, directory, *, source_states, target_states,
               row_candidates: RowCandidates | None = None,
               train_pairs: np.ndarray | None = None,
               test_pairs: np.ndarray | None = None,
               block_size: int = 1024,
               chunk_rows: int = DEFAULT_CHUNK_ROWS,
               mmap: bool = True) -> "EmbeddingStore":
        """Write a store directory from per-round states (+ optional extras).

        Any existing store content under ``directory`` is replaced
        atomically enough for our purposes: the manifest is written last,
        so a crashed create leaves no readable store.  ``mmap`` controls
        how the returned handle reads the files back, not how they are
        written.
        """
        directory = Path(directory)
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)

        source_states = list(source_states)
        target_states = list(target_states)
        if len(source_states) != len(target_states):
            raise ValueError("source and target must have the same number of rounds")
        names: list[str] = []
        for index, state in enumerate(source_states):
            names.append(f"source_state_{index}")
            write_npy_chunked(directory / f"{names[-1]}.npy", state, chunk_rows)
        for index, state in enumerate(target_states):
            names.append(f"target_state_{index}")
            write_npy_chunked(directory / f"{names[-1]}.npy", state, chunk_rows)
        if train_pairs is not None:
            names.append("train_pairs")
            write_npy_chunked(directory / "train_pairs.npy", train_pairs, chunk_rows)
        if test_pairs is not None:
            names.append("test_pairs")
            write_npy_chunked(directory / "test_pairs.npy", test_pairs, chunk_rows)
        if row_candidates is not None:
            names += ["candidates_indptr", "candidates_indices"]
            write_npy_chunked(directory / "candidates_indptr.npy",
                              row_candidates.indptr, chunk_rows)
            write_npy_chunked(directory / "candidates_indices.npy",
                              row_candidates.indices, chunk_rows)

        manifest = {
            "store_version": _STORE_VERSION,
            "num_rounds": len(source_states),
            "num_source": int(np.asanyarray(source_states[0]).shape[0]),
            "num_targets": int(np.asanyarray(target_states[0]).shape[0]),
            "block_size": int(block_size),
            "has_candidates": row_candidates is not None,
            "arrays": names,
        }
        (directory / STORE_MANIFEST).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return cls.open(directory, mmap=mmap)

    @classmethod
    def open(cls, directory, *, mmap: bool = True) -> "EmbeddingStore":
        """Open a store; ``mmap=True`` maps read-only, else loads into RAM."""
        directory = Path(directory)
        manifest_path = directory / STORE_MANIFEST
        if not manifest_path.exists():
            raise MissingStoreError(f"no {STORE_MANIFEST} under {directory}")
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("store_version")
        if version != _STORE_VERSION:
            raise ValueError(f"unsupported store_version {version!r} "
                             f"(this build reads {_STORE_VERSION})")
        arrays: dict[str, np.ndarray] = {}
        for name in manifest["arrays"]:
            shard = directory / f"{name}.npy"
            try:
                arrays[name] = np.load(shard, mmap_mode="r" if mmap else None)
            except FileNotFoundError as error:
                raise StoreError(
                    f"store under {directory} lists shard {name!r} in its "
                    f"manifest but {shard.name} is missing") from error
            except (OSError, ValueError) as error:
                raise StoreError(
                    f"shard {shard.name} under {directory} is unreadable "
                    f"(truncated or corrupt): {error}") from error
        cls._check_shapes(directory, manifest, arrays)
        return cls(directory, manifest, arrays)

    @staticmethod
    def _check_shapes(directory: Path, manifest: dict,
                      arrays: dict[str, np.ndarray]) -> None:
        """Validate shard shapes against the manifest's row counts."""
        expected_rows = {}
        for index in range(int(manifest["num_rounds"])):
            expected_rows[f"source_state_{index}"] = int(manifest["num_source"])
            expected_rows[f"target_state_{index}"] = int(manifest["num_targets"])
        if manifest.get("has_candidates"):
            expected_rows["candidates_indptr"] = int(manifest["num_source"]) + 1
        for name, rows in expected_rows.items():
            array = arrays.get(name)
            if array is None:
                raise StoreError(f"store under {directory} is missing the "
                                 f"{name!r} shard required by its manifest")
            if array.shape[0] != rows:
                raise StoreError(
                    f"shard {name}.npy under {directory} has "
                    f"{array.shape[0]} rows but the manifest expects {rows}")

    # ------------------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        return int(self.manifest["num_rounds"])

    @property
    def block_size(self) -> int:
        return int(self.manifest["block_size"])

    def array(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def states(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The per-round (source, target) state lists, in stored order."""
        return ([self._arrays[f"source_state_{i}"] for i in range(self.num_rounds)],
                [self._arrays[f"target_state_{i}"] for i in range(self.num_rounds)])

    def row_candidates(self) -> RowCandidates | None:
        """The persisted candidate structure.

        The CSR arrays stay memory-mapped; construction touches them only
        for the validation min/max scan.
        """
        if not self.manifest.get("has_candidates"):
            return None
        return RowCandidates(indptr=self._arrays["candidates_indptr"],
                             indices=self._arrays["candidates_indices"],
                             num_columns=int(self.manifest["num_targets"]))

    @property
    def train_pairs(self) -> np.ndarray | None:
        return self._arrays.get("train_pairs")

    @property
    def test_pairs(self) -> np.ndarray | None:
        return self._arrays.get("test_pairs")
