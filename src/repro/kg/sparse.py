"""CSR graph operators: adjacency, normalisation and spectra.

Every graph quantity of the pipeline is computed here as a CSR operation
whose cost is ``O(|E|)`` in memory and ``O(|E| * d)`` in time:

* CSR adjacency construction straight from relation triples (no dense
  intermediate), plus degree computation without any adjacency at all;
* sparse symmetric normalisation ``D^{-1/2} (A [+ I]) D^{-1/2}`` and the
  sparse normalised Laplacian ``I - A_hat``;
* edge-wise Dirichlet energy (the pairwise form of Definition 3 summed over
  edges instead of over all ``n^2`` pairs);
* the largest Laplacian eigenvalue via ``scipy.sparse.linalg.eigsh`` with a
  dense fallback for tiny graphs and a power-iteration fallback when the
  Lanczos iteration does not converge.

The equivalence tests check every operator against the paper's dense
``n x n`` formulas in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

__all__ = [
    "adjacency_from_triples",
    "degrees_from_triples",
    "normalized_adjacency_sparse",
    "graph_laplacian_sparse",
    "dirichlet_energy_edges",
    "edge_index",
    "power_iteration_eigenvalue",
    "largest_eigenvalue",
]

#: Below this size, dense ``eigvalsh`` is both faster and more robust than
#: the Lanczos iteration (which also requires ``k < n``).
DENSE_EIGEN_CUTOFF = 64


def _triple_endpoints(triples: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Head/tail index arrays of the non-self-loop relation triples."""
    count = len(triples)
    heads = np.fromiter((t.head for t in triples), dtype=np.int64, count=count)
    tails = np.fromiter((t.tail for t in triples), dtype=np.int64, count=count)
    keep = heads != tails
    return heads[keep], tails[keep]


def adjacency_from_triples(num_entities: int, triples: Iterable,
                           weighted: bool = False) -> sp.csr_matrix:
    """CSR symmetric adjacency induced by relation triples.

    Undirected, self-loops dropped, entries count parallel edges when
    ``weighted`` and are binary otherwise; never touches an ``n x n`` dense
    array.  ``MultiModalKG.adjacency_matrix`` returns this.
    """
    heads, tails = _triple_endpoints(list(triples))
    rows = np.concatenate([heads, tails])
    cols = np.concatenate([tails, heads])
    data = np.ones(len(rows), dtype=np.float64)
    adjacency = sp.coo_matrix((data, (rows, cols)),
                              shape=(num_entities, num_entities)).tocsr()
    adjacency.sum_duplicates()
    if not weighted:
        adjacency.data = (adjacency.data > 0).astype(np.float64)
    return adjacency


def degrees_from_triples(num_entities: int, triples: Iterable) -> np.ndarray:
    """Binary undirected node degrees, computed without any adjacency matrix.

    Equals ``adjacency_matrix().sum(axis=1)``: the number of *distinct*
    neighbours of each entity (self-loops excluded, parallel edges counted
    once).
    """
    heads, tails = _triple_endpoints(list(triples))
    degrees = np.zeros(num_entities, dtype=np.float64)
    if len(heads) == 0:
        return degrees
    lo = np.minimum(heads, tails)
    hi = np.maximum(heads, tails)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    degrees += np.bincount(pairs[:, 0], minlength=num_entities)
    degrees += np.bincount(pairs[:, 1], minlength=num_entities)
    return degrees


def _inverse_sqrt_degrees(degrees: np.ndarray) -> np.ndarray:
    return np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)


def _as_csr(adjacency) -> sp.csr_matrix:
    if sp.issparse(adjacency):
        return adjacency.tocsr().astype(np.float64)
    return sp.csr_matrix(np.asarray(adjacency, dtype=np.float64))


def normalized_adjacency_sparse(adjacency, add_self_loops: bool = True) -> sp.csr_matrix:
    """Sparse symmetric normalisation ``D^{-1/2} (A [+ I]) D^{-1/2}``.

    Adding self-loops (the default) matches the ``D + 1`` degree shift in
    the paper's Definition 3 and keeps isolated entities well defined — such
    entities are common in the high-missing-modality splits.  The result
    stays CSR with ``O(|E|)`` non-zeros.
    """
    matrix = _as_csr(adjacency)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("adjacency must be square")
    if add_self_loops:
        matrix = (matrix + sp.identity(matrix.shape[0], format="csr")).tocsr()
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = _inverse_sqrt_degrees(degrees)
    scaling = sp.diags(inv_sqrt)
    return (scaling @ matrix @ scaling).tocsr()


def graph_laplacian_sparse(adjacency, add_self_loops: bool = True) -> sp.csr_matrix:
    """Sparse normalised graph Laplacian ``I - A_hat`` (positive semi-definite)."""
    normalised = normalized_adjacency_sparse(adjacency, add_self_loops=add_self_loops)
    return (sp.identity(normalised.shape[0], format="csr") - normalised).tocsr()


def dirichlet_energy_edges(features: np.ndarray, adjacency,
                           add_self_loops: bool = True) -> float:
    """Dirichlet energy in the pairwise form, summed over edges: ``O(|E| d)``.

    ``1/2 sum_ij a_ij || x_i / sqrt(d_i) - x_j / sqrt(d_j) ||^2`` with degrees
    taken after the optional self-loop shift.  Self-loop terms vanish, so
    only the off-diagonal edges are visited — no ``n x n`` pairwise-distance
    matrix is ever built.  Equals the trace form
    :func:`repro.kg.laplacian.dirichlet_energy` for the same Laplacian.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    matrix = _as_csr(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    if add_self_loops:
        degrees = degrees + 1.0
    scaled = features * _inverse_sqrt_degrees(degrees)[:, None]
    coo = matrix.tocoo()
    off_diagonal = coo.row != coo.col
    rows, cols = coo.row[off_diagonal], coo.col[off_diagonal]
    weights = coo.data[off_diagonal]
    difference = scaled[rows] - scaled[cols]
    return float(0.5 * np.sum(weights * np.sum(difference * difference, axis=1)))


def edge_index(adjacency, add_self_loops: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated ``(rows, cols)`` edge list of a (sparse) adjacency.

    Used by the edge-list GAT: entry ``k`` says node ``cols[k]`` is a
    neighbour of node ``rows[k]`` (the attention destination).  Self-loops
    are appended and duplicates merged; the list is sorted by ``(row, col)``
    so aggregation order matches a dense row-wise scan.

    The result is memoised on the sparse matrix object itself: adjacencies
    are static across a training run but the GAT layers ask for the edge
    list on every forward pass.
    """
    cached = getattr(adjacency, "_repro_edge_index", None)
    if cached is not None and cached[0] == add_self_loops:
        return cached[1], cached[2]
    matrix = _as_csr(adjacency)
    coo = matrix.tocoo()
    keep = coo.data != 0
    rows, cols = coo.row[keep], coo.col[keep]
    if add_self_loops:
        loops = np.arange(matrix.shape[0], dtype=rows.dtype)
        rows = np.concatenate([rows, loops])
        cols = np.concatenate([cols, loops])
    merged = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                           shape=matrix.shape).tocoo()
    result = merged.row.astype(np.int64), merged.col.astype(np.int64)
    if sp.issparse(adjacency):
        try:
            adjacency._repro_edge_index = (add_self_loops,) + result
        except AttributeError:  # matrix types that forbid new attributes
            pass
    return result


def _start_vector(n: int) -> np.ndarray:
    """The fixed-seed start vector of both eigenvalue iterations."""
    return np.random.default_rng(0).normal(size=n)


def power_iteration_eigenvalue(matrix, iterations: int = 200,
                               tolerance: float = 1e-10) -> float:
    """Largest eigenvalue of a symmetric **PSD** operator by power iteration.

    Deterministic (fixed-seed start vector); used as the fallback when
    Lanczos does not converge.  Power iteration finds the eigenvalue of
    largest *modulus*, which equals the largest algebraic eigenvalue only
    when the spectrum is non-negative — true for the normalised Laplacian,
    the intended operator here.
    """
    vector = _start_vector(matrix.shape[0])
    vector /= np.linalg.norm(vector)
    eigenvalue = 0.0
    for _ in range(iterations):
        product = matrix @ vector
        norm = np.linalg.norm(product)
        if norm < tolerance:
            return 0.0
        vector = product / norm
        next_eigenvalue = float(vector @ (matrix @ vector))
        if abs(next_eigenvalue - eigenvalue) < tolerance:
            return next_eigenvalue
        eigenvalue = next_eigenvalue
    return eigenvalue


def largest_eigenvalue(matrix, dense_cutoff: int = DENSE_EIGEN_CUTOFF) -> float:
    """Largest eigenvalue of a symmetric (sparse or dense) matrix.

    Tiny matrices use dense ``eigvalsh`` (exact, and ``eigsh`` requires
    ``k < n``); larger ones use Lanczos ``eigsh(k=1)`` in ``O(|E|)`` per
    iteration, started from a fixed vector so that repeated calls agree bit
    for bit.  When the Lanczos iteration itself fails, power iteration
    takes over — note that fallback assumes a PSD spectrum (it returns the
    largest-modulus eigenvalue), which holds for the Laplacians this is
    used on.
    """
    n = matrix.shape[0]
    if n <= dense_cutoff:
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=np.float64)
        return float(np.linalg.eigvalsh(dense)[-1])
    try:
        values = eigsh(matrix, k=1, which="LA", v0=_start_vector(n),
                       return_eigenvectors=False)
        return float(values[0])
    except (ArpackError, ArpackNoConvergence):
        return power_iteration_eigenvalue(matrix)
