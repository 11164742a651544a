"""Sparse differentiable primitives: ``spmm`` and segment operations.

These extend the autograd substrate with the three operations CSR graph
message passing needs:

* :func:`spmm` — multiply a *constant* (sparse or dense) matrix with a
  differentiable :class:`Tensor`; the backward pass multiplies by the
  transpose, so gradients never densify the matrix;
* :func:`segment_sum` — scatter-add rows of a tensor into segments, the
  adjoint of row gathering (``index_select``); together they express
  edge-list message passing;
* :func:`segment_softmax` — softmax over variable-sized segments of a score
  vector (one segment per destination node), the edge-list form of a
  masked attention softmax.

Each primitive is covered by numerical gradient checks in
``tests/autograd/test_sparse_ops.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor

__all__ = ["spmm", "segment_sum", "segment_softmax"]


def spmm(matrix, x: Tensor) -> Tensor:
    """Sparse(-or-dense) matrix @ dense Tensor, differentiable in ``x``.

    ``matrix`` is treated as a constant (no gradient is accumulated for it);
    the backward pass is ``grad_x = matrix.T @ grad_out``.  Accepts a scipy
    sparse matrix or a plain ndarray (the dense form serves as the
    reference side of the equivalence tests).
    """
    x = Tensor.ensure(x)
    if sp.issparse(matrix):
        if matrix.format == "csr" and matrix.dtype == np.float64:
            operator = matrix
        else:
            operator = matrix.tocsr().astype(np.float64)
        transpose = operator.T  # CSC view of the same data, no copy
    else:
        operator = np.asarray(matrix, dtype=np.float64)
        transpose = operator.T

    def backward(out: Tensor) -> None:
        x._accumulate(np.asarray(transpose @ out.grad))

    return x._make_result(np.asarray(operator @ x.data), (x,), backward)


def _sorted_segment_starts(segment_ids: np.ndarray,
                           num_segments: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(nonempty_mask, slice_starts)`` when ids are sorted, else ``None``.

    Sorted segment ids (the case produced by ``edge_index``) allow the much
    faster ``ufunc.reduceat`` over contiguous slices instead of the
    unbuffered ``ufunc.at`` scatter.  The reduction may use pairwise
    summation internally, so results can differ from the scatter path at
    the last-ULP level — well inside the tolerances the dense/sparse
    equivalence tests assert.
    """
    if len(segment_ids) == 0 or np.any(np.diff(segment_ids) < 0):
        return None
    counts = np.bincount(segment_ids, minlength=num_segments)
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]
    return nonempty, starts


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets along axis 0.

    ``out[s] = sum_{k : segment_ids[k] == s} values[k]``.  The backward pass
    gathers: ``grad_values[k] = grad_out[segment_ids[k]]``.
    """
    values = Tensor.ensure(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.ndim != 1 or len(segment_ids) != values.shape[0]:
        raise ValueError("segment_ids must be 1-D with one id per row of values")
    result = np.zeros((num_segments,) + values.data.shape[1:], dtype=np.float64)
    sorted_layout = _sorted_segment_starts(segment_ids, num_segments)
    if sorted_layout is not None:
        nonempty, starts = sorted_layout
        result[nonempty] = np.add.reduceat(values.data, starts, axis=0)
    else:
        np.add.at(result, segment_ids, values.data)

    def backward(out: Tensor) -> None:
        values._accumulate(out.grad[segment_ids])

    return values._make_result(result, (values,), backward)


def segment_softmax(scores: Tensor, segment_ids: np.ndarray,
                    num_segments: int) -> Tensor:
    """Softmax of ``scores`` within each segment (numerically stabilised).

    Equivalent to a dense row-wise softmax where row ``s`` holds the scores
    of the entries with ``segment_ids == s`` and every other position is
    masked to ``-inf``; empty segments simply produce no output entries.
    """
    scores = Tensor.ensure(scores)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    maxima = np.full((num_segments,) + scores.data.shape[1:], -np.inf)
    sorted_layout = _sorted_segment_starts(segment_ids, num_segments)
    if sorted_layout is not None:
        nonempty, starts = sorted_layout
        maxima[nonempty] = np.maximum.reduceat(scores.data, starts, axis=0)
    else:
        np.maximum.at(maxima, segment_ids, scores.data)
    shifted = scores - Tensor(maxima[segment_ids])
    exponentials = shifted.exp()
    denominators = segment_sum(exponentials, segment_ids, num_segments)
    return exponentials / denominators.index_select(segment_ids)
