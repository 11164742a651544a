"""Properties: the two arithmetic facts the IVF decode's speed rests on.

* **A rectangle cell is a per-edge cell.**  ``edge_dot_products`` scores
  shared-row-set rectangles with ``np.einsum("rd,cd->rc", A, B)``; every
  cell must carry the bits of the per-edge
  ``np.einsum("ed,ed->e", A[rows], B[cols])`` it replaces, whatever the
  rectangle's shape.  ``einsum`` (unlike a BLAS GEMM) computes each cell
  as its own ``d``-long sum of products, but it picks that inner loop
  from the operands' strides: C-contiguous rows take the same loop in
  both forms, while a strided operand (``A[:, ::2]``) was seen to take
  another and round differently.  So the kernel always gathers its
  operands into contiguous copies, and this test draws only contiguous
  ones.
* **Cluster-by-cluster k-means sums are ``np.add.at``'s sums.**
  ``IVFIndex`` adds each cluster's members in id order onto a +0.0 row;
  its centroids, assignments, radii and bucket CSR must equal
  ``tests/oracles.py::reference_ivf_index`` (the ``np.add.at`` fit) bit
  for bit.  A pairwise sum (``np.add.reduceat``) fails this test.

Draws include quantised values (exact ties) and ``-0.0``.  Both facts
belong to numpy's loops, not to this library, so every failure message
names the numpy version: CI runs unpinned numpy on two Python versions.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import reference_ivf_index
from repro.core.ann import IVFIndex

SETTINGS = settings(max_examples=80, deadline=None)
NUMPY = f"numpy {np.__version__}"


def _bits(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    return array.view(np.uint64 if array.itemsize == 8 else np.uint32)


def _values(rng, shape, quantised: bool) -> np.ndarray:
    values = rng.normal(size=shape)
    if quantised:  # few distinct values: exact ties, and zeros made -0.0
        values = np.round(values)
        values[values == 0.0] = -0.0
    return values


@st.composite
def operand_pair(draw):
    rows = draw(st.integers(min_value=1, max_value=64))
    cols = draw(st.integers(min_value=1, max_value=64))
    dim = draw(st.integers(min_value=1, max_value=130))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    quantised = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2 ** 31 - 1)))
    return (_values(rng, (rows, dim), quantised).astype(dtype),
            _values(rng, (cols, dim), quantised).astype(dtype))


class TestRectangleCellsArePerEdgeCells:
    @SETTINGS
    @given(operand_pair())
    def test_every_cell_has_the_per_edge_bits(self, pair):
        left, right = pair
        assert left.flags.c_contiguous and right.flags.c_contiguous
        rows = np.repeat(np.arange(len(left)), len(right))
        cols = np.tile(np.arange(len(right)), len(left))

        rectangle = np.einsum("rd,cd->rc", left, right)
        per_edge = np.einsum("ed,ed->e", left[rows], right[cols])

        assert np.array_equal(_bits(rectangle).ravel(), _bits(per_edge)), (
            f"{NUMPY}: einsum rectangle cells differ from per-edge cells "
            f"for shapes {left.shape} x {right.shape}, {left.dtype}")


@st.composite
def ivf_fit(draw):
    dim = draw(st.sampled_from([1, 2, 3, 8, 64]))
    num = draw(st.integers(min_value=1, max_value=80))
    quantised = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2 ** 31 - 1)))
    vectors = _values(rng, (num, dim), quantised)
    if quantised and num > 1:  # duplicated points: tied and empty cells
        vectors[rng.integers(0, num, num // 2)] = vectors[0]
    n_clusters = draw(st.one_of(st.none(), st.integers(min_value=1,
                                                       max_value=12)))
    cells = min(num, n_clusters if n_clusters is not None
                else max(1, int(round(np.sqrt(num)))))
    start = draw(st.sampled_from(["draw", "warm", "duplicated"]))
    if start == "warm":  # a previous fit's centroids, slightly moved
        init = vectors[rng.choice(num, cells, replace=False)] + 0.01
    elif start == "duplicated":  # twin centroids: the twin's cell is empty
        init = np.repeat(vectors[rng.choice(num, 1)], cells, axis=0)
    else:
        init = None
    train_size = draw(st.one_of(st.none(), st.integers(min_value=1,
                                                       max_value=num)))
    kwargs = {"n_clusters": n_clusters,
              "kmeans_iters": draw(st.integers(min_value=0, max_value=8)),
              "seed": draw(st.integers(min_value=0, max_value=1000)),
              "init_centroids": init, "train_size": train_size}
    return vectors, kwargs


def _assert_fit_matches_add_at(vectors, kwargs) -> None:
    index = IVFIndex(vectors, **kwargs)
    reference = reference_ivf_index(vectors, **kwargs)
    for name in ("centroids", "assignments", "radii", "bucket_indptr",
                 "bucket_indices"):
        assert np.array_equal(_bits(getattr(index, name)),
                              _bits(reference[name])), (
            f"{NUMPY}: IVFIndex.{name} differs from the np.add.at fit "
            f"(d={vectors.shape[1]}, {kwargs})")


class TestKMeansSumsAreAddAtSums:
    @SETTINGS
    @given(ivf_fit())
    def test_fit_is_bit_identical_to_the_add_at_fit(self, case):
        _assert_fit_matches_add_at(*case)

    def test_empty_cells_are_reseeded_identically(self):
        rng = np.random.default_rng(5)
        vectors = np.round(rng.normal(size=(40, 3)))
        vectors[vectors == 0.0] = -0.0
        twins = np.repeat(vectors[:1], 4, axis=0)
        kwargs = {"n_clusters": 4, "kmeans_iters": 3, "seed": 0,
                  "init_centroids": twins}
        distances = IVFIndex._centroid_distances
        with mock.patch.object(IVFIndex, "_centroid_distances",
                               autospec=True,
                               side_effect=distances) as reseeded:
            _assert_fit_matches_add_at(vectors, kwargs)
        # Twin centroids leave three cells empty: the reseed path ran.
        assert reseeded.call_count >= 1
