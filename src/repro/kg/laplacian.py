"""Spectral graph utilities: Dirichlet energy and the paper's energy bounds.

These implement the quantities of the paper's preliminaries (Sec. II) on
the CSR operators of :mod:`repro.kg.sparse` (``Ã = D^{-1/2} A D^{-1/2}``
and ``Δ = I - Ã``): the Dirichlet energy ``E(X) = tr(Xᵀ Δ X)`` of
Definition 3, the bounds of Corollary 1 and Proposition 2, and the
partitioned views (consistent / count-inconsistent / modality-missing
entities, Eq. 2) used by Semantic Propagation.
"""

from __future__ import annotations

import numpy as np

from .sparse import _as_csr, largest_eigenvalue

__all__ = [
    "dirichlet_energy",
    "energy_gap_bounds",
    "layer_energy_bounds",
    "partition_laplacian",
    "largest_laplacian_eigenvalue",
]


def dirichlet_energy(features: np.ndarray, laplacian) -> float:
    """Dirichlet energy ``tr(Xᵀ Δ X)`` of Definition 3.

    Evaluated as ``Σ_ij x_ij (Δ x)_ij`` in ``O(|E| d)`` on a CSR Laplacian.
    The pairwise form of the same definition is
    :func:`repro.kg.sparse.dirichlet_energy_edges`.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    return float(np.sum(features * np.asarray(laplacian @ features)))


def largest_laplacian_eigenvalue(laplacian) -> float:
    """Largest eigenvalue of the (symmetric) Laplacian; lies in ``[0, 2)``.

    Tiny graphs use exact dense ``eigvalsh``; anything larger uses Lanczos
    ``eigsh(k=1)`` (with a power-iteration fallback), which avoids the
    ``O(n³)`` full eigendecomposition.
    """
    return largest_eigenvalue(laplacian)


def energy_gap_bounds(original: np.ndarray, modified: np.ndarray,
                      laplacian) -> tuple[float, float, float]:
    """Bounds of Corollary 1 on ``||X̂ - X||₂`` from the Dirichlet-energy gap.

    Returns ``(lower, distance, upper)`` where ``distance`` is the Frobenius
    norm of the perturbation and ``lower <= distance`` always holds (the
    upper bound requires the minimum-norm condition of the corollary and is
    reported for inspection).
    """
    original = np.asarray(original, dtype=np.float64)
    modified = np.asarray(modified, dtype=np.float64)
    gap = abs(dirichlet_energy(modified, laplacian) - dirichlet_energy(original, laplacian))
    lam = max(largest_laplacian_eigenvalue(laplacian), 1e-12)
    norm_max = max(np.linalg.norm(original), np.linalg.norm(modified), 1e-12)
    norm_min = max(min(np.linalg.norm(original), np.linalg.norm(modified)), 1e-12)
    distance = float(np.linalg.norm(modified - original))
    lower = gap / (2.0 * lam * norm_max)
    upper = gap / (2.0 * lam * norm_min)
    return lower, distance, upper


def layer_energy_bounds(weight: np.ndarray, previous_energy: float) -> tuple[float, float]:
    """Proposition 2 bounds on the energy after a linear layer ``X W``.

    The energy of ``X^{(k)} = X^{(k-1)} W`` is bounded by the squared
    minimum / maximum singular values of ``W`` times the previous energy.
    """
    singular_values = np.linalg.svd(np.asarray(weight, dtype=np.float64), compute_uv=False)
    p_min = float(singular_values.min() ** 2)
    p_max = float(singular_values.max() ** 2)
    return p_min * previous_energy, p_max * previous_energy


def partition_laplacian(laplacian,
                        consistent: np.ndarray,
                        count_inconsistent: np.ndarray,
                        missing: np.ndarray) -> dict:
    """Partition ``Δ`` into the CSR blocks of Eq. 2 / Eq. 18.

    ``consistent``, ``count_inconsistent`` and ``missing`` are index arrays
    for ``E_c``, ``E_{o1}`` and ``E_{o2}``; they must be disjoint and cover
    all nodes.  The returned dict holds every block needed by the
    closed-form solution of Proposition 4 and the Euler scheme.
    """
    consistent = np.asarray(consistent, dtype=np.int64)
    count_inconsistent = np.asarray(count_inconsistent, dtype=np.int64)
    missing = np.asarray(missing, dtype=np.int64)
    union = np.concatenate([consistent, count_inconsistent, missing])
    if len(np.unique(union)) != laplacian.shape[0] or len(union) != laplacian.shape[0]:
        raise ValueError("partition must be disjoint and cover every node")
    matrix = _as_csr(laplacian)
    index = {"c": consistent, "o1": count_inconsistent, "o2": missing}
    return {f"{row_key}{col_key}": matrix[rows][:, cols]
            for row_key, rows in index.items()
            for col_key, cols in index.items()}
