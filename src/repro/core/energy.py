"""Dirichlet-energy monitoring of the semantic encoder (Sec. III analysis).

The paper's central empirical observation is that, under semantic
inconsistency, the Dirichlet energy of deeper semantic-encoder layers
collapses towards zero (over-smoothing), and that the MMSL objective keeps
it bounded away from zero.  :class:`EnergyMonitor` records the per-layer
energies during training so the analysis figure can be regenerated, and the
helper functions verify the Proposition 2 / 3 bounds on concrete weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kg.laplacian import dirichlet_energy, layer_energy_bounds
from .encoder import EncoderOutput

__all__ = ["EnergySnapshot", "EnergyMonitor", "verify_layer_bounds"]


@dataclass
class EnergySnapshot:
    """Dirichlet energies of the encoder stages at one training step."""

    step: int
    modal: dict[str, float]
    attended: dict[str, float]
    original: float
    fused: float

    def ratio(self) -> float:
        """Energy retention ratio E(X^k) / E(X^0) (collapse indicator)."""
        return self.fused / max(self.original, 1e-12)


@dataclass
class EnergyMonitor:
    """Records Dirichlet-energy trajectories of encoder outputs.

    ``laplacian`` is the task's CSR Laplacian; the energies are computed
    through :func:`dirichlet_energy` in ``O(|E| d)``.
    """

    laplacian: "np.ndarray | object"
    history: list[EnergySnapshot] = field(default_factory=list)

    def record(self, step: int, output: EncoderOutput) -> EnergySnapshot:
        """Compute and store the energies of one encoder pass."""
        snapshot = EnergySnapshot(
            step=step,
            modal={m: dirichlet_energy(t.numpy(), self.laplacian)
                   for m, t in output.modal.items()},
            attended={m: dirichlet_energy(t.numpy(), self.laplacian)
                      for m, t in output.attended.items()},
            original=dirichlet_energy(output.original.numpy(), self.laplacian),
            fused=dirichlet_energy(output.fused.numpy(), self.laplacian),
        )
        self.history.append(snapshot)
        return snapshot

    def ratios(self) -> list[float]:
        """Energy retention ratio per recorded step."""
        return [snapshot.ratio() for snapshot in self.history]

    def collapsed(self, threshold: float = 1e-3) -> bool:
        """True when the last recorded step shows an over-smoothing collapse."""
        return bool(self.history) and self.history[-1].ratio() < threshold


def verify_layer_bounds(features: np.ndarray, weight: np.ndarray,
                        laplacian: np.ndarray) -> dict[str, float]:
    """Check Proposition 2 on a concrete linear layer ``X W``.

    Returns the previous/next energies together with the singular-value
    bounds; tests assert ``lower <= energy_next <= upper`` (up to numerical
    tolerance).
    """
    energy_previous = dirichlet_energy(features, laplacian)
    transformed = np.asarray(features, dtype=np.float64) @ np.asarray(weight, dtype=np.float64)
    energy_next = dirichlet_energy(transformed, laplacian)
    lower, upper = layer_energy_bounds(weight, energy_previous)
    return {
        "energy_previous": energy_previous,
        "energy_next": energy_next,
        "lower_bound": lower,
        "upper_bound": upper,
    }
