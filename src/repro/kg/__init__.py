"""Multi-modal knowledge graph substrate: graphs, alignment tasks, spectra, IO."""

from .graph import MultiModalKG, RelationTriple, AttributeTriple, MODALITIES
from .pair import KGPair, AlignmentPair
from .laplacian import (
    dirichlet_energy,
    energy_gap_bounds,
    layer_energy_bounds,
    partition_laplacian,
    largest_laplacian_eigenvalue,
)
from .sampling import NeighbourSampler, SubgraphLayer, SubgraphView, attention_pattern
from .sparse import (
    adjacency_from_triples,
    degrees_from_triples,
    normalized_adjacency_sparse,
    graph_laplacian_sparse,
    dirichlet_energy_edges,
    edge_index,
    largest_eigenvalue,
)
from .io import save_pair_json, load_pair_json, save_pair_dbp_format, load_pair_dbp_format

__all__ = [
    "MultiModalKG",
    "RelationTriple",
    "AttributeTriple",
    "MODALITIES",
    "KGPair",
    "AlignmentPair",
    "dirichlet_energy",
    "energy_gap_bounds",
    "layer_energy_bounds",
    "partition_laplacian",
    "largest_laplacian_eigenvalue",
    "NeighbourSampler",
    "SubgraphLayer",
    "SubgraphView",
    "attention_pattern",
    "adjacency_from_triples",
    "degrees_from_triples",
    "normalized_adjacency_sparse",
    "graph_laplacian_sparse",
    "dirichlet_energy_edges",
    "edge_index",
    "largest_eigenvalue",
    "save_pair_json",
    "load_pair_json",
    "save_pair_dbp_format",
    "load_pair_dbp_format",
]
