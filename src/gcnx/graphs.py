"""Immutable attributed molecular graphs and spectral adjacency normalization."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

ELEMENT_VOCAB = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I", "other")


class GraphStructureError(ValueError):
    """Raised when an adjacency matrix violates structural preconditions."""


@dataclass(frozen=True)
class ElementLabel:
    """Chemical label of one node: element symbol, formal charge, aromaticity."""

    symbol: str
    formal_charge: int = 0
    aromatic: bool = False

    def __post_init__(self):
        if self.symbol not in ELEMENT_VOCAB:
            object.__setattr__(self, "symbol", "other")

    def key(self) -> tuple:
        return (self.symbol, self.formal_charge, self.aromatic)


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Return the symmetric propagation matrix D^{-1/2} (A + I) D^{-1/2}.

    Self connections are added before normalization, so isolated nodes get
    degree 1 and no division by zero can occur.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphStructureError(f"adjacency must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise GraphStructureError("adjacency must be symmetric")
    if np.any(np.diag(a) != 0.0):
        raise GraphStructureError("adjacency must have a zero diagonal")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise GraphStructureError("adjacency entries must be 0 or 1")
    a_tilde = a + np.eye(a.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class AttributedGraph:
    """A molecule-sized graph with node features and precomputed propagation matrix.

    All arrays are read-only after construction.
    """

    node_features: np.ndarray
    adjacency: np.ndarray
    node_elements: tuple[ElementLabel, ...]
    norm_propagation: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        feats = _frozen(self.node_features)
        adj = _frozen(self.adjacency)
        prop = self.norm_propagation
        if prop is None:
            prop = normalize_adjacency(adj)
        prop = _frozen(prop)
        n = adj.shape[0]
        if feats.shape[0] != n:
            raise GraphStructureError(
                f"feature rows ({feats.shape[0]}) != node count ({n})"
            )
        if len(self.node_elements) != n:
            raise GraphStructureError(
                f"element labels ({len(self.node_elements)}) != node count ({n})"
            )
        object.__setattr__(self, "node_features", feats)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "node_elements", tuple(self.node_elements))
        object.__setattr__(self, "norm_propagation", prop)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    def neighbors(self, node: int) -> list[int]:
        return [int(j) for j in np.flatnonzero(self.adjacency[node])]

    def with_features(self, node_features: np.ndarray) -> "AttributedGraph":
        """Copy of this graph carrying different node features."""
        return AttributedGraph(
            node_features=node_features,
            adjacency=self.adjacency,
            node_elements=self.node_elements,
            norm_propagation=self.norm_propagation,
        )


def connected_components(graph: AttributedGraph, vertex_mask) -> list[list[int]]:
    """Connected components of the subgraph induced by the masked vertices.

    Components are returned sorted by their smallest vertex index, each as a
    sorted vertex list.
    """
    mask = list(vertex_mask)
    if len(mask) != graph.n_nodes:
        raise GraphStructureError(
            f"mask length ({len(mask)}) != node count ({graph.n_nodes})"
        )
    seen = [False] * graph.n_nodes
    components = []
    for start in range(graph.n_nodes):
        if not mask[start] or seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = []
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in graph.neighbors(u):
                if mask[v] and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        components.append(sorted(comp))
    return components
