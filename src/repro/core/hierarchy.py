"""Hierarchical min-max decomposition.

Scientific-computing systems often need *nested* partitions — nodes ×
sockets × cores — where every level should be strictly balanced with small
per-part boundary.  ``hierarchical_partition`` applies the Theorem 4
pipeline level by level: first into ``k₁`` parts, then each part into ``k₂``
sub-parts (on its induced subgraph), and so on, yielding a partition tree
whose leaf classes form a ``k₁·k₂·…``-way strictly balanced partition of
every level's sub-instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import as_float_array
from ..graphs.graph import Graph
from .coloring import Coloring
from .decompose import min_max_partition
from .params import DecompositionParams

__all__ = ["HierarchicalResult", "hierarchical_partition"]


@dataclass
class HierarchicalResult:
    """A partition tree: per-level label arrays over the host graph."""

    level_labels: list[np.ndarray]
    branching: tuple[int, ...]

    @property
    def leaf_labels(self) -> np.ndarray:
        """Flattened leaf class id per vertex (mixed-radix over levels)."""
        out = np.zeros(self.level_labels[0].shape[0], dtype=np.int64)
        for labels, k in zip(self.level_labels, self.branching):
            out = out * k + labels
        return out

    @property
    def total_parts(self) -> int:
        return int(np.prod(self.branching))

    def leaf_coloring(self) -> Coloring:
        return Coloring(self.leaf_labels, self.total_parts)


def hierarchical_partition(
    g: Graph,
    branching: tuple[int, ...] | list[int],
    weights=None,
    oracle=None,
    params: DecompositionParams | None = None,
) -> HierarchicalResult:
    """Nested strictly balanced partitions with branching ``(k₁, k₂, …)``.

    Level 0 partitions the whole graph into ``k₁`` classes; level ``i+1``
    partitions each level-``i`` class's *induced subgraph* into ``k_{i+1}``
    classes with the class's own weights.  Every level's sub-partitions are
    strictly balanced for their sub-instances (Definition 1 applies
    per-parent-class, matching how nested machine groups are provisioned).
    """
    branching = tuple(int(k) for k in branching)
    if not branching or any(k < 1 for k in branching):
        raise ValueError("branching must be a non-empty tuple of positive ints")
    w = as_float_array(weights if weights is not None else 1.0, g.n, name="weights")
    level_labels: list[np.ndarray] = []
    # groups at the current level: list of vertex-index arrays
    groups: list[np.ndarray] = [np.arange(g.n, dtype=np.int64)]
    for k in branching:
        labels = np.zeros(g.n, dtype=np.int64)
        next_groups: list[np.ndarray] = []
        for members in groups:
            if members.size == 0:
                next_groups.extend([members] * k)
                continue
            sub = g.subgraph(members)
            res = min_max_partition(sub.graph, k, weights=w[members], oracle=oracle, params=params)
            local = res.labels
            labels[members] = local
            for c in range(k):
                next_groups.append(members[local == c])
        level_labels.append(labels)
        groups = next_groups
    return HierarchicalResult(level_labels=level_labels, branching=branching)
