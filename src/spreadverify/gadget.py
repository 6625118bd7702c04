"""Graph-to-ensemble reduction linking clique search to spread search.

Given an undirected graph, build one feature per *complement* edge and one
tree per vertex: a vertex of complement-degree zero becomes a bare +1 leaf,
any other vertex becomes a right-descending chain testing each incident
complement-edge feature once, threshold 1, in ascending feature order.  Two
trees then share a feature exactly when their vertices are *not* adjacent,
so under a zero-budget attacker a tree subset is large-spread iff its
vertices form a clique.  A brute-force clique search provides the
independent cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import CapacityError, DecisionTree, Leaf, Node, Split

__all__ = ["Graph", "parse_graph", "graph_to_ensemble", "clique_exists"]

CLIQUE_VERTEX_LIMIT = 12


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges."""

    num_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = int(self.num_vertices)
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        normalized = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line ``V E``, then ``E`` lines ``u v``."""
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines:
        raise ValueError("empty graph description")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"expected header 'V E', got {lines[0]!r}")
    try:
        n, e = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"expected integer header 'V E', got {lines[0]!r}") from None
    if len(lines) - 1 != e:
        raise ValueError(f"header announces {e} edges but {len(lines) - 1} lines follow")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected edge line 'u v', got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, frozenset(edges))


def _complement_edges(graph: Graph) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u, v in itertools.combinations(range(graph.num_vertices), 2)
        if not graph.has_edge(u, v)
    ]


def graph_to_ensemble(
    graph: Graph,
) -> tuple[list[DecisionTree], dict[tuple[int, int], int]]:
    """One tree per vertex over one feature per complement edge.

    Returns the tree list (may be even-sized: it is a set for subset search,
    never a voting ensemble) and the complement-edge -> feature-index map.
    Trees of vertices u, v share a feature iff {u, v} is not a graph edge.
    """
    features = {edge: i for i, edge in enumerate(_complement_edges(graph))}
    # Features come in ascending index order, so each list ends up sorted.
    incident: list[list[int]] = [[] for _ in range(graph.num_vertices)]
    for (a, b), idx in features.items():
        incident[a].append(idx)
        incident[b].append(idx)
    trees = []
    for feature_ids in incident:
        # Built bottom-up, so any chain length fits.
        node: Node = Leaf(1)
        for idx in reversed(feature_ids):
            node = Split(idx, 1.0, Leaf(-1), node)
        trees.append(DecisionTree(node))
    return trees, features


def clique_exists(graph: Graph, s: int) -> bool:
    """Brute-force check for a clique of size ``s`` (pairwise adjacent vertices)."""
    if graph.num_vertices > CLIQUE_VERTEX_LIMIT:
        raise CapacityError(
            f"clique search is exhaustive and limited to {CLIQUE_VERTEX_LIMIT} vertices"
        )
    s = int(s)
    if s < 0:
        raise ValueError(f"clique size must be >= 0, got {s}")
    if s > graph.num_vertices:
        return False
    return any(
        all(graph.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
        for combo in itertools.combinations(range(graph.num_vertices), s)
    )
