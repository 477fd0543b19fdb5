"""Candidate influence graph, coupling weights, and the no-loop rule.

Edges are directed: edge (source=j, target=i) says outages in unit j can
trigger outages in unit i, with learned weight alpha[i, j] (target row,
source column), stored as one entry of a per-edge vector. Self-influence is
always present with alpha[i, i] fixed at 1 and is never part of the explicit
edge list. Between any two units the model allows influence in at most one
direction ("no loops"); that constraint is applied to the learned weights,
not to the candidate set.

The candidate set itself is a stand-in for real grid connectivity: k nearest
units by great-circle centroid distance, capped at a maximum radius, with
both orientations admitted as candidates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, ValidationError, at_least, checked
from .ingest import UnitMeta

EARTH_RADIUS_KM = 6371.0088

DEFAULT_K_NEIGHBORS = 8
DEFAULT_MAX_KM = 100.0
# Rows of the unit-to-unit distance matrix held at once while building the
# candidate graph, so the build needs O(K) memory, not O(K^2).
GRAPH_CHUNK_ROWS = 64


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between (lat, lon) points, in degrees."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


@dataclass(frozen=True)
class Graph:
    """Directed candidate graph on K nodes; edges are (source, target) pairs.

    Edge e, in (target, source) order, runs src[e] -> tgt[e]; `index` maps
    (source, target) to e and rev[e] is the index of the reverse edge (-1
    when the reverse is not a candidate).
    """

    num_nodes: int
    edges: tuple  # tuple of (source, target) int pairs, sorted, no self-edges

    def __post_init__(self):
        edges = tuple(sorted((int(s), int(t)) for s, t in self.edges))
        for s, t in edges:
            if s == t:
                raise ValidationError(f"self-edge ({s},{t}) not allowed; self-influence is implicit")
            if not (0 <= s < self.num_nodes and 0 <= t < self.num_nodes):
                raise ValidationError(f"edge ({s},{t}) out of range for {self.num_nodes} nodes")
        if len(set(edges)) != len(edges):
            raise ValidationError("duplicate edges in graph")
        object.__setattr__(self, "edges", edges)
        by_target = sorted(edges, key=lambda e: (e[1], e[0]))
        pairs = np.array(by_target, dtype=np.intp).reshape(-1, 2)
        index = {e: k for k, e in enumerate(by_target)}
        object.__setattr__(self, "src", pairs[:, 0])
        object.__setattr__(self, "tgt", pairs[:, 1])
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "rev", np.array([index.get((t, s), -1) for s, t in by_target], dtype=np.intp))


class EdgeWeights:
    """Coupling weights over a candidate graph, stored per edge.

    w[e] is alpha[tgt[e], src[e]]. The constructor also accepts a dense K x K
    `alpha=`, keeping its candidate entries; `off_diagonal` is the dense K x K
    form of the weights, zero off the candidate set and on the diagonal.
    """

    def __init__(self, graph: Graph, w=None, *, alpha=None):
        self.graph = graph
        if alpha is not None:
            K = graph.num_nodes
            alpha = np.asarray(alpha, dtype=np.float64)
            if alpha.shape != (K, K):
                raise ValidationError(f"alpha must be {K} x {K}, got {alpha.shape}")
            w = alpha[graph.tgt, graph.src]
        E = len(graph.edges)
        self.w = np.zeros(E) if w is None else np.array(w, dtype=np.float64)
        if self.w.shape != (E,):
            raise ValidationError(f"need one weight per edge ({E}), got shape {self.w.shape}")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def copy(self) -> "EdgeWeights":
        return EdgeWeights(self.graph, self.w)

    def off_diagonal(self) -> np.ndarray:
        K = self.graph.num_nodes
        a = np.zeros((K, K))
        a[self.graph.tgt, self.graph.src] = self.w
        return a

    def nonzero_edges(self) -> list[tuple[int, int, float]]:
        """Active (source, target, alpha) triples, sorted by (source, target)."""
        weights = [(s, t, float(self.w[self.graph.index[s, t]])) for s, t in self.graph.edges]
        return [e for e in weights if e[2] > 0]

    def loops(self) -> np.ndarray:
        """Per edge: True when it and its reverse both carry weight."""
        w, rev = self.w, self.graph.rev
        return (w != 0) & (rev >= 0) & (w[rev] != 0)

    def check_invariants(self) -> None:
        w = self.w
        if not np.isfinite(w).all():
            raise ValidationError("non-finite coupling weight")
        if (w < 0).any():
            raise ValidationError("negative coupling weight")
        loop = self.loops()
        if loop.any():
            e = int(np.flatnonzero(loop)[0])
            raise ValidationError(
                f"loop between units {self.graph.tgt[e]} and {self.graph.src[e]}: both directions have weight"
            )


def build_candidate_graph(
    units: list[UnitMeta],
    k_neighbors: int = DEFAULT_K_NEIGHBORS,
    max_km: float = DEFAULT_MAX_KM,
) -> Graph:
    """k-NN candidate graph by centroid distance, radius-capped at max_km.

    Each unit is paired (in both directions) with its k nearest units that
    lie within max_km. Emits a warning when the filter leaves no edges.
    """
    K = len(units)
    if K < 2:
        raise ValidationError(f"need at least 2 units to build a graph, got {K}")
    checked(k_neighbors, at_least(1), "k_neighbors")
    if k_neighbors >= K:
        raise ValidationError(f"k_neighbors must be in [1, {K - 1}], got {k_neighbors}")
    checked(max_km, POSITIVE, "max_km")
    lat = np.array([u.centroid_lat for u in units])
    lon = np.array([u.centroid_lon for u in units])
    farthest = 0.0
    edges: set[tuple[int, int]] = set()
    for r0 in range(0, K, GRAPH_CHUNK_ROWS):
        rows = np.arange(r0, min(r0 + GRAPH_CHUNK_ROWS, K))
        dist = haversine_km(lat[rows, None], lon[rows, None], lat[None, :], lon[None, :])
        farthest = np.maximum(farthest, dist.max())  # a unit's distance to itself is 0
        dist[rows - r0, rows] = np.inf
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k_neighbors]
        within = np.take_along_axis(dist, nearest, axis=1) <= max_km
        for u, v in zip((r0 + np.nonzero(within)[0]).tolist(), nearest[within].tolist()):
            edges.add((u, v))
            edges.add((v, u))
    if farthest == 0.0:
        raise ValidationError("all unit centroids are co-located; distance-based graph is degenerate")
    if not edges:
        warnings.warn(
            f"candidate graph is empty: no unit pair within {max_km} km", stacklevel=2
        )
    return Graph(num_nodes=K, edges=tuple(sorted(edges)))


def enforce_no_loops(weights: EdgeWeights) -> EdgeWeights:
    """Zero the smaller direction of every two-way coupling (keep-larger).

    On a tie the edge whose *source* index is smaller survives. Idempotent;
    returns a new EdgeWeights.
    """
    g, w = weights.graph, weights.w
    back = np.where(g.rev >= 0, w[g.rev], 0.0)
    lose = (w > 0) & (back > 0) & ((back > w) | ((back == w) & (g.tgt < g.src)))
    return EdgeWeights(g, np.where(lose, 0.0, w))
