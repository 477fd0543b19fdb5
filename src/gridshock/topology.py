"""Candidate influence graph, coupling weights, and propagation analytics.

Edges are directed: edge (source=j, target=i) says outages in unit j can
trigger outages in unit i, with learned weight alpha[i, j] (target row,
source column). Self-influence is always present with alpha[i, i] fixed at 1
and is never part of the explicit edge list. Between any two units the model
allows influence in at most one direction ("no loops"); that constraint is
applied to the learned weights, not to the candidate set.

The candidate set itself is a stand-in for real grid connectivity: k nearest
units by great-circle centroid distance, capped at a maximum radius, with
both orientations admitted as candidates.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import UnitMeta

EARTH_RADIUS_KM = 6371.0088

DEFAULT_K_NEIGHBORS = 8
DEFAULT_MAX_KM = 100.0


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between (lat, lon) points, in degrees."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def distance_matrix_km(units: list[UnitMeta]) -> np.ndarray:
    lat = np.array([u.centroid_lat for u in units])
    lon = np.array([u.centroid_lon for u in units])
    return haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])


@dataclass(frozen=True)
class Graph:
    """Directed candidate graph on K nodes; edges are (source, target) pairs,
    also held as index arrays `src`, `tgt` sorted by (target, source)."""

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
        pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
        by_target = np.lexsort((pairs[:, 0], pairs[:, 1]))
        object.__setattr__(self, "src", pairs[by_target, 0])
        object.__setattr__(self, "tgt", pairs[by_target, 1])

    def candidate_mask(self) -> np.ndarray:
        """K x K boolean mask: mask[target, source] True for candidate edges."""
        mask = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        mask[self.tgt, self.src] = True
        return mask


@dataclass
class EdgeWeights:
    """Coupling weights alpha[target, source] over a candidate graph.

    The diagonal is identically 1 (implicit self-influence); off-candidate,
    off-diagonal entries are identically 0.
    """

    graph: Graph
    alpha: np.ndarray = None

    def __post_init__(self):
        K = self.graph.num_nodes
        if self.alpha is None:
            self.alpha = np.zeros((K, K))
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.alpha.shape != (K, K):
            raise ValidationError(f"alpha must be {K} x {K}, got {self.alpha.shape}")
        np.fill_diagonal(self.alpha, 1.0)
        allowed = self.graph.candidate_mask()
        np.fill_diagonal(allowed, True)
        self.alpha[~allowed] = 0.0

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def copy(self) -> "EdgeWeights":
        return EdgeWeights(graph=self.graph, alpha=self.alpha.copy())

    def off_diagonal(self) -> np.ndarray:
        a = self.alpha.copy()
        np.fill_diagonal(a, 0.0)
        return a

    def nonzero_edges(self) -> list[tuple[int, int, float]]:
        """Active (source, target, alpha) triples, sorted by (source, target)."""
        out = []
        for s, t in self.graph.edges:
            if self.alpha[t, s] > 0:
                out.append((s, t, float(self.alpha[t, s])))
        return out

    def check_invariants(self) -> None:
        if (self.alpha < 0).any():
            raise ValidationError("negative coupling weight")
        if not np.all(np.diag(self.alpha) == 1.0):
            raise ValidationError("diagonal coupling must be exactly 1")
        off = self.off_diagonal()
        if (off * off.T != 0).any():
            i, j = np.argwhere(off * off.T != 0)[0]
            raise ValidationError(f"loop between units {i} and {j}: both directions have weight")


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
    if not 1 <= k_neighbors < K:
        raise ValidationError(f"k_neighbors must be in [1, {K - 1}], got {k_neighbors}")
    if max_km <= 0:
        raise ValidationError(f"max_km must be positive, got {max_km}")
    dist = distance_matrix_km(units)
    off = dist[~np.eye(K, dtype=bool)]
    if np.max(off) == 0.0:
        raise ValidationError("all unit centroids are co-located; distance-based graph is degenerate")
    edges: set[tuple[int, int]] = set()
    for u in range(K):
        d = dist[u].copy()
        d[u] = np.inf
        nearest = np.argsort(d, kind="stable")[:k_neighbors]
        for v in nearest:
            if d[v] <= max_km:
                edges.add((u, int(v)))
                edges.add((int(v), u))
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
    out = weights.copy()
    a = out.alpha
    s, t = out.graph.src, out.graph.tgt
    own, back = a[t, s], a[s, t]  # off-candidate entries are 0, so back > 0 only on candidates
    lose = (own > 0) & (back > 0) & ((back > own) | ((back == own) & (t < s)))
    a[t[lose], s[lose]] = 0.0
    return out


def triggered_mass(counts: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-unit total triggering mass sum_t sum_{t'<t} N[j,t'] beta_j e^{-beta_j (t-t')}.

    Evaluated by summing, for each past slot t', the kernel tail it still
    contributes within the observed horizon.
    """
    counts = np.asarray(counts, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    K, T = counts.shape
    mass = np.zeros(K)
    for j in range(K):
        w = beta[j] * np.exp(-beta[j] * np.arange(1, T))
        tail = np.concatenate([[0.0], np.cumsum(w)])  # tail[L] = sum of first L kernel terms
        mass[j] = float(np.dot(counts[j, : T - 1], tail[T - 1 : 0 : -1]))
    return mass


def criticality_scores(weights: EdgeWeights, history, params) -> np.ndarray:
    """Outage intensity each unit exports to its direct neighbors.

    score(j) = (sum of alpha[i, j] over targets i != j) x (total triggering
    mass of unit j over the window). Units that influence nobody score 0.
    """
    counts = np.asarray(getattr(history, "counts", history), dtype=np.float64)
    beta = np.asarray(params.beta, dtype=np.float64)
    K = weights.num_nodes
    if counts.shape[0] != K or beta.shape[0] != K:
        raise ValidationError(
            f"dimension mismatch: {K} graph nodes, {counts.shape[0]} history rows, {beta.shape[0]} beta entries"
        )
    export_weight = weights.off_diagonal().sum(axis=0)  # sum over targets, per source
    return export_weight * triggered_mass(counts, beta)


def export_propagation_map(weights: EdgeWeights, history, params, path) -> int:
    """Write `source,target,alpha,attributed_outages` rows, largest first.

    attributed_outages is the per-edge share of the source unit's criticality
    score. Returns the number of data rows written.
    """
    counts = np.asarray(getattr(history, "counts", history), dtype=np.float64)
    beta = np.asarray(params.beta, dtype=np.float64)
    mass = triggered_mass(counts, beta)
    rows = []
    for s, t, a in weights.nonzero_edges():
        rows.append((s, t, a, a * mass[s]))
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["source", "target", "alpha", "attributed_outages"])
            for s, t, a, att in rows:
                writer.writerow([s, t, repr(float(a)), repr(float(att))])
    except OSError as exc:
        raise OSError(f"could not write propagation map to {path}: {exc}") from exc
    return len(rows)
