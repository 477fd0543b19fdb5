import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import brute_criticality, brute_knn_edges, dense_candidate_edges, distance_matrix_km
from synth import make_units, random_small_instance, random_small_params
from gridshock import topology
from gridshock.errors import ValidationError
from gridshock.ingest import UnitMeta
from gridshock.model import intensity_field, kernel_matrix
from gridshock.topology import (
    EARTH_RADIUS_KM,
    EdgeWeights,
    Graph,
    build_candidate_graph,
    criticality_scores,
    enforce_no_loops,
    export_propagation_map,
    haversine_km,
)


# -- distances ----------------------------------------------------------------


def test_haversine_basics():
    assert haversine_km(42.0, -71.0, 42.0, -71.0) == 0.0
    # one degree of latitude is R * pi / 180 everywhere
    assert_allclose(haversine_km(0.0, 10.0, 1.0, 10.0), EARTH_RADIUS_KM * np.pi / 180.0, rtol=1e-12)
    assert_allclose(haversine_km(40.0, -70.0, 41.5, -69.0), haversine_km(41.5, -69.0, 40.0, -70.0), rtol=1e-15)


def test_distance_matrix_symmetric_zero_diagonal():
    units = make_units(6, seed=2)
    d = distance_matrix_km(units)
    assert_allclose(d, d.T, atol=1e-12)
    assert_array_equal(np.diag(d), np.zeros(6))


# -- graph construction -------------------------------------------------------


def test_candidate_graph_matches_brute_force():
    for seed in range(5):
        units = make_units(12, seed=seed, spacing_deg=0.2)
        lats = [u.centroid_lat for u in units]
        lons = [u.centroid_lon for u in units]
        for k, cap in [(3, 60.0), (5, 25.0), (1, 1000.0)]:
            got = set(build_candidate_graph(units, k_neighbors=k, max_km=cap).edges)
            assert got == brute_knn_edges(lats, lons, k, cap)


@given(data=st.data(), K=st.integers(2, 40), chunk=st.integers(1, 41), lattice=st.integers(1, 5))
def test_row_chunked_graph_matches_the_dense_build(data, K, chunk, lattice):
    # Centroids on a small lattice, so co-located pairs and exactly tied
    # distances are common; max_km is often one of the distances themselves.
    cells = data.draw(st.lists(st.tuples(st.integers(0, lattice - 1), st.integers(0, lattice - 1)),
                               min_size=K, max_size=K))
    units = [UnitMeta(f"u{i}", 42.0 + 0.05 * r, -71.0 + 0.05 * c, 1) for i, (r, c) in enumerate(cells)]
    k = data.draw(st.integers(1, K - 1))
    pairwise = distance_matrix_km(units).ravel()
    max_km = data.draw(st.one_of(st.sampled_from(pairwise[pairwise > 0].tolist() or [1.0]),
                                 st.floats(1e-3, 30.0)))
    expected = dense_candidate_edges(units, k, max_km)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(topology, "GRAPH_CHUNK_ROWS", chunk)
        warnings.simplefilter("ignore", UserWarning)
        if expected is None:
            with pytest.raises(ValidationError, match="co-located"):
                build_candidate_graph(units, k_neighbors=k, max_km=max_km)
        else:
            assert set(build_candidate_graph(units, k_neighbors=k, max_km=max_km).edges) == expected


def test_graph_build_memory_grows_linearly_in_units():
    def build_peak(K):
        units = make_units(K, seed=1)
        tracemalloc.start()
        try:
            build_candidate_graph(units, k_neighbors=4, max_km=50.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = build_peak(250), build_peak(1000)
    # K x K distances and their temporaries would make this ratio about 16
    assert large < 6 * small, (small, large)


def test_candidate_graph_is_symmetric():
    units = make_units(9, seed=4)
    g = build_candidate_graph(units, k_neighbors=2, max_km=500.0)
    edges = set(g.edges)
    assert edges == {(t, s) for s, t in edges}


def test_candidate_graph_validation_and_empty_warning():
    units = make_units(5, seed=0)
    with pytest.raises(ValidationError, match="k_neighbors"):
        build_candidate_graph(units, k_neighbors=5)
    for bad in (0.0, np.nan):  # NaN would compare false to every distance and leave no edge
        with pytest.raises(ValidationError, match="max_km"):
            build_candidate_graph(units, k_neighbors=2, max_km=bad)
    with pytest.raises(ValidationError, match="at least 2"):
        build_candidate_graph(units[:1])
    with pytest.warns(UserWarning, match="empty"):
        g = build_candidate_graph(units, k_neighbors=2, max_km=1e-6)
    assert g.edges == ()


def test_graph_validation():
    with pytest.raises(ValidationError, match="self-edge"):
        Graph(num_nodes=3, edges=((1, 1),))
    with pytest.raises(ValidationError, match="out of range"):
        Graph(num_nodes=3, edges=((0, 3),))
    with pytest.raises(ValidationError, match="duplicate"):
        Graph(num_nodes=3, edges=((0, 1), (0, 1)))
    g = Graph(num_nodes=3, edges=((2, 0), (0, 1)))
    assert g.edges == ((0, 1), (2, 0))  # sorted
    # edges in (target, source) order: 2 -> 0, then 0 -> 1
    assert g.index == {(2, 0): 0, (0, 1): 1}
    assert_array_equal(g.rev, [-1, -1])
    assert_array_equal(Graph(num_nodes=2, edges=((0, 1), (1, 0))).rev, [1, 0])


# -- edge weights and the no-loop projection -----------------------------------


def test_edge_weights_enforce_structure():
    g = Graph(num_nodes=3, edges=((0, 1), (1, 2)))
    a = np.full((3, 3), 0.7)
    w = EdgeWeights(graph=g, alpha=a)
    assert_array_equal(np.diag(w.alpha), np.ones(3))
    assert w.alpha[2, 0] == 0.0  # not a candidate edge
    assert w.alpha[1, 0] == 0.7
    assert w.nonzero_edges() == [(0, 1, 0.7), (1, 2, 0.7)]
    off = w.off_diagonal()
    assert off[0, 0] == 0.0 and off[1, 0] == 0.7
    assert_array_equal(w.w, [0.7, 0.7])
    # alpha is a read-only view of the per-edge vector, and builds the same vector back
    g = Graph(num_nodes=3, edges=((0, 1), (1, 0), (2, 1)))
    w = EdgeWeights(g, [0.25, 1e-300, 0.1])
    with pytest.raises(ValueError, match="read-only"):
        w.alpha[1, 0] = 0.5
    assert_array_equal(w.alpha, [[1.0, 0.25, 0.0], [1e-300, 1.0, 0.1], [0.0, 0.0, 1.0]])
    again = EdgeWeights(g, alpha=w.alpha)
    assert again.w.tobytes() == w.w.tobytes()
    with pytest.raises(ValidationError, match="one weight per edge"):
        EdgeWeights(g, [0.1, 0.2])


def test_check_invariants_rejects_loops_and_negatives():
    g = Graph(num_nodes=2, edges=((0, 1), (1, 0)))
    w = EdgeWeights(graph=g)
    w.w[g.index[0, 1]] = 0.4
    w.w[g.index[1, 0]] = 0.2
    with pytest.raises(ValidationError, match="loop"):
        w.check_invariants()
    w.w[g.index[1, 0]] = 0.0
    w.check_invariants()
    w.w[g.index[0, 1]] = -0.1
    with pytest.raises(ValidationError, match="negative"):
        w.check_invariants()
    w.w[g.index[0, 1]] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        w.check_invariants()


def test_enforce_no_loops_keeps_larger_direction():
    g = Graph(num_nodes=3, edges=((0, 1), (1, 0), (1, 2), (2, 1)))
    a = np.eye(3)
    a[1, 0] = 0.5  # 0 -> 1
    a[0, 1] = 0.2  # 1 -> 0 (smaller, dropped)
    a[2, 1] = 0.3  # 1 -> 2 (tie ...
    a[1, 2] = 0.3  # 2 -> 1  ... smaller source index wins)
    w = EdgeWeights(graph=g, alpha=a)
    out = enforce_no_loops(w)
    assert out.alpha[1, 0] == 0.5 and out.alpha[0, 1] == 0.0
    assert out.alpha[2, 1] == 0.3 and out.alpha[1, 2] == 0.0
    out.check_invariants()
    again = enforce_no_loops(out)
    assert_array_equal(again.w, out.w)
    # the input is never mutated
    assert w.alpha[0, 1] == 0.2


def _pairwise_no_loops(weights):
    """Reference: the pairwise double loop over unit pairs p < q, on a dense copy."""
    a = weights.alpha.copy()
    K = weights.num_nodes
    for p in range(K):
        for q in range(p + 1, K):
            fwd = a[q, p]  # source p -> target q
            bwd = a[p, q]  # source q -> target p
            if fwd > 0 and bwd > 0:
                if fwd >= bwd:
                    a[p, q] = 0.0  # tie keeps the smaller source index (p)
                else:
                    a[q, p] = 0.0
    return EdgeWeights(weights.graph, alpha=a)


@st.composite
def coupling_weights(draw):
    """Candidate pairs in one or both directions, with zero-, tie- and negative-heavy weights."""
    K = draw(st.integers(2, 7))
    pairs = [(p, q) for p in range(K) for q in range(p + 1, K)]
    value = st.one_of(st.sampled_from([0.0, 0.3, 0.7, -0.2]), st.floats(0.0, 2.0))
    alpha = np.zeros((K, K))
    edges = []
    for p, q in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))):
        fwd = draw(value)
        directions = draw(st.sampled_from(["fwd", "bwd", "both"]))
        if directions != "bwd":
            edges.append((p, q))
            alpha[q, p] = fwd
        if directions != "fwd":
            edges.append((q, p))
            alpha[p, q] = draw(st.one_of(st.just(fwd), value))
    return EdgeWeights(graph=Graph(num_nodes=K, edges=tuple(edges)), alpha=alpha)


@given(coupling_weights())
def test_enforce_no_loops_matches_pairwise_reference(w):
    before = w.w.copy()
    out = enforce_no_loops(w)
    assert_array_equal(out.alpha, _pairwise_no_loops(w).alpha)
    assert_array_equal(enforce_no_loops(out).w, out.w)
    assert_array_equal(w.w, before)
    assert out.graph is w.graph
    off = w.off_diagonal()
    negative = (off < 0).any()
    if negative or ((off != 0) & (off.T != 0)).any():
        with pytest.raises(ValidationError):
            w.check_invariants()
    else:
        w.check_invariants()
    if negative:  # the no-loop rule leaves negative weights to the projection
        with pytest.raises(ValidationError, match="negative"):
            out.check_invariants()
    else:
        out.check_invariants()


# -- criticality ---------------------------------------------------------------


def test_criticality_hand_value():
    w = EdgeWeights(Graph(num_nodes=2, edges=((0, 1),)), [0.5])
    counts = np.array([[2.0, 0.0, 4.0, 0.0], [1.0, 1.0, 1.0, 1.0]])

    class P:
        beta = np.array([1.0, 3.0])
        trig_window = 40

    # slot 0 contributes at lags 1..3, slot 2 at lag 1
    expected = 0.5 * (2 * (np.exp(-1) + np.exp(-2) + np.exp(-3)) + 4 * np.exp(-1))
    assert_allclose(criticality_scores(w, counts, P()), [expected, 0.0], rtol=1e-14)
    # the model's kernel stops after trig_window lags: slot 0 reaches lags 1..2 only
    P.trig_window = 2
    expected = 0.5 * (2 * (np.exp(-1) + np.exp(-2)) + 4 * np.exp(-1))
    assert_allclose(criticality_scores(w, counts, P()), [expected, 0.0], rtol=1e-14)


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(2, 6),
    trig_window=st.integers(1, 8),
    extra_slots=st.integers(1, 20),
)
def test_criticality_sums_to_the_cross_unit_cascade_intensity(seed, K, trig_window, extra_slots):
    rng = np.random.default_rng(seed)
    params = random_small_params(rng, K=K, M=1, n_edges=K, trig_window=trig_window)
    params.beta = rng.uniform(0.01, 0.2, K)
    T = trig_window + extra_slots
    counts = rng.integers(0, 5, (K, T)).astype(float)
    fld = intensity_field(params, counts, rng.normal(size=(K, T, 1)))
    cross = (fld.indirect - kernel_matrix(counts, params.beta, trig_window)).sum()
    assert_allclose(criticality_scores(params.alpha, counts, params).sum(), cross, rtol=1e-12)


def test_criticality_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(10):
        params, counts, _ = random_small_instance(rng, K=5, T=12, M=2, n_edges=5, max_count=6)
        scores = criticality_scores(params.alpha, counts, params)
        brute = brute_criticality(
            params.alpha.alpha, params.beta, counts, [(s, t) for s, t, _ in params.alpha.nonzero_edges()]
        )
        assert_allclose(scores, brute, rtol=1e-12, atol=1e-12)


def test_criticality_zero_for_units_without_outgoing_edges():
    g = Graph(num_nodes=3, edges=((0, 1),))
    w = EdgeWeights(g, [0.5])

    class P:
        beta = np.array([1.0, 1.0, 1.0])
        trig_window = 40

    scores = criticality_scores(w, np.ones((3, 5)), P())
    assert scores[1] == 0.0 and scores[2] == 0.0 and scores[0] > 0.0


def test_criticality_dimension_mismatch():
    g = Graph(num_nodes=2, edges=((0, 1),))
    w = EdgeWeights(graph=g)

    class P:
        beta = np.array([1.0, 1.0, 1.0])
        trig_window = 40

    with pytest.raises(ValidationError, match="mismatch"):
        criticality_scores(w, np.ones((2, 4)), P())


def test_export_propagation_map(tmp_path):
    rng = np.random.default_rng(8)
    params, counts, _ = random_small_instance(rng, K=4, T=10, M=1, n_edges=4, max_count=5)
    path = tmp_path / "map.csv"
    n = export_propagation_map(params.alpha, counts, params, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "source,target,alpha,attributed_outages"
    assert len(lines) == n + 1
    contrib = [float(line.split(",")[3]) for line in lines[1:]]
    assert contrib == sorted(contrib, reverse=True)
