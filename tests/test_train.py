import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import add_at_coupling, fd_gradient, naive_loglik, poisson_loglik_cellwise
from synth import make_units, make_weather, random_small_instance, random_small_params, wrap_dataset
from gridshock import model, train
from gridshock.errors import DivergenceError, NumericError, ValidationError
from gridshock.model import (
    MLP_CHUNK_ROWS,
    Coupling,
    MlpParams,
    ModelParams,
    direct_field,
    intensity_field,
    kernel_matrix_with_grad,
    mlp_backward,
    mlp_forward,
)
from gridshock.topology import EdgeWeights, Graph, build_candidate_graph
from gridshock.train import (
    FitConfig,
    FitReport,
    Gradients,
    _block_loglik_and_grads,
    fd_audit,
    fit,
    gradients,
    initialize,
    log_likelihood,
    project,
)
from gridshock.weather_effect import DecayConfig, WeatherScaler, accumulate_with_grad


# -- log-likelihood --------------------------------------------------------------


def test_loglik_exact_on_unit_rate_cells():
    # gamma tuned so lambda = 1 in every cell without history:
    # ll = sum(-1 + N log 1) = -T exactly
    eps = 1e-3
    g = Graph(num_nodes=1, edges=())
    params = ModelParams(
        alpha=EdgeWeights(graph=g),
        beta=np.array([1.0]),
        gamma=np.array([(1.0 - eps) / math.log(2.0)]),
        decay=DecayConfig(omega=np.array([0.2]), window_slots=3),
        mlp=MlpParams.zeros(1, hidden=(2,)),
        scaler=WeatherScaler(mean=np.zeros(1), scale=np.ones(1)),
        eps=eps,
    )
    counts = np.array([[0, 3]])
    ds = wrap_dataset(counts, np.zeros((1, 2, 1)))
    assert log_likelihood(params, ds) == pytest.approx(-2.0, rel=1e-12)


def test_loglik_matches_cellwise_formula_and_oracle():
    rng = np.random.default_rng(17)
    for _ in range(4):
        params, counts, weather = random_small_instance(rng, K=4, T=10, M=2, n_edges=4)
        ds = wrap_dataset(counts, weather)
        ll = log_likelihood(params, ds)
        lam = intensity_field(params, counts, weather).lam
        assert ll == pytest.approx(poisson_loglik_cellwise(lam, counts), rel=1e-12)
        assert ll == pytest.approx(naive_loglik(params, counts, weather), rel=1e-10)


# -- gradients ---------------------------------------------------------------------


def test_gradients_match_finite_differences_of_oracle():
    rng = np.random.default_rng(19)
    for _ in range(3):
        params, counts, weather = random_small_instance(rng, K=3, T=7, M=2, n_edges=3, hidden=(3,))
        ds = wrap_dataset(counts, weather)
        g = gradients(params, ds)

        flat0 = params.mlp.flatten()

        def mlp_ll(flat):
            q = params.copy()
            new = q.mlp.unflatten_like(flat)
            q.mlp.weights, q.mlp.biases = new.weights, new.biases
            return naive_loglik(q, counts, weather)

        assert_allclose(g.mlp.flatten(), fd_gradient(mlp_ll, flat0), rtol=2e-5, atol=1e-7)

        def omega_ll(om):
            q = params.copy()
            q.decay.omega[:] = om
            return naive_loglik(q, counts, weather)

        assert_allclose(g.omega, fd_gradient(omega_ll, params.decay.omega.copy()), rtol=2e-5, atol=1e-7)

        def beta_ll(b):
            q = params.copy()
            q.beta[:] = b
            return naive_loglik(q, counts, weather)

        assert_allclose(g.beta, fd_gradient(beta_ll, params.beta.copy()), rtol=2e-5, atol=1e-7)


def test_gradient_norm_covers_all_groups():
    rng = np.random.default_rng(20)
    params, counts, weather = random_small_instance(rng, K=3, T=6, M=1, n_edges=3)
    g = gradients(params, wrap_dataset(counts, weather))
    manual = math.sqrt(
        float((g.alpha**2).sum())
        + float((g.beta**2).sum())
        + float((g.gamma**2).sum())
        + float((g.omega**2).sum())
        + float((g.mlp.flatten() ** 2).sum())
    )
    assert g.norm() == pytest.approx(manual, rel=1e-12)


@given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 8), T=st.integers(2, 40), n_edges=st.integers(0, 12))
def test_alpha_gradient_is_the_per_edge_dot_product(seed, K, T, n_edges):
    rng = np.random.default_rng(seed)
    params, counts, weather = random_small_instance(rng, K=K, T=T, M=2, n_edges=max(n_edges, 1))
    if n_edges == 0:
        params.alpha = EdgeWeights(graph=Graph(num_nodes=K, edges=()))
    ds = wrap_dataset(counts, weather)
    # W = N / lambda - 1 and R as the full-series evaluation forms them
    v, _ = accumulate_with_grad(params.scaler.transform(ds.weather), params.decay)
    R, _ = kernel_matrix_with_grad(counts, params.beta, params.trig_window)
    lam = direct_field(params, v)[0] + Coupling(params.alpha).apply(R) + params.eps
    W = counts / lam - 1.0
    edges = zip(params.graph.tgt.tolist(), params.graph.src.tolist())
    expected = np.array([np.dot(W[tgt], R[s]) for tgt, s in edges], dtype=np.float64)
    assert_array_equal(gradients(params, ds).alpha, expected, strict=True)


def _two_pass_reference(params, counts, x_scaled, t0, t1):
    """The block evaluator with a separate forward pass: mu and lambda over
    the whole block first, then backprop of the finished upstream gradient."""
    d = params.decay.window_slots
    s_wx = max(0, t0 - (d - 1))
    v_full, dvdo_full = accumulate_with_grad(x_scaled[:, s_wx:t1, :], params.decay)
    v, dvdo = v_full[:, t0 - s_wx :, :], dvdo_full[:, t0 - s_wx :, :]
    s_tk = max(0, t0 - params.trig_window)
    R_full, dR_full = kernel_matrix_with_grad(counts[:, s_tk:t1], params.beta, params.trig_window)
    R, dR = R_full[:, t0 - s_tk :], dR_full[:, t0 - s_tk :]
    K, Tb, M = v.shape
    mu_flat, cache = mlp_forward(params.mlp, v.reshape(K * Tb, M))
    mu = mu_flat.reshape(K, Tb)
    lam = params.gamma[:, None] * mu + add_at_coupling(params.alpha, R) + params.eps
    if not np.isfinite(lam).all():
        i, t = np.argwhere(~np.isfinite(lam))[0]
        raise NumericError(f"non-finite intensity at (unit={i}, slot={t0 + t})")
    n_blk = counts[:, t0:t1]
    ll = float(np.sum(-lam + n_blk * np.log(lam)))
    W = n_blk / lam - 1.0
    dmu, tangent = (W * params.gamma[:, None]).ravel(), dvdo.reshape(K * Tb, M)
    grad_mlp, grad_omega = mlp_backward(params.mlp, cache, dmu, tangent)
    return ll, Gradients(
        alpha=np.vecdot(W[params.graph.tgt], R[params.graph.src]),
        beta=np.einsum("jt,jt->j", dR, add_at_coupling(params.alpha, W, adjoint=True)),
        gamma=(W * mu).sum(axis=1),
        omega=grad_omega,
        mlp=grad_mlp,
    )


def _evaluation(fn, params, counts, x_scaled, t0, t1):
    """("raised", message) or ("ok", ll, every gradient group)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ll, g = fn(params, counts, x_scaled, t0, t1)
    except NumericError as exc:
        return ("raised", str(exc))
    return ("ok", ll, g.alpha, g.beta, g.gamma, g.omega, g.mlp.flatten())


def _assert_same_evaluation(params, counts, x_scaled, t0, t1):
    got = _evaluation(_block_loglik_and_grads, params, counts, x_scaled, t0, t1)
    expected = _evaluation(_two_pass_reference, params, counts, x_scaled, t0, t1)
    assert got[0] == expected[0], (got[:2], expected[:2])
    for a, b in zip(got[1:], expected[1:]):
        assert_array_equal(a, b, strict=True)


C = MLP_CHUNK_ROWS
# (units, block slots) with K * (t1 - t0) at C - 1, C, C + 1 and 2C + 1 rows
CHUNK_EDGE_BLOCKS = [(7, 73), (8, 64), (3, 171), (5, 205)]


@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.one_of(st.sampled_from(CHUNK_EDGE_BLOCKS), st.tuples(st.integers(1, 9), st.integers(1, 90))),
    lead=st.integers(0, 60),
    tail=st.integers(0, 4),
    n_edges=st.integers(0, 20),
)
def test_block_evaluation_matches_the_two_pass_reference(seed, block, lead, tail, n_edges):
    K, width = block
    rng = np.random.default_rng(seed)
    params, counts, weather = random_small_instance(
        rng, K=K, T=lead + width + tail, M=2, n_edges=n_edges, hidden=(5, 3)
    )
    _assert_same_evaluation(params, counts.astype(np.float64), weather, lead, lead + width)


@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from(CHUNK_EDGE_BLOCKS),
    bad=st.sampled_from([np.inf, -np.inf, np.nan]),
    planted_in=st.sampled_from(["counts", "gamma"]),
)
def test_non_finite_intensity_raises_like_the_two_pass_reference(seed, block, bad, planted_in):
    K, width = block
    rng = np.random.default_rng(seed)
    params, counts, weather = random_small_instance(rng, K=K, T=width + 10, M=2, n_edges=12, hidden=(4,))
    counts = counts.astype(np.float64)
    unit = int(rng.integers(K))
    if planted_in == "counts":
        counts[unit, int(rng.integers(width))] = bad
    else:
        params.gamma[unit] = bad
    _assert_same_evaluation(params, counts, weather, 10, 10 + width)


def test_one_evaluation_runs_the_network_once_per_chunk(monkeypatch):
    rng = np.random.default_rng(4)
    K, T = 9, 300  # 2700 rows: six chunks, the last one partial
    params, counts, weather = random_small_instance(rng, K=K, T=T, M=2, n_edges=10, hidden=(5, 3))
    calls = []

    def counted(mlp, x):
        calls.append(len(x))
        return activations(mlp, x)

    activations = model._activations
    monkeypatch.setattr(model, "_activations", counted)
    _block_loglik_and_grads(params, counts.astype(np.float64), weather, 0, T)
    assert calls == [C] * 5 + [K * T - 5 * C]


# -- full-series evaluation over bounded blocks ---------------------------------------


def _groups(ll, g):
    return [np.array([ll]), g.alpha, g.beta, g.gamma, g.omega, g.mlp.flatten()]


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    width=st.integers(1, 30),
    full_blocks=st.integers(0, 6),
    tail=st.one_of(st.just(1), st.integers(0, 29)),
    spare=st.integers(0, 5),
)
def test_series_evaluation_sums_bounded_blocks(seed, K, width, full_blocks, tail, spare):
    # T ranges from below the weather (24) and kernel (40) windows to many
    # blocks, often with a last block of one slot.
    T = full_blocks * width + tail % width or width
    rng = np.random.default_rng(seed)
    params, counts, weather = random_small_instance(rng, K=K, T=T, M=2, n_edges=8, hidden=(4,))
    counts = counts.astype(np.float64)
    x_scaled = params.scaler.transform(weather)
    whole = _groups(*_block_loglik_and_grads(params, counts, x_scaled, 0, T))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train, "EVAL_BLOCK_CELLS", K * width + min(spare, K - 1))
        assert train._eval_blocks(K, T)[-1][1] == T
        streamed = _groups(*train._series_loglik_and_grads(params, counts, x_scaled))
    for got, expected in zip(streamed, whole):
        if T <= width:  # one block: the very same evaluation
            assert_array_equal(got, expected, strict=True)
        else:
            assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max(initial=0.0))


def test_eval_blocks_partition():
    # the reference fit (K=10, T=500) and the demo (K=12, T=72) stay one block
    assert train._eval_blocks(10, 500) == [(0, 500)]
    assert train._eval_blocks(12, 72) == [(0, 72)]
    assert train._eval_blocks(train.EVAL_BLOCK_CELLS + 1, 3) == [(0, 1), (1, 2), (2, 3)]
    width = train.EVAL_BLOCK_CELLS // 400
    assert train._eval_blocks(400, 3 * width + 5) == [(0, width), (width, 2 * width), (2 * width, 3 * width),
                                                     (3 * width, 3 * width + 5)]


def test_series_evaluation_memory_does_not_grow_with_slots():
    K = 64
    T = 2 * max(1, train.EVAL_BLOCK_CELLS // K)  # two blocks, the second with full history windows
    peaks = []
    for slots in (T, 4 * T):
        rng = np.random.default_rng(8)
        params, counts, weather = random_small_instance(rng, K=K, T=slots, M=2, n_edges=40, hidden=(8, 4))
        counts = counts.astype(np.float64)
        x_scaled = params.scaler.transform(weather)
        tracemalloc.start()
        try:
            train._series_loglik_and_grads(params, counts, x_scaled)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_multi_block_fit_reports_the_saved_models_loglik(monkeypatch, tmp_path):
    ds, graph = _fit_setup()
    monkeypatch.setattr(train, "EVAL_BLOCK_CELLS", ds.num_units * 7)  # 60 slots: nine blocks
    cfg = FitConfig(max_epochs=6, batch_slots=16, seed=2, hidden_sizes=(4,), window_slots=6, tol=1e-12)
    params, report = fit(ds, graph, cfg)
    model.serialize(params, tmp_path / "model.gshk")
    saved = model.deserialize(tmp_path / "model.gshk")
    assert log_likelihood(saved, ds) == max(report.loglik_trace)


def _divergence_message(ds, graph, batch_slots, monkeypatch):
    # every projection leaves unit 0's gamma infinite, so the next evaluation
    # after the first update is the one that fails
    def poisoned(params):
        out, n = project(params)
        out.gamma[0] = np.inf
        return out, n

    monkeypatch.setattr(train, "project", poisoned)
    cfg = FitConfig(max_epochs=3, batch_slots=batch_slots, hidden_sizes=(3,), window_slots=6)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        fit(ds, graph, cfg)
    assert isinstance(info.value.__cause__, NumericError)
    return str(info.value)


def test_epoch_end_divergence_reads_like_a_block_steps(monkeypatch):
    ds, graph = _fit_setup()
    at_block_step = _divergence_message(ds, graph, 16, monkeypatch)  # the second block fails
    at_epoch_end = _divergence_message(ds, graph, None, monkeypatch)  # the only block is the epoch
    pattern = (r"optimizer left the finite region at epoch 1 "
               r"\(non-finite intensity at \(unit=0, slot=(\d+)\)\); trace tail: \[\]")
    assert re.fullmatch(pattern, at_block_step).group(1) == "16"
    assert re.fullmatch(pattern, at_epoch_end).group(1) == "0"


def _ring_params(K, k, M, rng):
    """Random parameters on a ring graph where every unit is a candidate source
    and target of its k nearest ring neighbours on each side."""
    edges = {(s, (s + d) % K) for s in range(K) for d in range(-k, k + 1) if d}
    graph = Graph(num_nodes=K, edges=tuple(edges))
    params = random_small_params(rng, K=K, M=M, n_edges=1, hidden=(4,))
    params.alpha = EdgeWeights(graph, rng.uniform(0.0, 0.1, len(graph.edges)))
    return params


def test_alpha_gradient_holds_no_edge_by_slot_array():
    K, T, M = 60, 600, 2
    rng = np.random.default_rng(12)
    counts = rng.integers(0, 3, (K, T))
    ds = wrap_dataset(counts, rng.normal(size=(K, T, M)))
    peaks, num_edges = [], []
    for k in (4, 8):
        params = _ring_params(K, k, M, np.random.default_rng(5))
        num_edges.append(len(params.graph.edges))
        tracemalloc.start()
        try:
            gradients(params, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # gathering W[tgt] and R[src] for every edge at once would add 2 * 8 bytes
    # per extra edge and slot
    assert peaks[1] - peaks[0] < (num_edges[1] - num_edges[0]) * T * 8, peaks


# -- projection ----------------------------------------------------------------------


def test_project_clamps_and_resolves_loops():
    g = Graph(num_nodes=3, edges=((0, 1), (1, 0), (1, 2)))
    a = np.eye(3)
    a[1, 0] = 0.6  # 0 -> 1
    a[0, 1] = 0.9  # 1 -> 0 forms a loop; larger, so it survives
    a[2, 1] = -0.3  # negative coupling
    w = EdgeWeights(graph=g, alpha=a)
    params = ModelParams(
        alpha=w,
        beta=np.array([0.5, -1.0, 2.0]),
        gamma=np.array([-0.2, 0.1, 0.3]),
        decay=DecayConfig(omega=np.array([-0.05, 0.4])),
        mlp=MlpParams.zeros(2, hidden=(2,)),
        scaler=WeatherScaler(mean=np.zeros(2), scale=np.ones(2)),
    )
    fixed, n = project(params)
    assert n == 5  # beta, gamma, omega, the negative coupling, the pruned loop
    fixed.check_invariants()
    assert fixed.alpha.alpha[0, 1] == 0.9 and fixed.alpha.alpha[1, 0] == 0.0
    assert fixed.alpha.alpha[2, 1] == 0.0
    assert fixed.beta[1] == 0.0 and fixed.gamma[0] == 0.0 and fixed.decay.omega[0] == 0.0
    # untouched coordinates pass through
    assert fixed.beta[2] == 2.0 and fixed.gamma[2] == 0.3 and fixed.decay.omega[1] == 0.4
    again, n2 = project(fixed)
    assert n2 == 0
    assert_array_equal(again.alpha.alpha, fixed.alpha.alpha)
    # input untouched
    assert params.beta[1] == -1.0


# -- initialization -------------------------------------------------------------------


def _tiny_dataset(seed=0, K=4, T=60, M=2):
    rng = np.random.default_rng(seed)
    weather = make_weather(K, T, M, seed=seed, storm_plan={0: [(20, 32)]})
    counts = rng.poisson(0.4, (K, T))
    return wrap_dataset(counts, weather, seed=seed)


def test_initialize_defaults():
    ds = _tiny_dataset()
    graph = build_candidate_graph(ds.units, k_neighbors=2, max_km=200.0)
    params = initialize(ds, graph, seed=3)
    params.check_invariants()
    assert_array_equal(params.beta, np.full(4, 0.5))
    assert_array_equal(params.gamma, np.full(4, 0.1))
    assert_array_equal(params.decay.omega, np.full(2, 0.1))
    off = params.alpha.off_diagonal()
    assert set(np.unique(off)) <= {0.0, 0.01}
    # two-way candidates were pruned to one direction
    assert not (off * off.T != 0).any()
    assert params.scaler == WeatherScaler.fit(ds.weather)
    other = initialize(ds, graph, seed=4)
    assert not np.array_equal(params.mlp.weights[0], other.mlp.weights[0])


def test_initialize_respects_config_shape_knobs():
    ds = _tiny_dataset()
    graph = build_candidate_graph(ds.units, k_neighbors=2, max_km=200.0)
    cfg = FitConfig(hidden_sizes=(5,), window_slots=6, trig_window=12, eps=0.02)
    params = initialize(ds, graph, cfg=cfg)
    assert params.mlp.weights[0].shape == (2, 5)
    assert params.decay.window_slots == 6
    assert params.trig_window == 12 and params.eps == 0.02


def test_fit_config_validation():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="step_size"):
            FitConfig(step_size=bad)
        with pytest.raises(ValidationError, match="tol"):
            FitConfig(tol=bad)
    with pytest.raises(ValidationError, match="optimizer"):
        FitConfig(optimizer="newton")
    with pytest.raises(ValidationError, match="batch_slots"):
        FitConfig(batch_slots=0)
    with pytest.raises(ValidationError, match="seed must be an integer >= 0, got -1"):
        FitConfig(seed=-1)  # not numpy's ValueError from default_rng, at the start of the fit


# -- fitting ------------------------------------------------------------------------


def _fit_setup(seed=23):
    ds = _tiny_dataset(seed=seed)
    graph = build_candidate_graph(ds.units, k_neighbors=2, max_km=200.0)
    return ds, graph


def test_fit_improves_loglik_and_respects_constraints():
    ds, graph = _fit_setup()
    cfg = FitConfig(max_epochs=30, batch_slots=16, seed=1, hidden_sizes=(4,), window_slots=6, tol=1e-12)
    params, report = fit(ds, graph, cfg)
    assert report.epochs_run <= 30
    assert report.loglik_trace[-1] > report.loglik_trace[0]
    params.check_invariants()
    # returned params are the best-scoring epoch
    assert log_likelihood(params, ds) == pytest.approx(max(report.loglik_trace), rel=1e-12)
    assert len(report.grad_norm_trace) == report.epochs_run
    assert len(report.projection_counts) == report.epochs_run


def test_fit_is_deterministic():
    ds, graph = _fit_setup()
    cfg = FitConfig(max_epochs=8, batch_slots=16, seed=5, hidden_sizes=(4,), window_slots=6)
    p1, r1 = fit(ds, graph, cfg)
    p2, r2 = fit(ds, graph, cfg)
    assert r1.loglik_trace == r2.loglik_trace
    assert_array_equal(p1.alpha.alpha, p2.alpha.alpha)
    assert_array_equal(p1.beta, p2.beta)
    assert_array_equal(p1.gamma, p2.gamma)
    assert_array_equal(p1.decay.omega, p2.decay.omega)
    assert_array_equal(p1.mlp.flatten(), p2.mlp.flatten())


def test_fit_convergence_flag_and_zero_epochs():
    ds, graph = _fit_setup()
    loose = FitConfig(max_epochs=50, tol=1e30, hidden_sizes=(3,), window_slots=6)
    _, report = fit(ds, graph, loose)
    assert report.converged and report.epochs_run == 2

    none = FitConfig(max_epochs=0, hidden_sizes=(3,), window_slots=6)
    params, report0 = fit(ds, graph, none)
    assert report0.epochs_run == 0 and not report0.converged
    assert math.isnan(report0.final_loglik)
    assert_array_equal(params.gamma, np.full(4, 0.1))


def test_fit_diverges_loudly_on_absurd_step():
    ds, graph = _fit_setup()
    cfg = FitConfig(step_size=1e8, optimizer="plain-sgd", max_epochs=20, hidden_sizes=(3,), window_slots=6, tol=1e-15)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="non-finite"):
        fit(ds, graph, cfg)


def test_fit_report_records():
    report = FitReport(seed=1, loglik_trace=[-5.0, -4.0], grad_norm_trace=[2.0, 1.0], projection_counts=[3, 0], seconds=0.5)
    assert report.records() == [(1, -5.0, 2.0, 3), (2, -4.0, 1.0, 0)]
    assert report.final_loglik == -4.0


def test_fd_audit_small():
    rng = np.random.default_rng(29)
    params, counts, weather = random_small_instance(rng, K=3, T=8, M=2, n_edges=3, hidden=(3,))
    ds = wrap_dataset(counts, weather)
    assert fd_audit(params, ds, max_coords=25) < 1e-5


def test_fit_accepts_full_batch():
    ds, graph = _fit_setup()
    cfg = FitConfig(max_epochs=5, batch_slots=None, hidden_sizes=(3,), window_slots=6)
    params, report = fit(ds, graph, cfg)
    assert report.epochs_run == 5
    params.check_invariants()
