import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from oracles import add_at_coupling, dense_alpha, naive_intensity_field, naive_mu
from synth import random_small_instance, random_small_params
from gridshock.container import read_container
from gridshock.errors import ValidationError
from gridshock.model import (
    MLP_CHUNK_ROWS,
    MODEL_SCHEMA,
    Coupling,
    IntensityField,
    Kernel,
    MlpParams,
    ModelParams,
    deserialize,
    indirect_field,
    intensity,
    intensity_field,
    intensity_from_trigger,
    kernel_mass_closed_form,
    kernel_matrix,
    mlp_backward,
    mlp_forward,
    serialize,
    softplus,
    time_blocks,
    weather_response,
)
from gridshock import model as model_module
from gridshock.topology import EdgeWeights, Graph, enforce_no_loops
from gridshock.weather_effect import CHUNK_SLOTS, DecayConfig, WeatherScaler, accumulate


# -- weather-response network --------------------------------------------------


def test_zero_network_outputs_ln2():
    assert softplus(np.array(0.0)) == pytest.approx(math.log(2.0), rel=1e-15)
    mlp = MlpParams.zeros(3, hidden=(4, 2))
    for v in (np.zeros(3), np.array([5.0, -2.0, 0.1])):
        (mu,) = mlp_forward(mlp, v[None, :])
        assert mu == pytest.approx(math.log(2.0), rel=1e-15)


def test_one_hidden_unit_hand_forward():
    mlp = MlpParams(weights=[np.array([[2.0]]), np.array([[1.5]])], biases=[np.array([0.5]), np.array([-0.2])])
    (mu,) = mlp_forward(mlp, np.array([[0.3]]))
    z = 1.5 * math.tanh(2.0 * 0.3 + 0.5) - 0.2
    assert mu == pytest.approx(math.log1p(math.exp(z)), rel=1e-14)


def test_network_output_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mlp = MlpParams.init_random(2, hidden=(5,), seed=int(rng.integers(1 << 30)))
        v = rng.normal(0, 5, (17, 2))
        mu = mlp_forward(mlp, v)
        assert (mu >= 0).all()


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mlp = MlpParams.init_random(3, hidden=(4, 3), seed=int(rng.integers(1 << 30)))
        v = rng.normal(0, 2, (9, 3))
        mu = mlp_forward(mlp, v)
        expected = [naive_mu(mlp.weights, mlp.biases, row) for row in v]
        assert_allclose(mu, expected, rtol=1e-13, atol=1e-13)
        # single-row call agrees with the batched one
        (single,) = mlp_forward(mlp, v[4:5])
        assert single == pytest.approx(mu[4], rel=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    mlp = MlpParams.init_random(2, hidden=(3,), seed=9)
    v = rng.normal(size=(6, 2))
    dmu = rng.normal(size=6)

    def value(flat):
        candidate = mlp.unflatten_like(flat)
        return float(dmu @ mlp_forward(candidate, v))

    g_flat, _ = mlp_backward(mlp, v, dmu, np.zeros_like(v))
    flat0 = mlp.flatten()
    h = 1e-6
    for k in range(flat0.size):
        e = np.zeros_like(flat0)
        e[k] = h
        fd = (value(flat0 + e) - value(flat0 - e)) / (2 * h)
        assert fd == pytest.approx(g_flat[k], rel=1e-6, abs=1e-9)
    # input gradient too, read through a one-hot tangent
    for n, m in [(0, 0), (3, 1), (5, 0)]:
        vp, vm, one_hot = v.copy(), v.copy(), np.zeros_like(v)
        vp[n, m] += h
        vm[n, m] -= h
        one_hot[n, m] = 1.0
        fd = (float(dmu @ mlp_forward(mlp, vp)) - float(dmu @ mlp_forward(mlp, vm))) / (2 * h)
        assert fd == pytest.approx(mlp_backward(mlp, v, dmu, one_hot)[1][m], rel=1e-6, abs=1e-9)


def _whole_array_forward(mlp, v):
    """Reference: the one-pass forward that caches every activation."""
    hiddens = [v]
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        hiddens.append(np.tanh(hiddens[-1] @ w + b))
    z_out = (hiddens[-1] @ mlp.weights[-1] + mlp.biases[-1])[:, 0]
    return softplus(z_out), hiddens, z_out


def _whole_array_backward(mlp, v, dmu):
    """Reference backward over the whole array with scipy's sigmoid. Besides the
    gradients it returns each one's sum of |terms| (the input gradient's is
    propagated through every layer in absolute values), the scale of the
    rounding error that a different summation order may make."""
    _, hiddens, z_out = _whole_array_forward(mlp, v)
    dz = (dmu * expit(z_out))[:, None]
    abs_dz = np.abs(dz)
    grads, scales = {}, {}
    for k in range(len(mlp.weights) - 1, -1, -1):
        grads[k] = hiddens[k].T @ dz, dz.sum(axis=0)
        scales[k] = np.abs(hiddens[k]).T @ abs_dz, abs_dz.sum(axis=0)
        dh, abs_dh = dz @ mlp.weights[k].T, abs_dz @ np.abs(mlp.weights[k]).T
        if k > 0:
            dz, abs_dz = dh * (1.0 - hiddens[k] ** 2), abs_dh * (1.0 - hiddens[k] ** 2)
    return grads, scales, dh, abs_dh


def _row_counts(n_random):
    """Row counts at each chunk edge, plus one drawn at random."""
    C = MLP_CHUNK_ROWS
    return (1, C - 1, C, C + 1, 2 * C + 1, n_random)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_random=st.integers(1, 3 * MLP_CHUNK_ROWS),
    hidden=st.lists(st.integers(1, 32), min_size=1, max_size=3),
    M=st.integers(1, 4),
)
def test_chunked_forward_is_bit_identical_to_the_whole_array_pass(seed, n_random, hidden, M):
    rng = np.random.default_rng(seed)
    mlp = MlpParams.init_random(M, hidden=tuple(hidden), seed=seed)
    mlp.biases = [rng.normal(0, 1, b.shape) for b in mlp.biases]
    for n in _row_counts(n_random):
        v = rng.normal(0, 3, (n, M))
        assert_array_equal(mlp_forward(mlp, v), _whole_array_forward(mlp, v)[0])
    (single,) = mlp_forward(mlp, v[-1:])
    assert single == _whole_array_forward(mlp, v[-1:])[0][0]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_random=st.integers(1, 3 * MLP_CHUNK_ROWS),
    hidden=st.lists(st.integers(1, 32), min_size=0, max_size=3),
    M=st.integers(1, 4),
)
def test_chunked_backward_matches_the_whole_array_pass(seed, n_random, hidden, M):
    rng = np.random.default_rng(seed)
    mlp = MlpParams.init_random(M, hidden=tuple(hidden), seed=seed)
    for n in _row_counts(n_random):
        v = rng.normal(0, 3, (n, M))
        dmu = rng.normal(0, 2, n)
        tangent = rng.normal(0, 1, (n, M))
        flat, contracted = mlp_backward(mlp, v, dmu, tangent)
        grads = mlp.unflatten_like(flat)
        expected, scales, expected_dinput, dinput_scale = _whole_array_backward(mlp, v, dmu)
        for k, (gw, gb) in expected.items():
            sw, sb = scales[k]
            assert (np.abs(grads.weights[k] - gw) <= 1e-13 * sw).all()
            assert (np.abs(grads.biases[k] - gb) <= 1e-13 * sb).all()
        expected_contracted = np.einsum("nm,nm->m", expected_dinput, tangent)
        contracted_scale = np.einsum("nm,nm->m", dinput_scale, np.abs(tangent))
        assert (np.abs(contracted - expected_contracted) <= 1e-13 * contracted_scale).all()


@pytest.mark.parametrize("z_out", [800.0, -800.0])
def test_backward_is_finite_and_silent_at_extreme_outputs(z_out):
    mlp = MlpParams(
        weights=[np.array([[1.0, -1.0]]), np.array([[2.0], [1.0]])], biases=[np.zeros(2), np.array([z_out])]
    )
    v = np.linspace(-3.0, 3.0, 2 * MLP_CHUNK_ROWS + 3)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = mlp_forward(mlp, v)
        flat, contracted = mlp_backward(mlp, v, np.ones(len(v)), np.ones_like(v))
    assert np.isfinite(mu).all() and np.isfinite(flat).all() and np.isfinite(contracted).all()
    # softplus' is 1 far above zero and 0 far below it
    assert mlp.unflatten_like(flat).biases[-1][0] == (len(v) if z_out > 0 else 0.0)


def test_backward_of_a_non_finite_upstream_gradient_is_a_non_finite_vector():
    # an overflowing fit step shows up here first; judging it is the optimizer's job, not the network's
    mlp = MlpParams.init_random(2, hidden=(3,), seed=1)
    v = np.random.default_rng(2).normal(size=(4, 2))
    with np.errstate(invalid="ignore"):
        flat, contracted = mlp_backward(mlp, v, np.array([1.0, np.inf, 0.0, 1.0]), np.ones_like(v))
    assert flat.shape == mlp.flatten().shape
    assert not np.isfinite(flat).all() and not np.isfinite(contracted).all()


def test_mlp_forward_holds_no_activations():
    K, T, M = 40, 1000, 3
    params = random_small_params(np.random.default_rng(8), K=K, M=M, hidden=(32, 16))
    v = np.random.default_rng(9).normal(size=(K * T, M))
    tracemalloc.start()
    try:
        mlp_forward(params.mlp, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole-array pass cached 32 + 16 hidden floats per row; now the outputs dominate
    assert peak < K * T * 48 * 8 / 8, f"peak {peak} bytes"


def _response_params(rng, K, M, omega, d):
    """Parameters that the weather term reads (network, scaler, decay) on an edgeless graph."""
    return ModelParams(
        alpha=EdgeWeights(graph=Graph(num_nodes=K, edges=())),
        beta=np.ones(K),
        gamma=np.ones(K),
        decay=DecayConfig(omega=omega, window_slots=d),
        mlp=MlpParams.init_random(M, hidden=(5, 3), seed=int(rng.integers(0, 2**31))),
        scaler=WeatherScaler(mean=rng.normal(size=M), scale=rng.uniform(0.5, 2.0, M)),
    )


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    K=st.one_of(st.integers(1, 12), st.integers(1025, 1500)),
    T=st.integers(1, 4 * CHUNK_SLOTS + 20),
    M=st.integers(1, 3),
    d=st.integers(1, 60),
    chunks=st.integers(1, 3),
    data=st.data(),
)
def test_blocked_weather_response_is_the_whole_series_chain(seed, K, T, M, d, chunks, data):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0, size=(K, T, M))
    omega = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=M, max_size=M)))
    params = _response_params(rng, K, M, omega, d)
    v = accumulate((x - params.scaler.mean) / params.scaler.scale, params.decay)
    expected = mlp_forward(params.mlp, v.reshape(K * T, M)).reshape(K, T)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "BLOCK_CELLS", K * chunks * CHUNK_SLOTS)  # blocks of `chunks` weather chunks
        assert len(time_blocks(K, T)) == -(-T // (chunks * CHUNK_SLOTS))
        got = weather_response(params, x)
    assert got.tobytes() == expected.tobytes()


def test_weather_response_memory_grows_only_by_its_output():
    K, T, M = 256, 512, 4  # 128-slot blocks
    rng = np.random.default_rng(12)
    params = _response_params(rng, K, M, rng.uniform(0.0, 1.0, M), 24)
    peaks = []
    for slots in (T, 4 * T):
        x = rng.normal(size=(K, slots, M))
        tracemalloc.start()
        try:
            weather_response(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # a whole-series chain would add the standardized weather and v, 2 M floats per cell
    assert peaks[1] - peaks[0] <= K * 3 * T * 8 + 64 * 1024, peaks


def test_flatten_roundtrip_and_validation():
    mlp = MlpParams.init_random(2, hidden=(3, 2), seed=5)
    again = mlp.unflatten_like(mlp.flatten())
    for w1, w2 in zip(mlp.weights, again.weights):
        assert_array_equal(w1, w2)
    with pytest.raises(ValidationError, match="width 1"):
        MlpParams(weights=[np.zeros((2, 3))], biases=[np.zeros(3)])
    with pytest.raises(ValidationError, match="mismatch"):
        MlpParams(weights=[np.zeros((2, 3)), np.zeros((3, 1))], biases=[np.zeros(4), np.zeros(1)])
    with pytest.raises(ValidationError, match="non-finite"):
        MlpParams(weights=[np.array([[np.inf]])], biases=[np.zeros(1)])


def test_init_random_reproducible():
    a = MlpParams.init_random(3, hidden=(4,), seed=11)
    b = MlpParams.init_random(3, hidden=(4,), seed=11)
    c = MlpParams.init_random(3, hidden=(4,), seed=12)
    assert_array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])
    assert all((b == 0).all() for b in a.biases)


# -- triggering kernel ----------------------------------------------------------


def test_kernel_matrix_matches_direct_sum():
    rng = np.random.default_rng(6)
    counts = rng.integers(0, 4, (3, 60)).astype(float)
    beta = np.array([0.3, 1.1, 2.4])
    d = 7
    R = kernel_matrix(counts, beta, d)
    expected = np.zeros_like(R)
    for j in range(3):
        for t in range(60):
            for lag in range(1, min(t, d) + 1):
                expected[j, t] += counts[j, t - lag] * beta[j] * math.exp(-beta[j] * lag)
    assert_allclose(R, expected, rtol=1e-12, atol=1e-12)


def test_kernel_truncation_drops_old_events():
    counts = np.zeros((1, 10))
    counts[0, 0] = 3.0
    R = kernel_matrix(counts, np.array([0.5]), trig_window=5)
    assert R[0, 5] > 0.0
    assert_allclose(R[0, 6:], 0.0, atol=1e-15)


def test_kernel_matrix_holds_at_most_two_results():
    K, T = 200, 2000
    counts = np.random.default_rng(7).poisson(1.0, (K, T))
    tracemalloc.start()
    try:
        R = kernel_matrix(counts, np.full(K, 0.5), 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float history copy and the sums during the roll, then the sums and their transposed copy
    assert peak < 2.1 * R.nbytes, peak / R.nbytes


def test_kernel_mass_closed_form():
    for beta, L in [(0.7, 40), (2.0, 5), (10.0, 40)]:
        direct = sum(beta * math.exp(-beta * s) for s in range(1, L + 1))
        assert kernel_mass_closed_form(beta, L) == pytest.approx(direct, rel=1e-12)
    assert kernel_mass_closed_form(0.0, 40) == 0.0


# -- coupling ---------------------------------------------------------------------


def _per_edge(alpha, X, adjoint=False):
    """Reference: one edge at a time in (target, source) order, zero weights skipped."""
    out, dense = X.copy(), dense_alpha(alpha)
    for s, t in sorted(alpha.graph.edges, key=lambda e: (e[1], e[0])):
        a = dense[t, s]
        if a != 0.0:
            if adjoint:
                out[s] += a * X[t]
            else:
                out[t] += a * X[s]
    return out


@given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 8), T=st.integers(0, 6), n_edges=st.integers(0, 20))
def test_coupling_apply_matches_per_edge_loop(seed, K, T, n_edges):
    rng = np.random.default_rng(seed)
    pairs = [(s, t) for s in range(K) for t in range(K) if s != t]
    edges = [pairs[int(k)] for k in rng.permutation(len(pairs))[:n_edges]]
    alpha = rng.uniform(0.0, 1.0, (K, K)) * (rng.uniform(size=(K, K)) < 0.7)
    w = EdgeWeights(graph=Graph(num_nodes=K, edges=tuple(edges)), alpha=alpha)
    for X in (rng.uniform(0.0, 3.0, K), rng.uniform(-1.0, 3.0, (K, T))):
        assert_array_equal(indirect_field(w, X), _per_edge(w, X))
        assert_array_equal(Coupling(w).adjoint(X), _per_edge(w, X, adjoint=True))


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 14),
    density=st.floats(0.0, 1.0),
    zero_share=st.floats(0.0, 1.0),
    hub=st.booleans(),
    trailing=st.sampled_from([(), (0,), (1,), (5,), (3, 2), (2, 0)]),
)
@example(seed=1, K=13, density=0.1, zero_share=0.0, hub=True, trailing=(4,))  # in- and out-degree 12
def test_coupling_sums_match_np_add_at(seed, K, density, zero_share, hub, trailing):
    rng = np.random.default_rng(seed)
    edges = {(s, t) for s in range(K) for t in range(K) if s != t and rng.uniform() < density}
    if hub:  # unit 0 sends to and receives from every other unit
        edges |= {(s, 0) for s in range(1, K)} | {(0, t) for t in range(1, K)}
    graph = Graph(num_nodes=K, edges=tuple(edges))
    E = len(graph.edges)
    alpha = EdgeWeights(graph, rng.uniform(0.0, 1.0, E) * (rng.uniform(size=E) >= zero_share))
    X = rng.uniform(-1.0, 3.0, (K, *trailing))
    coupling = Coupling(alpha)
    assert_array_equal(coupling.apply(X), add_at_coupling(alpha, X), strict=True)
    assert_array_equal(coupling.adjoint(X), add_at_coupling(alpha, X, adjoint=True), strict=True)


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 10),
    density=st.floats(0.0, 1.0),
    S=st.integers(1, 4),
    B=st.integers(0, 3),
    window=st.integers(1, 6),
)
def test_stacked_sets_give_each_set_its_own_bits(seed, K, density, S, B, window):
    # S weight sets on one graph, summed over the union of their active edges,
    # and a kernel of (K, S) rates: column s is what set s alone computes
    rng = np.random.default_rng(seed)
    edges = tuple((s, t) for s in range(K) for t in range(K) if s != t and rng.uniform() < density)
    graph = Graph(num_nodes=K, edges=edges)
    E = len(graph.edges)
    sets = [EdgeWeights(graph, rng.uniform(0.0, 1.0, E) * (rng.uniform(size=E) < 0.6)) for _ in range(S)]
    beta = rng.uniform(0.0, 2.0, (K, S))
    X, new, old = (rng.uniform(0.0, 3.0, (K, S, B)) for _ in range(3))
    coupling, kern = Coupling(*sets), Kernel(beta, window)
    for s, alpha in enumerate(sets):
        alone = Coupling(alpha)
        assert_array_equal(coupling.apply(X)[:, s], alone.apply(X[:, s]), strict=True)
        assert_array_equal(coupling.adjoint(X)[:, s], alone.adjoint(X[:, s]), strict=True)
        lone_kernel = Kernel(beta[:, s].copy(), window)
        for gone in (None, old):
            assert_array_equal(
                kern.step(X, new, gone)[:, s],
                lone_kernel.step(X[:, s], new[:, s], None if gone is None else gone[:, s]),
                strict=True,
            )


# -- intensity ------------------------------------------------------------------


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    S=st.integers(1, 3),
    B=st.integers(1, 40),
    caller=st.sampled_from(["block", "rows", "stacked"]),
)
def test_intensity_from_trigger_forms_lambda_in_place_of_the_triggering_term(seed, K, S, B, caller):
    # the shapes its callers pass: a block's K x Tb terms, a network chunk's
    # rows (a view into the block's triggering term) and the rollout's (K, S, 1)
    # weather term against its (K, S, B) sums; values span many exponents
    rng = np.random.default_rng(seed)
    trigger_shape, direct_shape = {
        "block": ((K, B), (K, B)),
        "rows": ((K * B,), (K * B,)),
        "stacked": ((K, S, B), (K, S, 1)),
    }[caller]
    n = math.prod(trigger_shape)
    buffer = rng.uniform(0.0, 3.0, n + 2) * 10.0 ** rng.integers(-9, 4, n + 2)
    before = buffer.copy()
    trigger = buffer[1 : n + 1].reshape(trigger_shape)
    direct = rng.uniform(0.0, 5.0, direct_shape) * 10.0 ** rng.integers(-9, 4, direct_shape)
    eps = float(rng.uniform(1e-4, 1e-2))
    expected = direct + trigger + eps
    lam = intensity_from_trigger(trigger, direct, eps)
    assert lam is trigger
    assert_array_equal(lam, expected, strict=True)
    assert_array_equal(buffer[[0, -1]], before[[0, -1]], strict=True)  # nothing beyond the term is written


def _two_unit_params(alpha_01=0.5):
    """Unit 1 feeds unit 0 with weight alpha; gamma zero, network all-zero."""
    g = Graph(num_nodes=2, edges=((1, 0),))
    w = EdgeWeights(graph=g, alpha=[[1.0, alpha_01], [0.0, 1.0]])
    return ModelParams(
        alpha=w,
        beta=np.array([1.0, 2.0]),
        gamma=np.zeros(2),
        decay=DecayConfig(omega=np.array([0.1]), window_slots=4),
        mlp=MlpParams.zeros(1, hidden=(2,)),
        scaler=WeatherScaler(mean=np.zeros(1), scale=np.ones(1)),
        eps=1e-3,
    )


def test_intensity_hand_values():
    params = _two_unit_params()
    counts = np.array([[5.0, 0.0], [4.0, 0.0]])
    v = np.zeros((2, 2, 1))

    lam, direct, indirect = intensity(params, counts, v, 0, 0)
    assert (direct, indirect) == (0.0, 0.0)
    assert lam == pytest.approx(1e-3, rel=1e-15)

    # self: 5 * 1 * e^-1; neighbor: 0.5 * 4 * 2 * e^-2
    lam, direct, indirect = intensity(params, counts, v, 0, 1)
    self_term = 5.0 * math.exp(-1.0)
    cross_term = 0.5 * 4.0 * 2.0 * math.exp(-2.0)
    assert self_term == pytest.approx(1.8394, abs=5e-5)
    assert cross_term == pytest.approx(0.5413, abs=5e-5)
    assert indirect == pytest.approx(self_term + cross_term, rel=1e-14)
    assert lam == pytest.approx(self_term + cross_term + 1e-3, rel=1e-14)


def test_intensity_direct_term():
    params = _two_unit_params()
    params.gamma = np.array([0.4, 0.0])
    v = np.zeros((2, 3, 1))
    lam, direct, indirect = intensity(params, np.zeros((2, 3)), v, 0, 2)
    assert direct == pytest.approx(0.4 * math.log(2.0), rel=1e-14)
    assert indirect == 0.0


def test_intensity_field_agrees_with_single_cell():
    rng = np.random.default_rng(9)
    params, counts, _ = random_small_instance(rng, K=4, T=9, M=2, n_edges=4)
    v = rng.normal(size=(4, 9, 2))
    direct = params.gamma[:, None] * mlp_forward(params.mlp, v.reshape(4 * 9, 2)).reshape(4, 9)
    field = intensity_field(params, counts, None, direct=direct)
    assert isinstance(field, IntensityField)
    for i in range(4):
        for t in range(9):
            lam, direct, indirect = intensity(params, counts, v, i, t)
            assert lam == pytest.approx(field.lam[i, t], rel=1e-13, abs=1e-13)
            assert direct == pytest.approx(field.direct[i, t], rel=1e-13, abs=1e-13)
            assert indirect == pytest.approx(field.indirect[i, t], rel=1e-13, abs=1e-13)


def test_intensity_field_matches_naive_oracle():
    rng = np.random.default_rng(10)
    for _ in range(3):
        params, counts, weather = random_small_instance(rng, K=4, T=8, M=2, n_edges=4)
        field = intensity_field(params, counts, weather)
        lam0, d0, i0 = naive_intensity_field(params, counts, weather)
        assert_allclose(field.lam, lam0, rtol=1e-13, atol=1e-13)
        assert_allclose(field.direct, d0, rtol=1e-13, atol=1e-13)
        assert_allclose(field.indirect, i0, rtol=1e-13, atol=1e-13)


def test_intensity_bounds_checks():
    params = _two_unit_params()
    v = np.zeros((2, 2, 1))
    with pytest.raises(ValidationError, match="outside"):
        intensity(params, np.zeros((2, 2)), v, 2, 0)
    with pytest.raises(ValidationError, match="does not match"):
        intensity_field(params, np.zeros((2, 2)), None, direct=np.zeros((3, 2)))


# -- parameter container ---------------------------------------------------------


def test_model_params_validation():
    g = Graph(num_nodes=2, edges=((0, 1),))
    w = EdgeWeights(graph=g)
    kwargs = dict(
        alpha=w,
        beta=np.ones(2),
        gamma=np.ones(2),
        decay=DecayConfig(omega=np.array([0.1])),
        mlp=MlpParams.zeros(1, hidden=(2,)),
        scaler=WeatherScaler(mean=np.zeros(1), scale=np.ones(1)),
    )
    ModelParams(**kwargs).check_invariants()
    with pytest.raises(ValidationError, match="length-2"):
        ModelParams(**{**kwargs, "beta": np.ones(3)})
    with pytest.raises(ValidationError, match="floor"):
        ModelParams(**{**kwargs, "eps": 0.0})
    with pytest.raises(ValidationError, match="input width"):
        ModelParams(**{**kwargs, "mlp": MlpParams.zeros(2, hidden=(2,))})
    bad = ModelParams(**kwargs)
    bad.beta[0] = -0.5
    with pytest.raises(ValidationError, match="recovery"):
        bad.check_invariants()


def test_params_copy_is_deep():
    rng = np.random.default_rng(12)
    params = random_small_params(rng, K=3, M=2, n_edges=3)
    clone = params.copy()
    clone.beta[0] += 1.0
    clone.alpha.w[0] += 0.1
    clone.mlp.weights[0][0, 0] += 1.0
    assert params.beta[0] != clone.beta[0]
    assert params.alpha.w[0] != clone.alpha.w[0]
    assert params.mlp.weights[0][0, 0] != clone.mlp.weights[0][0, 0]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), K=st.integers(2, 12), data=st.data())
def test_serialize_roundtrip(tmp_path_factory, seed, K, data):
    rng = np.random.default_rng(seed)
    pairs = [(s, t) for s in range(K) for t in range(K) if s != t]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))  # any subset, even none
    graph = Graph(num_nodes=K, edges=tuple(e for e, k in zip(pairs, keep) if k))
    weights = enforce_no_loops(EdgeWeights(graph, rng.uniform(0.05, 0.6, len(graph.edges))))  # zeros on loop pairs
    params = random_small_params(rng, K=K, M=2, hidden=(3, 2))
    params = dataclasses.replace(params, alpha=weights,
                                 scaler=WeatherScaler(mean=rng.normal(size=2), scale=rng.uniform(0.5, 2.0, 2)))
    path = tmp_path_factory.mktemp("model") / "model.gshk"
    serialize(params, path)
    again = deserialize(path)
    assert again.graph.edges == params.graph.edges
    for got, want in [(again.alpha.w, params.alpha.w), (again.beta, params.beta), (again.gamma, params.gamma),
                      (again.decay.omega, params.decay.omega), (again.scaler.mean, params.scaler.mean),
                      (again.scaler.scale, params.scaler.scale), *zip(again.mlp.weights, params.mlp.weights),
                      *zip(again.mlp.biases, params.mlp.biases)]:
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert again.decay.window_slots == params.decay.window_slots
    assert again.eps == params.eps and again.trig_window == params.trig_window
    serialize(again, path.with_name("again.gshk"))
    assert path.with_name("again.gshk").read_bytes() == path.read_bytes()
    meta, arrays = read_container(path, MODEL_SCHEMA)
    assert "edges" not in meta
    assert all(a.ndim == 1 for name, a in arrays.items() if not name.startswith("mlp_w"))  # no K x K array
    # identical intensities on fresh data
    counts = rng.integers(0, 3, (K, 6))
    weather = rng.normal(size=(K, 6, 2))
    assert_array_equal(intensity_field(again, counts, weather).lam, intensity_field(params, counts, weather).lam)


def test_model_file_save_and_load_memory_grows_with_edges_and_units(tmp_path):
    K, M = 3000, 4
    # each unit coupled both ways with the next four: 24000 candidate edges, loops pruned
    edges = tuple((s, (s + d) % K) for s in range(K) for d in (1, 2, 3, 4)) + tuple(
        ((s + d) % K, s) for s in range(K) for d in (1, 2, 3, 4))
    rng = np.random.default_rng(21)
    params = ModelParams(
        alpha=enforce_no_loops(EdgeWeights(Graph(num_nodes=K, edges=edges), rng.uniform(0.05, 0.6, len(edges)))),
        beta=rng.uniform(0.3, 2.0, K),
        gamma=rng.uniform(0.1, 1.5, K),
        decay=DecayConfig(omega=rng.uniform(0.0, 1.2, M)),
        mlp=MlpParams.init_random(M, hidden=(32, 16), seed=21),
        scaler=WeatherScaler(mean=np.zeros(M), scale=np.ones(M)),
    )
    path = tmp_path / "model.gshk"
    tracemalloc.start()
    try:
        serialize(params, path)
        again = deserialize(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again.alpha.w.tobytes() == params.alpha.w.tobytes()
    # a dense K x K coupling alone would be 8 K^2 bytes, 72 MB here
    assert peak < 1024 * (len(edges) + K), f"peak {peak} bytes for {len(edges)} edges and {K} units"


def test_deserialize_rejects_wrong_schema(tmp_path):
    from gridshock.container import write_container
    from gridshock.errors import FileFormatError

    path = tmp_path / "bad.gshk"
    write_container(path, "something-else", {}, {"x": np.zeros(1)})
    with pytest.raises(FileFormatError, match="schema"):
        deserialize(path)
