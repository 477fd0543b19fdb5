import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import expit

from oracles import add_at_coupling, naive_intensity_field, naive_mu
from synth import random_small_instance, random_small_params
from gridshock.errors import ValidationError
from gridshock.model import (
    MLP_CHUNK_ROWS,
    Coupling,
    IntensityField,
    Kernel,
    MlpParams,
    ModelParams,
    deserialize,
    direct_field,
    indirect_field,
    intensity,
    intensity_field,
    kernel_mass_closed_form,
    kernel_matrix,
    mlp_backward,
    mlp_forward,
    serialize,
    softplus,
)
from gridshock.topology import EdgeWeights, Graph
from gridshock.weather_effect import DecayConfig, WeatherScaler


# -- weather-response network --------------------------------------------------


def test_zero_network_outputs_ln2():
    assert softplus(np.array(0.0)) == pytest.approx(math.log(2.0), rel=1e-15)
    mlp = MlpParams.zeros(3, hidden=(4, 2))
    for v in (np.zeros(3), np.array([5.0, -2.0, 0.1])):
        mu, _ = mlp_forward(mlp, v)
        assert mu == pytest.approx(math.log(2.0), rel=1e-15)


def test_one_hidden_unit_hand_forward():
    mlp = MlpParams(weights=[np.array([[2.0]]), np.array([[1.5]])], biases=[np.array([0.5]), np.array([-0.2])])
    mu, _ = mlp_forward(mlp, np.array([0.3]))
    z = 1.5 * math.tanh(2.0 * 0.3 + 0.5) - 0.2
    assert mu == pytest.approx(math.log1p(math.exp(z)), rel=1e-14)


def test_network_output_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mlp = MlpParams.init_random(2, hidden=(5,), seed=int(rng.integers(1 << 30)))
        v = rng.normal(0, 5, (17, 2))
        mu, _ = mlp_forward(mlp, v)
        assert (mu >= 0).all()


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mlp = MlpParams.init_random(3, hidden=(4, 3), seed=int(rng.integers(1 << 30)))
        v = rng.normal(0, 2, (9, 3))
        mu, _ = mlp_forward(mlp, v)
        expected = [naive_mu(mlp.weights, mlp.biases, row) for row in v]
        assert_allclose(mu, expected, rtol=1e-13, atol=1e-13)
        # single-vector call agrees with the batched one
        single, _ = mlp_forward(mlp, v[4])
        assert single == pytest.approx(mu[4], rel=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    mlp = MlpParams.init_random(2, hidden=(3,), seed=9)
    v = rng.normal(size=(6, 2))
    dmu = rng.normal(size=6)

    def value(flat):
        candidate = mlp.unflatten_like(flat)
        mu, _ = mlp_forward(candidate, v)
        return float(dmu @ mu)

    _, cache = mlp_forward(mlp, v)
    grads, _ = mlp_backward(mlp, cache, dmu, np.zeros_like(v))
    flat0 = mlp.flatten()
    g_flat = grads.flatten()
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
        fd = (float(dmu @ mlp_forward(mlp, vp)[0]) - float(dmu @ mlp_forward(mlp, vm)[0])) / (2 * h)
        assert fd == pytest.approx(mlp_backward(mlp, cache, dmu, one_hot)[1][m], rel=1e-6, abs=1e-9)


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
        mu, cache = mlp_forward(mlp, v)
        assert_array_equal(mu, _whole_array_forward(mlp, v)[0])
        assert_array_equal(cache, v)
    single, _ = mlp_forward(mlp, v[-1])
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
        grads, contracted = mlp_backward(mlp, mlp_forward(mlp, v)[1], dmu, tangent)
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
        mu, cache = mlp_forward(mlp, v)
        grads, contracted = mlp_backward(mlp, cache, np.ones(len(v)), np.ones_like(v))
    assert np.isfinite(mu).all() and np.isfinite(grads.flatten()).all() and np.isfinite(contracted).all()
    # softplus' is 1 far above zero and 0 far below it
    assert grads.biases[-1][0] == (len(v) if z_out > 0 else 0.0)


def test_direct_field_holds_no_activations():
    K, T, M = 40, 1000, 3
    params = random_small_params(np.random.default_rng(8), K=K, M=M, hidden=(32, 16))
    v = np.random.default_rng(9).normal(size=(K, T, M))
    tracemalloc.start()
    try:
        direct_field(params, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole-array pass cached 32 + 16 hidden floats per row; now the outputs dominate
    assert peak < K * T * 48 * 8 / 8, f"peak {peak} bytes"


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


def test_kernel_mass_closed_form():
    for beta, L in [(0.7, 40), (2.0, 5), (10.0, 40)]:
        direct = sum(beta * math.exp(-beta * s) for s in range(1, L + 1))
        assert kernel_mass_closed_form(beta, L) == pytest.approx(direct, rel=1e-12)
    assert kernel_mass_closed_form(0.0, 40) == 0.0


# -- coupling ---------------------------------------------------------------------


def _per_edge(alpha, X, adjoint=False):
    """Reference: one edge at a time in (target, source) order, zero weights skipped."""
    out = X.copy()
    for s, t in sorted(alpha.graph.edges, key=lambda e: (e[1], e[0])):
        a = alpha.alpha[t, s]
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
    field = intensity_field(params, counts, None, direct=direct_field(params, v)[0])
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


def test_serialize_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    params = random_small_params(rng, K=4, M=2, n_edges=5, hidden=(3, 2))
    path = tmp_path / "model.gshk"
    serialize(params, path)
    again = deserialize(path)
    assert again.alpha.w.tobytes() == params.alpha.w.tobytes()
    assert_array_equal(again.alpha.alpha, params.alpha.alpha)
    serialize(again, tmp_path / "again.gshk")
    assert (tmp_path / "again.gshk").read_bytes() == path.read_bytes()
    assert again.graph.edges == params.graph.edges
    assert_array_equal(again.beta, params.beta)
    assert_array_equal(again.gamma, params.gamma)
    assert_array_equal(again.decay.omega, params.decay.omega)
    assert again.decay.window_slots == params.decay.window_slots
    assert again.eps == params.eps and again.trig_window == params.trig_window
    assert again.scaler == params.scaler
    for w1, w2 in zip(again.mlp.weights, params.mlp.weights):
        assert_array_equal(w1, w2)
    # identical intensities on fresh data
    counts = rng.integers(0, 3, (4, 6))
    weather = rng.normal(size=(4, 6, 2))
    assert_array_equal(intensity_field(again, counts, weather).lam, intensity_field(params, counts, weather).lam)


def test_deserialize_rejects_wrong_schema(tmp_path):
    from gridshock.container import write_container
    from gridshock.errors import FileFormatError

    path = tmp_path / "bad.gshk"
    write_container(path, "something-else", {}, {"x": np.zeros(1)})
    with pytest.raises(FileFormatError, match="schema"):
        deserialize(path)
