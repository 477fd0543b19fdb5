import dataclasses
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from synth import random_small_instance, random_small_params, wrap_dataset
from gridshock import simulate
from gridshock.errors import DivergenceError, NumericError, ValidationError
from gridshock.model import (
    Coupling,
    Kernel,
    MlpParams,
    ModelParams,
    direct_from_weather,
    intensity_field,
    kernel_matrix,
)
from gridshock.simulate import (
    LAMBDA_OVERFLOW,
    MEAN,
    POISSON_GUESS_MIN,
    ReductionResult,
    Scenario,
    SimResult,
    apply_scenario,
    load_scenario,
    outage_reductions,
    poisson_quantile,
    simulate_paths,
    sweep_scenarios,
    top_e_edges_per_unit,
    top_k_units_by_max_outages,
)
from gridshock.topology import EdgeWeights, Graph, enforce_no_loops
from gridshock.weather_effect import DecayConfig, WeatherScaler


def _chain_params(K=2, alphas=((0, 1, 0.8),), beta=(1.0, 1.5), gamma=(0.5, 0.3), eps=1e-3):
    """K units on explicit edges, all-zero network (mu = ln 2), identity scaler."""
    edges = tuple((s, t) for s, t, _ in alphas)
    g = Graph(num_nodes=K, edges=edges)
    alpha = np.eye(K)
    for s, t, a in alphas:
        alpha[t, s] = a
    w = EdgeWeights(graph=g, alpha=alpha)
    return ModelParams(
        alpha=w,
        beta=np.array(beta, dtype=float),
        gamma=np.array(gamma, dtype=float),
        decay=DecayConfig(omega=np.array([0.1]), window_slots=4),
        mlp=MlpParams.zeros(1, hidden=(2,)),
        scaler=WeatherScaler(mean=np.zeros(1), scale=np.ones(1)),
        eps=eps,
    )


def _shell(params, T):
    K = params.num_units
    return wrap_dataset(np.zeros((K, T), dtype=np.int64), np.zeros((K, T, 1)))


# -- scenario declaration -------------------------------------------------------


def test_scenario_validation():
    for bad in (-0.5, None, math.nan, math.inf, -math.inf, "half", 10**400):
        with pytest.raises(ValidationError, match=">= 0"):
            Scenario(edge_reweights=[(0, 1, bad)])
        with pytest.raises(ValidationError, match=">= 0"):
            Scenario(gamma_overrides=[(0, bad)])
        with pytest.raises(ValidationError, match=">= 0"):
            Scenario(top_k_units=1, top_e_edges=1, edge_target=bad)
    # JSON null / NaN / Infinity reach the same check through from_dict
    for text in ("null", "NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValidationError, match=">= 0"):
            Scenario.from_dict(json.loads(f'{{"beta_overrides": [[0, {text}]]}}'))
    with pytest.raises(ValidationError, match="together"):
        Scenario(top_k_units=2)
    # numpy integers are integers in Python-API scenarios; bools are not
    Scenario(gamma_overrides=[(np.int64(1), 0.5)], top_k_units=np.int32(2), top_e_edges=np.uint8(1))
    with pytest.raises(ValidationError, match="integer"):
        Scenario(gamma_top_units=np.bool_(True))
    assert Scenario().is_identity()
    assert not Scenario(gamma_overrides=[(0, 0.2)]).is_identity()


def test_scenario_roundtrip(tmp_path):
    scen = Scenario(
        edge_reweights=[(0, 1, 0.0), (2, 3, MEAN)],
        gamma_overrides=[(1, 0.25)],
        beta_overrides=[(0, MEAN)],
        omega_overrides=[(0, 0.7)],
        top_k_units=2,
        top_e_edges=1,
        gamma_top_units=1,
    )
    path = tmp_path / "scen.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(scen), fh)
    assert load_scenario(path) == scen
    with pytest.raises(ValidationError, match="unknown scenario field"):
        Scenario.from_dict({"bogus": 1})


@pytest.mark.parametrize(
    "payload, match",
    [
        ([{"gamma_top_units": 1}], "must hold a JSON object"),
        ({"edge_reweights": [[0, 1]]}, "edge_reweights must be a list of [source, target, value] clauses"),
        ({"gamma_overrides": [[0, 0.5, 1]]}, "gamma_overrides must be a list of [unit, value] clauses"),
        ({"beta_overrides": [0, 0.5]}, "beta_overrides must be a list of [unit, value] clauses"),
        ({"omega_overrides": {"0": 0.5}}, "omega_overrides must be a list of [variable, value] clauses"),
        ({"gamma_overrides": [["a", 0.5]]}, "with integer indices >= 0, got [['a', 0.5]]"),
        ({"gamma_overrides": [[0.5, 0.5]]}, "with integer indices >= 0, got [[0.5, 0.5]]"),
        ({"edge_reweights": [[0, -1, 0.0]]}, "with integer indices >= 0, got [[0, -1, 0.0]]"),
        ({"omega_overrides": [[True, 0.7]]}, "with integer indices >= 0, got [[True, 0.7]]"),
        ({"gamma_top_units": -2}, "gamma_top_units must be an integer >= 0, got -2"),
        ({"beta_bottom_units": 1.5}, "beta_bottom_units must be an integer >= 0, got 1.5"),
        ({"top_k_units": "2", "top_e_edges": 1}, "top_k_units must be an integer >= 0, got '2'"),
    ],
    ids=["list", "short-edge", "long-override", "flat-clauses", "object-clauses", "string-index",
         "float-index", "negative-index", "bool-index", "negative-count", "float-count", "string-count"],
)
def test_scenario_file_structure_is_validated(tmp_path, payload, match):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match=re.escape(match)):
        load_scenario(path)


def test_scenario_file_must_be_json(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_scenario(path)


# -- scenario application ---------------------------------------------------------


def test_apply_scenario_edge_and_margin_edits():
    params = _chain_params(K=3, alphas=((0, 1, 0.4), (1, 2, 0.2)), beta=(1.0, 1.5, 2.0), gamma=(0.5, 0.3, 0.1))
    scen = Scenario(
        edge_reweights=[(0, 1, 0.05), (1, 2, MEAN)],
        gamma_overrides=[(2, MEAN)],
        beta_overrides=[(0, 9.0)],
        omega_overrides=[(0, 0.7)],
    )
    out = apply_scenario(params, scen)
    assert out.alpha.alpha[1, 0] == 0.05
    assert out.alpha.alpha[2, 1] == pytest.approx((0.4 + 0.2) / 2)  # mean of original couplings
    assert out.gamma[2] == pytest.approx((0.5 + 0.3 + 0.1) / 3)
    assert out.beta[0] == 9.0
    assert out.decay.omega[0] == 0.7
    # original untouched
    assert params.alpha.alpha[1, 0] == 0.4 and params.beta[0] == 1.0


def test_apply_scenario_rejects_bad_targets():
    params = _chain_params()
    with pytest.raises(ValidationError, match="not in the graph"):
        apply_scenario(params, Scenario(edge_reweights=[(1, 0, 0.2)]))
    with pytest.raises(ValidationError, match="unknown unit"):
        apply_scenario(params, Scenario(gamma_overrides=[(7, 0.1)]))
    with pytest.raises(ValidationError, match="explicit values"):
        apply_scenario(params, Scenario(omega_overrides=[(0, MEAN)]))
    with pytest.raises(ValidationError, match="reference history"):
        apply_scenario(params, Scenario(top_k_units=1, top_e_edges=1))


def test_apply_scenario_reapplies_no_loop_projection():
    params = _chain_params(K=2, alphas=((0, 1, 0.4),))
    # both directions are candidates; only 0 -> 1 is active originally
    g = Graph(num_nodes=2, edges=((0, 1), (1, 0)))
    params.alpha = EdgeWeights(graph=g, alpha=[[1.0, 0.0], [0.4, 1.0]])
    out = apply_scenario(params, Scenario(edge_reweights=[(1, 0, 0.9)]))
    assert out.alpha.alpha[0, 1] == 0.9
    assert out.alpha.alpha[1, 0] == 0.0  # smaller direction dropped
    out.check_invariants()


def test_top_unit_and_edge_selectors():
    counts = np.array([[0, 5, 1], [9, 0, 0], [2, 2, 2]])
    assert top_k_units_by_max_outages(counts, 2) == [1, 0]
    params = _chain_params(K=3, alphas=((0, 1, 0.4), (0, 2, 0.7), (1, 2, 0.2)), beta=(1, 1, 1), gamma=(0.1, 0.1, 0.1))
    assert top_e_edges_per_unit(params, [0], 1) == [(0, 2)]
    assert top_e_edges_per_unit(params, [0, 1], 2) == [(0, 2), (0, 1), (1, 2)]


def _scan_every_edge(params, units, e):
    """Reference: each unit's outgoing edges found by a scan of the whole edge list."""
    out = []
    index, w = params.graph.index, params.alpha.w
    for j in units:
        outgoing = [(s, t) for s, t in params.graph.edges if s == j]
        outgoing.sort(key=lambda st: (-w[index[st]], st[1]))
        out.extend(outgoing[:e])
    return out


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(1, 9),
    n_edges=st.integers(0, 30),
    levels=st.sampled_from([None, 1, 3]),
    e=st.integers(0, 6),
    units=st.lists(st.integers(0, 10), max_size=8),
)
def test_top_edges_match_a_scan_of_every_edge(seed, K, n_edges, levels, e, units):
    # ties in weight (few weight levels, and the zeros the no-loop projection
    # leaves) rank by target; units without edges, repeated or outside the
    # graph select nothing more than the scan does
    rng = np.random.default_rng(seed)
    pairs = [(s, t) for s in range(K) for t in range(K) if s != t]
    graph = Graph(num_nodes=K, edges=tuple(pairs[int(k)] for k in rng.permutation(len(pairs))[:n_edges]))
    w = rng.uniform(0.0, 1.0, len(graph.edges))
    if levels is not None:
        w = np.round(w * levels) / levels
    alpha = enforce_no_loops(EdgeWeights(graph, w))
    params = mock.Mock(graph=graph, alpha=alpha)  # only the graph and its weights are read
    assert top_e_edges_per_unit(params, units, e) == _scan_every_edge(params, units, e)


def test_apply_scenario_selector_clauses():
    params = _chain_params(K=3, alphas=((0, 1, 0.4), (0, 2, 0.7), (1, 2, 0.2)), beta=(1.0, 0.5, 2.0), gamma=(0.6, 0.3, 0.9))
    history = np.array([[7, 0, 0], [1, 0, 0], [0, 2, 0]])
    scen = Scenario(top_k_units=1, top_e_edges=1, edge_target=0.0, gamma_top_units=1, beta_bottom_units=1)
    out = apply_scenario(params, scen, reference_history=history)
    assert out.alpha.alpha[2, 0] == 0.0  # unit 0's strongest edge cut
    assert out.gamma[2] == pytest.approx(np.mean([0.6, 0.3, 0.9]))  # largest margin reset
    assert out.beta[1] == pytest.approx(np.mean([1.0, 0.5, 2.0]))  # slowest recovery reset


# -- Poisson sampler ---------------------------------------------------------------

# both sides of the switch from the search up from 0 to the search from a guess
SAMPLER_LAMBDAS = [0.0, 1e-3, 0.5, float(np.nextafter(POISSON_GUESS_MIN, 0.0)), POISSON_GUESS_MIN, 100.0, 1e4]
U_TOP = float(np.nextafter(1.0, 0.0))  # the largest double below 1


def _poisson_pmf(lam, ks):
    """Poisson pmf at the integers `ks`, from math.lgamma in log space."""
    if lam == 0:
        return np.array([float(k == 0) for k in ks])
    return np.array([math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in ks])


@pytest.mark.parametrize("lam", SAMPLER_LAMBDAS)
def test_quantile_matches_the_poisson_pmf(lam):
    # N evenly spread uniforms land in bin k within one of N * pmf(k) times,
    # as they do under the true quantile function
    N = 20_000
    n = poisson_quantile(np.full(N, lam), (np.arange(N) + 0.5) / N)
    ks = np.arange(n.max() + 2)
    pmf = _poisson_pmf(lam, ks)
    assert np.abs(np.bincount(n, minlength=ks.size) - N * pmf).max() <= 1.0
    # at every CDF step well inside (0, 1), u just below F(k) gives k and u
    # just above it gives k + 1
    F = np.cumsum(pmf)
    edges = np.array(
        [k for k in ks[:-1] if 1e-12 < F[k] < 1 - 1e-6 and min(pmf[k], pmf[k + 1]) > 1e-6 * F[k]], dtype=np.int64
    )
    assert edges.size or lam == 0.0
    assert_array_equal(poisson_quantile(lam, F[edges] * (1 - 1e-9)), edges)
    assert_array_equal(poisson_quantile(lam, F[edges] * (1 + 1e-9)), edges + 1)


@pytest.mark.parametrize("lam", [*SAMPLER_LAMBDAS, 1e6, LAMBDA_OVERFLOW])
def test_quantile_ends_at_both_extremes_of_u(lam):
    n_zero, n_top = poisson_quantile(lam, [0.0, U_TOP])
    assert n_zero == 0
    # a finite count in the far upper tail: the sum stops once no term can change it
    assert (n_top == 0) if lam == 0 else (lam <= n_top <= lam + 12 * math.sqrt(lam) + 40)


def test_counts_rise_with_lambda_under_common_uniforms():
    # (at u within rounding of 1 the count is where the running sum stops
    # growing, which need not rise with lambda)
    lams = np.sort(np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 120), SAMPLER_LAMBDAS]))
    u = np.concatenate([[0.0, 1.0 - 1e-12], np.random.default_rng(3).random(98)])
    n = poisson_quantile(lams[:, None], u[None, :])
    assert (np.diff(n, axis=0) >= 0).all()


@settings(max_examples=30)
@given(cells=st.lists(st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=40))
def test_each_count_depends_only_on_its_own_cell(cells):
    lam, u = map(np.array, zip(*cells))
    assert_array_equal(poisson_quantile(lam, u), _invert_cellwise(lam, u))


# -- simulation --------------------------------------------------------------------


def test_simulate_validation():
    params = _chain_params()
    ds = _shell(params, 6)
    for R in (0, -1, 2.5):  # not cast to 2
        with pytest.raises(ValidationError, match="replication"):
            simulate_paths(params, ds.weather, ds.grid, R=R, seed=1)
        with pytest.raises(ValidationError, match="replication"):
            outage_reductions(params, [Scenario()], ds.weather, ds.grid, R=R, seed=1)
        with pytest.raises(ValidationError, match="replication"):
            outage_reductions(params, [s for *_, s in sweep_scenarios([1], [1])], ds.weather, ds.grid, R=R, seed=1)
    with pytest.raises(ValidationError, match="observed"):
        simulate_paths(params, ds.weather, ds.grid, R=2, seed=1, teacher_forced_until=3)
    for cutoff in (-1, np.int64(-3)):  # not clipped to a free run
        match = re.escape(f"teacher_forced_until must be an integer >= 0, got {cutoff!r}")
        with pytest.raises(ValidationError, match=match):
            simulate_paths(params, ds.weather, ds.grid, R=2, seed=1, teacher_forced_until=cutoff, observed=ds.outages)
    with pytest.raises(ValidationError, match="does not cover"):
        simulate_paths(params, np.zeros((2, 3, 1)), ds.grid, R=2, seed=1)


def test_a_negative_seed_is_a_validation_error():
    params = _chain_params()
    ds = _shell(params, 6)
    for seed in (-1, np.int64(-4)):  # not numpy's ValueError from default_rng
        with pytest.raises(ValidationError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            simulate_paths(params, ds.weather, ds.grid, R=2, seed=seed)
        with pytest.raises(ValidationError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            outage_reductions(params, [Scenario()], ds.weather, ds.grid, R=2, seed=seed)


def test_simulate_deterministic_and_summary_consistent():
    params = _chain_params()
    ds = _shell(params, 10)
    a = simulate_paths(params, ds.weather, ds.grid, R=40, seed=11, store_paths=True)
    b = simulate_paths(params, ds.weather, ds.grid, R=40, seed=11)
    assert isinstance(a, SimResult)
    assert_array_equal(a.rep_totals, b.rep_totals)
    assert_allclose(a.rep_totals, a.paths.sum(axis=(1, 2)))
    assert_allclose(a.unit_total_mean, a.paths.sum(axis=2).mean(axis=0))
    assert_allclose(a.cell_mean, a.paths.mean(axis=0))
    assert_allclose(a.cell_var, a.paths.var(axis=0, ddof=1), atol=1e-10)
    q = a.total_quantiles()
    assert set(q) == {0.05, 0.5, 0.95} and q[0.05] <= q[0.5] <= q[0.95]
    c = simulate_paths(params, ds.weather, ds.grid, R=40, seed=12)
    assert not np.array_equal(a.rep_totals, c.rep_totals)


def test_fully_forced_simulation_draws_from_pinned_intensity():
    rng = np.random.default_rng(41)
    params = _chain_params()
    T = 12
    observed = rng.integers(0, 4, (2, T))
    ds = wrap_dataset(observed, np.zeros((2, T, 1)))
    lam = intensity_field(params, observed, ds.weather).lam
    res = simulate_paths(params, ds.weather, ds.grid, R=3, seed=99, teacher_forced_until=T, observed=observed, store_paths=True)
    for r in range(3):
        assert_array_equal(res.paths[r], poisson_quantile(lam, _uniforms(99, r, 2, T).T))


def test_partial_teacher_forcing_matches_pinned_intensity_up_to_cutoff():
    rng = np.random.default_rng(43)
    params = _chain_params()
    T, cutoff = 8, 5
    observed = rng.integers(0, 4, (2, T))
    ds = wrap_dataset(observed, np.zeros((2, T, 1)))
    lam = intensity_field(params, observed, ds.weather).lam
    res = simulate_paths(params, ds.weather, ds.grid, R=4000, seed=7, teacher_forced_until=cutoff, observed=observed)
    se = res.cell_std_err()[:, :cutoff]
    gap = np.abs(res.cell_mean[:, :cutoff] - lam[:, :cutoff])
    assert (gap <= 5 * se + 1e-3).all()


def test_free_running_means_follow_the_linear_recursion():
    # E[N_t] = direct_t + eps + (I + A) sum_lag E[N_{t-lag}] beta e^{-beta lag}
    params = _chain_params()
    T = 12
    ds = _shell(params, T)
    K = 2
    A = params.alpha.off_diagonal()
    direct = params.gamma * math.log(2.0)
    expected = np.zeros((K, T))
    for t in range(T):
        M = np.zeros(K)
        for lag in range(1, min(t, params.trig_window) + 1):
            M += expected[:, t - lag] * params.beta * np.exp(-params.beta * lag)
        expected[:, t] = direct + params.eps + M + A @ M
    res = simulate_paths(params, ds.weather, ds.grid, R=3000, seed=17)
    se = res.cell_std_err()
    assert (np.abs(res.cell_mean - expected) <= 5 * se + 1e-3).all()


@settings(max_examples=30)
@given(seed=st.integers(0, 2**16), K=st.integers(2, 5), T=st.integers(2, 25), window=st.integers(1, 6))
def test_free_running_paths_are_draws_from_their_own_field(seed, K, T, window):
    # cell (i, t) of replication r is the Poisson(lambda[i, t]) quantile of
    # u[r, t, i], where lambda is the teacher-forced field of the path itself
    params, _, weather = random_small_instance(np.random.default_rng(seed), K=K, T=T, n_edges=2 * K)
    params.trig_window = window
    ds = _shell(params, T)
    res = simulate_paths(params, weather, ds.grid, R=3, seed=seed, store_paths=True)
    for r in range(3):
        lam = intensity_field(params, res.paths[r], weather).lam
        assert_array_equal(poisson_quantile(lam, _uniforms(seed, r, K, T).T), res.paths[r])


@settings(max_examples=30)
@given(seed=st.integers(0, 2**16), K=st.integers(2, 5), T=st.integers(2, 25), window=st.integers(1, 6),
       r=st.integers(0, 3))
def test_forcing_a_free_path_reproduces_it(seed, K, T, window, r):
    # a path's intensity is its own teacher-forced field and both runs read
    # the same uniforms, so pinning the history to replication r's free path
    # draws that path again
    params, _, weather = random_small_instance(np.random.default_rng(seed), K=K, T=T, n_edges=2 * K)
    params.trig_window = window
    ds = _shell(params, T)
    free = simulate_paths(params, weather, ds.grid, R=r + 1, seed=seed, store_paths=True)
    forced = simulate_paths(
        params, weather, ds.grid, R=r + 1, seed=seed, teacher_forced_until=T, observed=free.paths[r], store_paths=True
    )
    assert_array_equal(forced.paths[r], free.paths[r])


def _uniforms(seed, r, K, T):
    """u[r, t, i] for one replication: T slots of K doubles from default_rng(seed ^ r)."""
    return np.random.default_rng(seed ^ r).random((T, K))


def _invert_cellwise(lam, u):
    """poisson_quantile one cell at a time, in the order of the arrays' cells."""
    return np.array([poisson_quantile(l, v) for l, v in zip(lam.ravel(), u.ravel())], dtype=np.int64).reshape(lam.shape)


def _per_replication_reference(params, weather, T, reps, seed, cutoff=0, observed=None, store_paths=False):
    """The rollout as it was before replications were stepped together: each
    replication in `reps` walks the slots alone with its own full history and
    inverts each cell's intensity alone at its uniform u[r, t, i]."""
    x = np.asarray(weather, dtype=np.float64)[:, :T, :]
    K, R = params.num_units, len(reps)
    obs = None if observed is None else np.asarray(observed, dtype=np.float64)
    mu_direct = direct_from_weather(params, x)
    kern = Kernel(params.beta, params.trig_window)
    coupling = Coupling(params.alpha)
    if cutoff >= T:
        lam_forced = mu_direct + coupling.apply(kernel_matrix(obs[:, :T], params.beta, params.trig_window)) + params.eps
    rep_totals = np.zeros(R)
    unit_totals = np.zeros(K)
    cell_sum = np.zeros((K, T))
    cell_sq = np.zeros((K, T))
    paths = np.zeros((R, K, T), dtype=np.int64) if store_paths else None
    for k, r in enumerate(reps):
        u = _uniforms(seed, r, K, T)
        if cutoff >= T:
            path = _invert_cellwise(lam_forced, u.T).astype(np.float64)
        else:
            path = np.zeros((K, T))
            hist = np.zeros((K, T))
            P = np.zeros(K)
            for t in range(T):
                lam_t = mu_direct[:, t] + coupling.apply(params.beta * P) + params.eps
                if (lam_t > LAMBDA_OVERFLOW).any():
                    i = int(np.argmax(lam_t))
                    raise DivergenceError(
                        f"simulated intensity exploded at (unit={i}, slot={t}, replication={r}): {lam_t[i]:.3e}"
                    )
                path[:, t] = _invert_cellwise(lam_t, u[t])
                hist[:, t] = obs[:, t] if t < cutoff else path[:, t]
                P = kern.step(P, hist[:, t], hist[:, t - kern.window] if t >= kern.window else None)
        rep_totals[k] = path.sum()
        unit_totals += path.sum(axis=1)
        cell_sum += path
        cell_sq += path * path
        if store_paths:
            paths[k] = path.astype(np.int64)
    cell_mean = cell_sum / R
    cell_var = (cell_sq - R * cell_mean**2) / max(R - 1, 1)
    np.maximum(cell_var, 0.0, out=cell_var)
    return SimResult(R, seed, rep_totals, cell_mean, cell_var, unit_totals / R, paths)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(2, 5),
    window=st.integers(1, 6),
    extra=st.integers(1, 20),
    R=st.integers(1, 5),
    forcing=st.sampled_from(["free", "partial", "full"]),
    store_paths=st.booleans(),
    one_per_block=st.booleans(),
)
def test_batched_rollout_matches_per_replication_reference(
    seed, K, window, extra, R, forcing, store_paths, one_per_block
):
    T = window + extra
    params, observed, weather = random_small_instance(np.random.default_rng(seed), K=K, T=T, n_edges=2 * K)
    params.trig_window = window
    cutoff = {"free": 0, "partial": 1 + seed % (T - 1), "full": T}[forcing]
    ds = _shell(params, T)
    # BLOCK_FLOATS = 1 puts every replication in a block of its own
    with mock.patch.object(simulate, "BLOCK_FLOATS", 1 if one_per_block else simulate.BLOCK_FLOATS):
        got = simulate_paths(
            params, weather, ds.grid, R, seed, teacher_forced_until=cutoff,
            observed=observed if cutoff else None, store_paths=store_paths,
        )
    want = _per_replication_reference(params, weather, T, range(R), seed, cutoff, observed, store_paths)
    assert (got.replications, got.seed) == (want.replications, want.seed)
    for name in ("rep_totals", "cell_mean", "cell_var", "unit_total_mean"):
        _assert_same_bits(getattr(got, name), getattr(want, name))
    if store_paths:
        _assert_same_bits(got.paths, want.paths)
    else:
        assert got.paths is None


def test_divergence_names_the_first_slot_and_replication_that_explode():
    # the batched loop stops at the earliest slot at which any replication
    # explodes and names the lowest such replication, with the unit and value
    # that replication's own rollout reports there (here slot 21, reached by
    # replications 2 and 5; a loop over replications would stop at slot 23 of
    # replication 0)
    params = _chain_params(
        K=3, alphas=((0, 1, 10.0), (1, 2, 10.0), (2, 0, 10.0)), beta=(2.0, 2.0, 2.0), gamma=(0.1, 0.1, 0.1)
    )
    T, R, seed = 40, 6, 16
    ds = _shell(params, T)
    with pytest.raises(DivergenceError) as exc:
        simulate_paths(params, ds.weather, ds.grid, R=R, seed=seed)
    message = str(exc.value)
    named = re.search(r"\(unit=(\d+), slot=(\d+), replication=(\d+)\)", message)
    assert named, message
    slot, rep = int(named.group(2)), int(named.group(3))
    first = {}
    for r in range(R):
        with pytest.raises(DivergenceError) as alone:
            _per_replication_reference(params, ds.weather.values, T, [r], seed)
        first[r] = int(re.search(r"slot=(\d+)", str(alone.value)).group(1))
        if r == rep:
            assert str(alone.value) == message
    assert slot == min(first.values())
    assert sum(v == slot for v in first.values()) > 1 and first[0] > slot
    assert rep == min(r for r in first if first[r] == slot)


def test_fully_forced_divergence_names_the_earliest_slot_that_explodes():
    # the pinned field explodes first at slot 5 in units 1 and 2 (unit 2 the
    # larger), and in unit 0 only at slot 11: the run stops at the earliest
    # such slot, names the unit of largest intensity there, and, as every
    # replication shares the pinned field, replication 0
    params = _chain_params(K=3, alphas=((0, 1, 0.1),), beta=(1.0, 1.0, 1.0), gamma=(0.5, 0.3, 0.2))
    T = 16
    observed = np.zeros((3, T), dtype=np.int64)
    observed[1, 4], observed[2, 4], observed[0, 10] = 3 * 10**9, 4 * 10**9, 10**10
    ds = wrap_dataset(observed, np.zeros((3, T, 1)))
    lam = intensity_field(params, observed, ds.weather).lam
    t = int(np.flatnonzero((lam > LAMBDA_OVERFLOW).any(axis=0))[0])
    i = int(np.argmax(lam[:, t]))
    assert (i, t) == (2, 5) and tuple(np.argwhere(lam > LAMBDA_OVERFLOW)[0]) == (0, 11)
    with pytest.raises(DivergenceError) as exc:
        simulate_paths(params, ds.weather, ds.grid, R=3, seed=4, teacher_forced_until=T, observed=observed)
    assert str(exc.value) == f"simulated intensity exploded at (unit={i}, slot={t}, replication=0): {lam[i, t]:.3e}"


def test_free_running_memory_does_not_grow_with_replications_times_slots():
    # only the counts inside the kernel window are kept: R x K x (window + 1)
    R, K, T = 100, 200, 200
    params = random_small_params(np.random.default_rng(5), K=K, M=2, n_edges=2 * K, trig_window=5)
    ds = _shell(params, T)
    weather = np.zeros((K, T, 2))
    tracemalloc.start()
    try:
        res = simulate_paths(params, weather, ds.grid, R=R, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.paths is None and res.rep_totals.shape == (R,)
    assert peak < R * K * T * 8 / 4, f"peak {peak} bytes"


def test_simulation_diverges_loudly_when_unstable():
    # a 3-cycle is loop-free pairwise, but with couplings this strong the
    # branching ratio is far above one and the intensity runs away
    params = _chain_params(
        K=3, alphas=((0, 1, 50.0), (1, 2, 50.0), (2, 0, 50.0)), beta=(2.0, 2.0, 2.0), gamma=(5.0, 5.0, 5.0)
    )
    ds = _shell(params, 30)
    with pytest.raises(DivergenceError, match="exploded"):
        simulate_paths(params, ds.weather, ds.grid, R=1, seed=3)


# -- outage reduction ----------------------------------------------------------------


def test_identity_scenario_reduces_nothing():
    params = _chain_params()
    ds = _shell(params, 20)
    res = outage_reductions(params, [Scenario()], ds.weather, ds.grid, R=30, seed=5)[0]
    assert isinstance(res, ReductionResult)
    assert res.reduction_pct == 0.0
    assert res.std_err_pct == 0.0
    assert res.baseline_total == res.scenario_total


def test_cutting_couplings_reduces_outages():
    params = _chain_params(K=2, alphas=((0, 1, 2.0),), gamma=(1.5, 0.2))
    ds = _shell(params, 60)
    scen = Scenario(edge_reweights=[(0, 1, 0.0)])
    res = outage_reductions(params, [scen], ds.weather, ds.grid, R=200, seed=9)[0]
    assert res.reduction_pct > 0.0
    assert res.scenario_total < res.baseline_total


def test_observed_baseline():
    params = _chain_params()
    T = 20
    observed = np.ones((2, T), dtype=np.int64)
    ds = wrap_dataset(observed, np.zeros((2, T, 1)))
    res = outage_reductions(
        params, [Scenario()], ds.weather, ds.grid, R=50, seed=5, baseline="observed_total", observed=observed
    )[0]
    assert res.baseline_total == 2 * T
    with pytest.raises(ValidationError, match="observed_total baseline"):
        outage_reductions(params, [Scenario()], ds.weather, ds.grid, R=5, seed=5, baseline="observed_total")[0]
    with pytest.raises(ValidationError, match="baseline must be"):
        outage_reductions(params, [Scenario()], ds.weather, ds.grid, R=5, seed=5, baseline="nope")[0]
    # a zero observed baseline is refused before any rollout, so a scenario
    # that would diverge does not get to
    zeros = np.zeros((2, T), dtype=np.int64)
    exploding = Scenario(gamma_overrides=[(0, 1e300)])
    with pytest.raises(DivergenceError):
        outage_reductions(params, [exploding], ds.weather, ds.grid, R=5, seed=5)
    with pytest.raises(NumericError, match="undefined"):
        outage_reductions(
            params, [exploding], ds.weather, ds.grid, R=5, seed=5, baseline="observed_total", observed=zeros
        )[0]


def _sweep_rows(params, ds, axis1, axis2, R, seed, mode="edges", observed=None):
    """(axis1, axis2, reduction_pct, std_err_pct) of every sweep cell, from one
    `outage_reductions` call over the cells, as `enhance` builds sweep.csv."""
    cells = sweep_scenarios(axis1, axis2, mode)
    results = outage_reductions(params, [s for *_, s in cells], ds.weather, ds.grid, R, seed, observed=observed)
    return [(a1, a2, res.reduction_pct, res.std_err_pct) for (a1, a2, _), res in zip(cells, results)]


def test_sweep_grid():
    params = _chain_params(K=3, alphas=((0, 1, 0.6), (1, 2, 0.5)), beta=(1, 1, 1), gamma=(0.8, 0.5, 0.2))
    T = 30
    observed = np.random.default_rng(2).integers(0, 3, (3, T))
    ds = wrap_dataset(observed, np.zeros((3, T, 1)))
    rows = _sweep_rows(params, ds, axis1=[0, 1], axis2=[0, 1], R=40, seed=3, observed=observed)
    assert len(rows) == 4
    by_axes = {(a1, a2): pct for a1, a2, pct, _ in rows}
    assert by_axes[(0, 0)] == 0.0
    rows_m = _sweep_rows(params, ds, axis1=[0, 1], axis2=[0], R=20, seed=3, mode="margins")
    assert len(rows_m) == 2
    with pytest.raises(ValidationError, match="nonempty"):
        _sweep_rows(params, ds, axis1=[], axis2=[1], R=5, seed=1)
    with pytest.raises(ValidationError, match="mode"):
        _sweep_rows(params, ds, axis1=[1], axis2=[1], R=5, seed=1, mode="blah")


def _recording_rollouts(monkeypatch):
    """Record (distinct parameter sets, (S, R) totals) of every stacked rollout."""
    calls, rollout = [], simulate._rollout_totals

    def recording(sets, *args, **kwargs):
        calls.append((list(sets), rollout(sets, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(simulate, "_rollout_totals", recording)
    return calls


def test_sweep_simulates_each_distinct_parameter_set_once(monkeypatch):
    # every unit has out-edges of distinct weights, so the four cells that
    # touch edges give four distinct parameter sets
    alphas = ((0, 1, 0.9), (0, 2, 0.1), (1, 2, 0.7), (1, 3, 0.2), (2, 3, 0.4))
    params = _chain_params(K=4, alphas=alphas, beta=(1, 1, 1, 1), gamma=(0.8, 0.5, 0.2, 0.3))
    T = 30
    observed = np.zeros((4, T), dtype=np.int64)
    observed[:, 3] = [9, 7, 1, 0]  # unit 0 then unit 1 have the largest peaks
    ds = wrap_dataset(observed, np.zeros((4, T, 1)))
    calls = _recording_rollouts(monkeypatch)
    axes = dict(axis1=[0, 1, 2], axis2=[0, 1, 2])
    rows = _sweep_rows(params, ds, **axes, R=20, seed=3, observed=observed)
    identity = sum(scen.is_identity() for _, _, scen in sweep_scenarios(**axes))
    assert identity == 5
    # one stacked rollout of the baseline, then each non-identity cell
    [(sets, totals)] = calls
    assert len(sets) == 1 + (9 - identity) == totals.shape[0]
    assert sets[0] is params
    for p, row in zip(sets, totals):
        _assert_same_bits(row, simulate_paths(p, ds.weather, ds.grid, 20, 3).rep_totals)
    one_by_one = [
        (a1, a2, *(lambda r: (r.reduction_pct, r.std_err_pct))(
            outage_reductions(params, [scen], ds.weather, ds.grid, R=20, seed=3, observed=observed)[0]
        ))
        for a1, a2, scen in sweep_scenarios(**axes)
    ]
    assert rows == one_by_one
    assert [pct for a1, a2, pct, _ in rows if not (a1 and a2)] == [0.0] * identity


def test_reductions_compute_the_network_output_once_per_omega(monkeypatch):
    rng = np.random.default_rng(71)
    params, counts, weather = random_small_instance(rng, K=4, T=30, M=2, n_edges=4)
    ds = wrap_dataset(counts, weather)
    scenarios = [
        Scenario(gamma_overrides=[(0, 0.0)]),
        Scenario(omega_overrides=[(1, 0.7)]),
        Scenario(beta_overrides=[(2, MEAN)], omega_overrides=[(1, 0.7)]),
    ]
    responses, response = [], simulate.weather_response

    def counting_response(p, *args, **kwargs):
        responses.append(p.decay.omega.copy())
        return response(p, *args, **kwargs)

    monkeypatch.setattr(simulate, "weather_response", counting_response)
    calls = _recording_rollouts(monkeypatch)
    simulate.outage_reductions(params, scenarios, ds.weather, ds.grid, R=6, seed=4)
    assert [om.tolist() for om in responses] == [params.decay.omega.tolist(), [params.decay.omega[0], 0.7]]
    [(sets, totals)] = calls
    assert len(sets) == 4
    for p, row in zip(sets, totals):  # each is the rollout that computes its own weather term
        _assert_same_bits(row, simulate_paths(p, ds.weather, ds.grid, 6, 4).rep_totals)


def _reductions_from_lone_rollouts(params, scenarios, weather, grid, R, seed, baseline, observed):
    """outage_reductions as one simulate_paths per parameter set, no rollout shared."""
    if baseline == "simulated_total":
        base = simulate_paths(params, weather, grid, R, seed)
        base_total = base.mean_total
    else:
        base_total = float(np.asarray(observed).sum())
    if base_total == 0:
        return None
    out = []
    for scen in scenarios:
        lone = simulate_paths(apply_scenario(params, scen, reference_history=observed), weather, grid, R, seed)
        if baseline == "simulated_total":
            diff = base.rep_totals - lone.rep_totals
            se_diff = diff.std(ddof=1) / np.sqrt(R) if R > 1 else 0.0
        else:
            se_diff = lone.total_std_err
        out.append(ReductionResult(
            reduction_pct=float(100.0 * (base_total - lone.mean_total) / base_total),
            std_err_pct=float(100.0 * se_diff / base_total),
            baseline_total=float(base_total),
            scenario_total=float(lone.mean_total),
            replications=R,
            seed=seed,
        ))
    return out


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(2, 5),
    window=st.integers(1, 6),
    extra=st.integers(1, 15),
    R=st.integers(1, 5),
    kinds=st.lists(
        st.sampled_from(["identity", "cut", "add", "beta", "gamma", "omega", "mixed"]), min_size=1, max_size=6
    ),
    observed_baseline=st.booleans(),
    one_per_block=st.booleans(),
)
def test_stacked_reductions_match_lone_rollouts(seed, K, window, extra, R, kinds, observed_baseline, one_per_block):
    T = window + extra
    rng = np.random.default_rng(seed)
    params, observed, weather = random_small_instance(rng, K=K, T=T, n_edges=2 * K)
    params.trig_window = window
    ds = wrap_dataset(observed, weather)
    w, edges = params.alpha.w, params.graph.edges
    active = [e for e in edges if w[params.graph.index[e]] > 0]
    idle = [e for e in edges if w[params.graph.index[e]] == 0]
    unit = int(rng.integers(K))

    def scenario(kind):
        if kind == "cut":  # deactivates edges the baseline uses
            return Scenario(edge_reweights=[(s, t, 0.0) for s, t in active[: 1 + seed % max(len(active), 1)]])
        if kind == "add":  # activates a candidate edge the baseline does not use
            return Scenario(edge_reweights=[(s, t, 0.3) for s, t in idle[:1]])
        if kind == "beta":
            return Scenario(beta_overrides=[(unit, float(rng.uniform(0.1, 2.0)))])
        if kind == "gamma":
            return Scenario(gamma_overrides=[(unit, MEAN)], gamma_top_units=1)
        if kind == "omega":
            return Scenario(omega_overrides=[(1, float(rng.uniform(0.0, 1.2)))])
        if kind == "mixed":
            return Scenario(top_k_units=1, top_e_edges=1, edge_target=0.0, beta_bottom_units=1,
                            omega_overrides=[(0, 0.5)])
        return Scenario()

    scenarios = [scenario(kind) for kind in kinds]
    baseline = "observed_total" if observed_baseline else "simulated_total"
    want = _reductions_from_lone_rollouts(params, scenarios, ds.weather, ds.grid, R, seed, baseline, observed)
    # BLOCK_FLOATS = 1 puts every replication in a block of its own
    with mock.patch.object(simulate, "BLOCK_FLOATS", 1 if one_per_block else simulate.BLOCK_FLOATS):
        if want is None:
            with pytest.raises(NumericError, match="undefined"):
                outage_reductions(params, scenarios, ds.weather, ds.grid, R, seed, baseline=baseline, observed=observed)
            return
        got = outage_reductions(params, scenarios, ds.weather, ds.grid, R, seed, baseline=baseline, observed=observed)
    for g, v in zip(got, want, strict=True):
        assert [np.float64(getattr(g, f.name)).tobytes() for f in dataclasses.fields(g)] == [
            np.float64(getattr(v, f.name)).tobytes() for f in dataclasses.fields(v)
        ]


def test_stacked_divergence_names_the_parameter_set():
    # the baseline is stable; the scenario's strong 3-cycle runs away, and the
    # error is the one its lone rollout raises, with the set named
    params = _chain_params(
        K=3, alphas=((0, 1, 0.1), (1, 2, 0.1), (2, 0, 0.1)), beta=(2.0, 2.0, 2.0), gamma=(0.1, 0.1, 0.1)
    )
    T, R, seed = 40, 6, 16
    ds = _shell(params, T)
    strong = Scenario(edge_reweights=[(0, 1, 10.0), (1, 2, 10.0), (2, 0, 10.0)])
    with pytest.raises(DivergenceError) as alone:
        simulate_paths(apply_scenario(params, strong), ds.weather, ds.grid, R=R, seed=seed)
    with pytest.raises(DivergenceError) as stacked:
        outage_reductions(params, [Scenario(), strong], ds.weather, ds.grid, R=R, seed=seed)
    assert str(stacked.value) == str(alone.value).replace(
        "exploded at", "exploded in parameter set 1 (scenario 1) at"
    )


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacked_rollout_memory_stays_within_the_block_budget():
    # the replications, slots, kernel window and parameters of the lone
    # memory test, on fewer units so that four sets roll out in seconds. The
    # block budget is lowered until it binds: below it every set keeps its
    # own kernel window and temporaries, so a stacked rollout holds S times a
    # lone one's state. Blocks sized for the per-set temporaries keep the
    # peak of four distinct sets at or below the baseline's alone, under the
    # lone test's bound of R x K x T / 4 floats, and doubling T adds no more
    # than the weather term's own arrays and one K x T network output, where
    # an (S, K, T) array or per-cell statistics per set would add S of them
    R, K = 100, 40
    params = random_small_params(np.random.default_rng(5), K=K, M=2, n_edges=2 * K, trig_window=5)
    scenarios = [
        Scenario(gamma_top_units=10),
        Scenario(beta_bottom_units=10),
        Scenario(edge_reweights=[(s, t, 0.0) for s, t in params.graph.edges[:40]]),
    ]
    peaks, weather_peaks = {}, {}
    with mock.patch.object(simulate, "BLOCK_FLOATS", 1 << 17):
        for T in (100, 200):
            weather = np.zeros((K, T, 2))
            grid = _shell(params, T).grid
            peaks[T] = _traced_peak(outage_reductions, params, scenarios, weather, grid, R=R, seed=1)
            weather_peaks[T] = _traced_peak(simulate.weather_response, params, weather)
        alone = _traced_peak(outage_reductions, params, [Scenario()], weather, grid, R=R, seed=1)
    assert peaks[200] <= alone, f"{len(scenarios) + 1} sets peak at {peaks[200]} bytes, the baseline alone at {alone}"
    assert peaks[200] < R * K * 200 * 8 / 4, f"peak {peaks[200]} bytes"
    grown, weather_grown = peaks[200] - peaks[100], weather_peaks[200] - weather_peaks[100]
    assert grown <= weather_grown + K * 100 * 8, f"peak grew by {grown} bytes, the weather term by {weather_grown}"
