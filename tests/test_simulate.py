import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from synth import random_small_instance, wrap_dataset
from gridshock.errors import DivergenceError, NumericError, ValidationError
from gridshock.model import MlpParams, ModelParams, intensity_field
from gridshock.simulate import (
    MEAN,
    ReductionResult,
    Scenario,
    SimResult,
    apply_scenario,
    load_scenario,
    outage_reduction,
    save_scenario,
    simulate_paths,
    sweep,
    top_e_edges_per_unit,
    top_k_units_by_max_outages,
)
from gridshock.topology import EdgeWeights, Graph
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
    save_scenario(scen, path)
    again = load_scenario(path)
    assert again.to_dict() == scen.to_dict()
    with pytest.raises(ValidationError, match="unknown scenario field"):
        Scenario.from_dict({"bogus": 1})


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


def test_apply_scenario_selector_clauses():
    params = _chain_params(K=3, alphas=((0, 1, 0.4), (0, 2, 0.7), (1, 2, 0.2)), beta=(1.0, 0.5, 2.0), gamma=(0.6, 0.3, 0.9))
    history = np.array([[7, 0, 0], [1, 0, 0], [0, 2, 0]])
    scen = Scenario(top_k_units=1, top_e_edges=1, edge_target=0.0, gamma_top_units=1, beta_bottom_units=1)
    out = apply_scenario(params, scen, reference_history=history)
    assert out.alpha.alpha[2, 0] == 0.0  # unit 0's strongest edge cut
    assert out.gamma[2] == pytest.approx(np.mean([0.6, 0.3, 0.9]))  # largest margin reset
    assert out.beta[1] == pytest.approx(np.mean([1.0, 0.5, 2.0]))  # slowest recovery reset


# -- simulation --------------------------------------------------------------------


def test_simulate_validation():
    params = _chain_params()
    ds = _shell(params, 6)
    with pytest.raises(ValidationError, match="replication"):
        simulate_paths(params, ds.weather, ds.grid, R=0, seed=1)
    with pytest.raises(ValidationError, match="observed"):
        simulate_paths(params, ds.weather, ds.grid, R=2, seed=1, teacher_forced_until=3)
    with pytest.raises(ValidationError, match="does not cover"):
        simulate_paths(params, np.zeros((2, 3, 1)), ds.grid, R=2, seed=1)


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
        expected = np.random.default_rng(99 ^ r).poisson(lam)
        assert_array_equal(res.paths[r], expected)


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
    # slot t of replication r is Poisson(lambda[:, t]) from generator seed ^ r,
    # where lambda is the teacher-forced field of the path itself
    params, _, weather = random_small_instance(np.random.default_rng(seed), K=K, T=T, n_edges=2 * K)
    params.trig_window = window
    ds = _shell(params, T)
    res = simulate_paths(params, weather, ds.grid, R=3, seed=seed, store_paths=True)
    for r in range(3):
        lam = intensity_field(params, res.paths[r], weather).lam
        rng = np.random.default_rng(seed ^ r)
        redrawn = np.stack([rng.poisson(lam[:, t]) for t in range(T)], axis=1)
        assert_array_equal(redrawn, res.paths[r])


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
    res = outage_reduction(params, Scenario(), ds.weather, ds.grid, R=30, seed=5)
    assert isinstance(res, ReductionResult)
    assert res.reduction_pct == 0.0
    assert res.std_err_pct == 0.0
    assert res.baseline_total == res.scenario_total


def test_cutting_couplings_reduces_outages():
    params = _chain_params(K=2, alphas=((0, 1, 2.0),), gamma=(1.5, 0.2))
    ds = _shell(params, 60)
    scen = Scenario(edge_reweights=[(0, 1, 0.0)])
    res = outage_reduction(params, scen, ds.weather, ds.grid, R=200, seed=9)
    assert res.reduction_pct > 0.0
    assert res.scenario_total < res.baseline_total


def test_observed_baseline():
    params = _chain_params()
    T = 20
    observed = np.ones((2, T), dtype=np.int64)
    ds = wrap_dataset(observed, np.zeros((2, T, 1)))
    res = outage_reduction(
        params, Scenario(), ds.weather, ds.grid, R=50, seed=5, baseline="observed_total", observed=observed
    )
    assert res.baseline_total == 2 * T
    with pytest.raises(ValidationError, match="observed_total baseline"):
        outage_reduction(params, Scenario(), ds.weather, ds.grid, R=5, seed=5, baseline="observed_total")
    with pytest.raises(ValidationError, match="baseline must be"):
        outage_reduction(params, Scenario(), ds.weather, ds.grid, R=5, seed=5, baseline="nope")
    zeros = np.zeros((2, T), dtype=np.int64)
    with pytest.raises(NumericError, match="undefined"):
        outage_reduction(params, Scenario(), ds.weather, ds.grid, R=5, seed=5, baseline="observed_total", observed=zeros)


def test_sweep_grid():
    params = _chain_params(K=3, alphas=((0, 1, 0.6), (1, 2, 0.5)), beta=(1, 1, 1), gamma=(0.8, 0.5, 0.2))
    T = 30
    observed = np.random.default_rng(2).integers(0, 3, (3, T))
    ds = wrap_dataset(observed, np.zeros((3, T, 1)))
    rows = sweep(params, ds.weather, ds.grid, axis1=[0, 1], axis2=[0, 1], R=40, seed=3, observed=observed)
    assert len(rows) == 4
    by_axes = {(a1, a2): pct for a1, a2, pct, _ in rows}
    assert by_axes[(0, 0)] == 0.0
    rows_m = sweep(params, ds.weather, ds.grid, axis1=[0, 1], axis2=[0], R=20, seed=3, mode="margins")
    assert len(rows_m) == 2
    with pytest.raises(ValidationError, match="nonempty"):
        sweep(params, ds.weather, ds.grid, axis1=[], axis2=[1], R=5, seed=1)
    with pytest.raises(ValidationError, match="mode"):
        sweep(params, ds.weather, ds.grid, axis1=[1], axis2=[1], R=5, seed=1, mode="blah")
