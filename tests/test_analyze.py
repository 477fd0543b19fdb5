import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize
from scipy.special import expit

from oracles import add_at_coupling, naive_intensity_field, per_unit_sigmoid_points, scan_episodes
from synth import random_small_instance, random_small_params, wrap_dataset
from gridshock import analyze as analyze_module
from gridshock.analyze import (
    MIN_SIGMOID_POINTS,
    SIGMOID_STARTS,
    Decomposition,
    Episode,
    PredictionReport,
    SigmoidFit,
    decompose,
    episode_duration_summary,
    fit_sigmoid,
    fit_sigmoid_points,
    predict_ahead,
    predict_in_sample,
    restoration_durations,
    write_decomposition_csv,
    write_episodes_csv,
    write_predictions_csv,
    write_sigmoid_csv,
    write_sweep_csv,
)
from gridshock.analyze import _sigmoid_loss, _sigmoid_starts
from gridshock.errors import InsufficientDataError, ValidationError
from gridshock import model, train
from gridshock.model import Coupling, Kernel, direct_from_weather, intensity_field
from gridshock.train import gradients, log_likelihood
from gridshock.weather_effect import CHUNK_SLOTS, DecayConfig, accumulate


@pytest.fixture(scope="module")
def small():
    rng = np.random.default_rng(313)
    params, counts, weather = random_small_instance(rng, K=4, T=30, M=2, n_edges=4)
    return params, wrap_dataset(counts, weather)


# -- decomposition ---------------------------------------------------------------


def test_decompose_matches_intensity_components(small):
    params, ds = small
    dec = decompose(params, ds)
    fld = intensity_field(params, ds.outages.counts, ds.weather)
    assert_array_equal(dec.direct, fld.direct)
    assert_array_equal(dec.indirect, fld.indirect)
    assert_allclose(dec.slot_direct, fld.direct.sum(axis=0))
    assert_allclose(dec.slot_indirect, fld.indirect.sum(axis=0))
    assert_array_equal(dec.slot_observed, ds.outages.counts.sum(axis=0))
    assert dec.direct_share + dec.indirect_share == pytest.approx(1.0)
    assert 0 < dec.indirect_share < 1


def test_intensity_field_decomposes_raw_means(small):
    params, ds = small
    means = ds.outages.counts * 0.5  # non-integer "expected count" history
    dec = intensity_field(params, means, ds.weather)
    _, direct, indirect = naive_intensity_field(params, means, ds.weather.values)
    assert_allclose(dec.direct, direct, rtol=1e-10)
    assert_allclose(dec.indirect, indirect, rtol=1e-10)


def test_share_of_all_zero_history_is_all_direct():
    rng = np.random.default_rng(5)
    params, _, weather = random_small_instance(rng, K=3, T=10, M=1, n_edges=3)
    dec = decompose(params, wrap_dataset(np.zeros((3, 10), dtype=np.int64), weather))
    assert dec.indirect_share == 0.0
    assert dec.direct_share == 1.0


# -- prediction -------------------------------------------------------------------


def test_predict_in_sample_refuses_a_non_finite_rate(small):
    params, ds = small
    params = params.copy()
    params.beta[0] = np.nan
    with pytest.raises(ValidationError, match=r"beta\[0\] must be a finite number >= 0, got nan"):
        predict_in_sample(params, ds)


FORWARD_ENTRIES = {
    "intensity_field": lambda params, ds: intensity_field(params, ds.outages.counts, ds.weather),
    "decompose": decompose,
    "predict_in_sample": predict_in_sample,
    "predict_ahead": lambda params, ds: predict_ahead(params, ds, horizon_slots=2),
    "log_likelihood": log_likelihood,
    "gradients": gradients,
}


@pytest.mark.parametrize("field, value", [("beta", np.nan), ("gamma", np.nan), ("beta", -0.5)])
@pytest.mark.parametrize("entry", list(FORWARD_ENTRIES))
def test_a_forward_entry_refuses_parameters_outside_the_constraint_set(small, entry, field, value):
    params, ds = small
    params = params.copy()
    getattr(params, field)[0] = value
    with pytest.raises(ValidationError, match=rf"{field}\[0\] must be a finite number >= 0, got {value}$"):
        FORWARD_ENTRIES[entry](params, ds)


def test_predict_in_sample_is_teacher_forced_intensity(small):
    params, ds = small
    rep = predict_in_sample(params, ds)
    fld = intensity_field(params, ds.outages.counts, ds.weather)
    assert rep.horizon == 0
    assert_array_equal(rep.predicted, fld.lam)
    err = fld.lam - ds.outages.counts
    assert rep.mae == pytest.approx(np.abs(err).mean())
    assert rep.rmse == pytest.approx(np.sqrt((err**2).mean()))
    actual = ds.outages.counts
    assert rep.persistence_mae == pytest.approx(np.abs(actual[:, :-1] - actual[:, 1:]).mean())
    assert rep.per_unit_mae.shape == (4,)
    assert rep.beats_persistence == (rep.mae < rep.persistence_mae)


def test_one_step_ahead_equals_teacher_forced_columns(small):
    # with h=1 there is no gap to roll, so each predicted column is the
    # plain conditional intensity given the observed past
    params, ds = small
    rep = predict_ahead(params, ds, horizon_slots=1)
    fld = intensity_field(params, ds.outages.counts, ds.weather)
    assert np.isnan(rep.predicted[:, 0]).all()
    assert_array_equal(rep.predicted[:, 1:], fld.lam[:, 1:])
    counts = ds.outages.counts
    assert rep.persistence_mae == pytest.approx(np.abs(counts[:, :-1] - counts[:, 1:]).mean())


def test_two_step_ahead_rolls_the_gap_on_means(small):
    params, ds = small
    rep = predict_ahead(params, ds, horizon_slots=2)
    counts = ds.outages.counts.astype(float)
    weather = ds.weather.values
    lam_tf, _, _ = naive_intensity_field(params, counts, weather)
    K, T = counts.shape
    assert np.isnan(rep.predicted[:, :2]).all()
    for t in range(2, T):
        hist = counts.copy()
        hist[:, t - 1] = lam_tf[:, t - 1]  # unseen slot replaced by its predicted mean
        hist[:, t:] = 0.0
        lam_roll, _, _ = naive_intensity_field(params, hist, weather)
        assert_allclose(rep.predicted[:, t], lam_roll[:, t], rtol=1e-9)


def _per_target_predictions(params, counts, direct, h):
    """h-ahead predictions one target at a time: each target rolls its own gap
    forward from the observed history's kernel state."""
    K, T = counts.shape
    kern = Kernel(params.beta, params.trig_window)
    L = kern.window

    def step_at(P, hist, t):
        return kern.step(P, hist[:, t], hist[:, t - L] if t >= L else None)

    def lam_at(t, P):
        return direct[:, t] + add_at_coupling(params.alpha, params.beta * P) + params.eps

    predicted = np.full((K, T), np.nan)
    hist = counts.copy()
    P_obs = np.zeros(K)
    for t in range(h, T):
        first = t - h + 1
        hist[:, first - 1] = counts[:, first - 1]
        P_obs = step_at(P_obs, hist, first - 1)
        P = P_obs
        for s in range(first, t):
            hist[:, s] = lam_at(s, P)
            P = step_at(P, hist, s)
        predicted[:, t] = lam_at(t, P)
    return predicted


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    T=st.integers(2, 40),
    trig_window=st.integers(1, 8),
    horizon_share=st.floats(0.0, 1.0),
    extra_blocks=st.integers(0, 2),
)
def test_predict_ahead_matches_the_per_target_loop(seed, K, T, trig_window, horizon_share, extra_blocks):
    h = 1 + min(int(horizon_share * (T - 1)), T - 2)  # horizons below and above trig_window
    T += extra_blocks * CHUNK_SLOTS  # the targets' start states then come from up to four blocks
    rng = np.random.default_rng(seed)
    params = random_small_params(rng, K=K, M=2, n_edges=2 * K, trig_window=trig_window)
    counts = rng.integers(0, 5, (K, T))
    weather = rng.normal(size=(K, T, 2))
    direct = direct_from_weather(params, weather)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "BLOCK_CELLS", K * CHUNK_SLOTS)  # blocks of one weather chunk
        rep = predict_ahead(params, wrap_dataset(counts, weather), horizon_slots=h, direct=direct)
    assert_array_equal(rep.predicted, _per_target_predictions(params, counts.astype(np.float64), direct, h))


@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    blocks=st.integers(2, 5),
    tail=st.integers(1, CHUNK_SLOTS),
    n_edges=st.integers(1, 12),
)
def test_the_scored_lambda_is_the_predicted_lambda_over_many_blocks(seed, K, blocks, tail, n_edges):
    """The lambda that the log-likelihood scores, the in-sample prediction and
    the one-slot-ahead columns are the same bits on a series of several blocks."""
    T = (blocks - 1) * CHUNK_SLOTS + tail
    rng = np.random.default_rng(seed)
    params, counts, weather = random_small_instance(rng, K=K, T=T, M=2, n_edges=n_edges, hidden=(4,))
    ds = wrap_dataset(counts, weather)
    scored = []

    class Recording(Coupling):
        def apply(self, R):
            out = super().apply(R)
            scored.append(out)  # a block evaluation forms its lambda in place of this sum
            return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "BLOCK_CELLS", K * CHUNK_SLOTS)  # blocks of one weather chunk
        plan = model.time_blocks(K, T)
        mp.setattr(train, "Coupling", Recording)
        log_likelihood(params, ds)
        in_sample = predict_in_sample(params, ds).predicted
        ahead = predict_ahead(params, ds, horizon_slots=1).predicted
    assert len(plan) == blocks and [lam.shape[1] for lam in scored] == [t1 - t0 for t0, t1 in plan]
    assert np.concatenate(scored, axis=1).tobytes() == in_sample.tobytes()
    assert ahead[:, 1:].tobytes() == in_sample[:, 1:].tobytes()


# K x T float arrays alive at each entry's peak, with the weather as an input
FORWARD_ARRAYS = {
    # lambda, its weather term and its triggering term
    "intensity_field": (3, lambda params, ds: intensity_field(params, ds.outages.counts, ds.weather)),
    # the predictions, the counts as floats, the weather term and the absolute error being scored
    "predict_ahead": (4, lambda params, ds: predict_ahead(params, ds, horizon_slots=3)),
}


@pytest.mark.parametrize("entry", list(FORWARD_ARRAYS))
def test_forward_memory_grows_only_by_its_k_by_t_arrays(entry):
    arrays, run = FORWARD_ARRAYS[entry]
    K, widths = 100, (2400, 7200)  # 8 and 23 blocks of model.time_blocks
    peaks = []
    for T in widths:
        rng = np.random.default_rng(21)
        params, counts, weather = random_small_instance(rng, K=K, T=T, M=2, n_edges=150, hidden=(8,))
        ds = wrap_dataset(counts, weather)
        tracemalloc.start()
        try:
            run(params, ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # a whole-series kernel state, history copy or gap intensity would add whole arrays
    per_array = K * (widths[1] - widths[0]) * 8
    assert peaks[1] - peaks[0] < (arrays + 0.1) * per_array, (peaks, (peaks[1] - peaks[0]) / per_array)


def test_predict_ahead_rejects_bad_horizons(small):
    params, ds = small
    for bad in (0, 2.5):  # 2.5 is not cast to 2
        with pytest.raises(ValidationError, match=">= 1"):
            predict_ahead(params, ds, horizon_slots=bad)
    with pytest.raises(ValidationError, match="smaller than"):
        predict_ahead(params, ds, horizon_slots=ds.grid.num_slots)


# -- sigmoid response --------------------------------------------------------------


def _sigmoid_dataset(a=1.2, c=4.0, L=0.6, K=3, T=60, customers=20000, seed=88):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, (K, T, 1))
    ratio = L * expit(a * (x[:, :, 0] - c))
    counts = np.round(ratio * customers).astype(np.int64)
    ds = wrap_dataset(counts, x, variable_names=["wind_speed"])
    ds.units = [replace(u, total_customers=customers) for u in ds.units]
    return ds


def test_fit_sigmoid_recovers_response_curve():
    ds = _sigmoid_dataset()
    fit = fit_sigmoid(ds, "wind_speed", cfg=DecayConfig(omega=np.zeros(1), window_slots=1))
    assert fit.variable == "wind_speed"
    assert fit.a == pytest.approx(1.2, rel=0.1)
    assert fit.c == pytest.approx(4.0, rel=0.05)
    assert fit.L == pytest.approx(0.6, rel=0.05)
    assert fit.rmse < 0.01


def test_fit_sigmoid_index_selection():
    ds = _sigmoid_dataset()
    cfg = DecayConfig(omega=np.zeros(1), window_slots=1)
    full = fit_sigmoid(ds, 0, cfg=cfg)
    assert full == fit_sigmoid(ds, "wind_speed", cfg=cfg)
    assert full.n_points == int((ds.outages.counts > 0).sum())


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    omega=st.floats(0.0, 2.0),
    window=st.integers(1, 6),
)
def test_fit_sigmoid_fits_the_points_of_the_per_unit_loop(seed, omega, window):
    ds = _sigmoid_dataset(K=4, T=40, seed=seed)
    customers = np.random.default_rng(seed).integers(12000, 40000, 4)
    ds.units = [replace(u, total_customers=int(c)) for u, c in zip(ds.units, customers)]
    cfg = DecayConfig(omega=np.array([omega]), window_slots=window)
    v_all = accumulate(ds.weather.values, cfg)[:, :, 0]
    v, r = per_unit_sigmoid_points(v_all, ds.outages.counts, customers, range(4))
    if v.size < MIN_SIGMOID_POINTS:
        with pytest.raises(InsufficientDataError):
            fit_sigmoid(ds, 0, cfg=cfg)
    else:
        assert fit_sigmoid(ds, 0, cfg=cfg) == fit_sigmoid_points(v, r, variable="wind_speed")


def test_fit_sigmoid_unknown_variable(small):
    _, ds = small
    with pytest.raises(ValidationError, match="unknown weather variable"):
        fit_sigmoid(ds, "humidity")
    with pytest.raises(ValidationError, match="out of range"):
        fit_sigmoid(ds, 5)


def test_fit_sigmoid_points_basics():
    rng = np.random.default_rng(3)
    v = rng.uniform(0, 8, 150)
    r = 0.8 * expit(2.0 * (v - 3.0)) + rng.normal(0, 0.005, 150)
    fit = fit_sigmoid_points(v, r)
    assert fit.a == pytest.approx(2.0, rel=0.1)
    assert fit.c == pytest.approx(3.0, rel=0.1)
    assert fit.L == pytest.approx(0.8, rel=0.1)
    assert fit.n_points == 150
    with pytest.raises(ValidationError, match="disagree"):
        fit_sigmoid_points(v, r[:-1])
    with pytest.raises(InsufficientDataError, match=">= 10"):
        fit_sigmoid_points(v[:5], r[:5])


def test_fit_sigmoid_points_rejects_non_finite_points():
    rng = np.random.default_rng(4)
    v = rng.uniform(0, 8, 50)
    r = 0.5 * expit(v - 4.0)
    v_nan = v.copy()
    v_nan[7] = np.nan
    with pytest.raises(ValidationError, match="non-finite exposure at point 7"):
        fit_sigmoid_points(v_nan, r)
    for bad in (np.inf, -np.inf, np.nan):
        r_bad = r.copy()
        r_bad[3] = bad
        with pytest.raises(ValidationError, match="non-finite ratio at point 3"):
            fit_sigmoid_points(v, r_bad)


@pytest.mark.parametrize(
    "field", [dict(a=np.nan), dict(c=np.nan), dict(L=np.nan), dict(rmse=np.nan), dict(rmse=np.inf), dict(c=-0.5)]
)
def test_sigmoid_fit_range_check_rejects_nan(field):
    with pytest.raises(ValidationError, match="out of range"):
        SigmoidFit(**{**dict(variable="v", a=1.0, c=2.0, L=0.5, rmse=0.1, n_points=10), **field})


def test_sigmoid_fit_validation_and_predict():
    with pytest.raises(ValidationError, match="out of range"):
        SigmoidFit(variable="v", a=-1.0, c=2.0, L=0.5, rmse=0.0, n_points=10)
    with pytest.raises(ValidationError, match="out of range"):
        SigmoidFit(variable="v", a=1.0, c=2.0, L=1.5, rmse=0.0, n_points=10)
    fit = SigmoidFit(variable="v", a=2.0, c=3.0, L=0.8, rmse=0.0, n_points=10)
    assert fit.predict(3.0) == pytest.approx(0.4)  # half-saturation at the threshold
    assert fit.predict(np.array([100.0]))[0] == pytest.approx(0.8)


# -- the response-curve solver -----------------------------------------------------


def _lbfgsb_sigmoid_loss(v, r):
    """Loss of the best of the 8 starts under scipy's L-BFGS-B with finite-difference
    gradients: the estimator the bounded least-squares solver replaced."""
    v_lo, v_hi = float(v.min()), float(v.max())
    span = max(v_hi - v_lo, 1e-9)
    L0 = float(np.clip(r.max(), 1e-3, 1.0))

    def loss(theta):
        a, c, L = theta
        resid = L * expit(a * (v - c)) - r
        return float(np.dot(resid, resid))

    c_starts = np.quantile(v, np.linspace(0.1, 0.9, SIGMOID_STARTS // 2))
    starts = [(a0, max(c0, 0.0), L0) for a0 in (1.0 / span * 4.0, 1.0 / span * 40.0) for c0 in c_starts]
    bounds = [(1e-8, None), (0.0, max(v_hi * 2.0, 1.0)), (1e-8, 1.0)]
    best = min((minimize(loss, x0=np.array(x0), method="L-BFGS-B", bounds=bounds) for x0 in starts), key=lambda res: res.fun)
    return _sigmoid_loss(best.x, v, r)


def _fit_loss(fit, v, r):
    return _sigmoid_loss((fit.a, fit.c, fit.L), v, r)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(30, 300),
    log_a=st.floats(np.log(0.5), np.log(5.0)),
    c=st.floats(1.0, 9.0),
    L=st.floats(0.05, 1.0),
    noise=st.floats(0.0, 0.02),
)
def test_sigmoid_solver_loss_is_no_worse_than_lbfgsb(seed, n, log_a, c, L, noise):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 10.0, n)
    r = L * expit(np.exp(log_a) * (v - c)) + rng.normal(0.0, noise * L, n)
    fit = fit_sigmoid_points(v, r)
    assert _fit_loss(fit, v, r) <= _lbfgsb_sigmoid_loss(v, r) * (1 + 1e-9)


def _bound_cases():
    rng = np.random.default_rng(21)
    v = rng.uniform(0.0, 10.0, 120)
    noise = rng.normal(0.0, 0.005, 120)
    return {
        "interior": (v, 0.7 * expit(1.5 * (v - 4.0)) + noise),
        "L at its upper bound": (v, 1.3 * expit(2.0 * (v - 5.0)) + noise),
        "c at its lower bound": (v, 0.4 * expit(0.8 * (v + 3.0)) + noise),
        "a at its lower bound": (v, 0.5 - 0.03 * v + noise),
        "large, flat exposures": (1e3 * v, 2e-4 * expit(0.01 * (1e3 * v - 4e3)) + 1e-5 * noise),
    }


@pytest.mark.parametrize("case", list(_bound_cases()))
def test_sigmoid_solver_meets_the_bound_constrained_optimality_conditions(case):
    v, r = _bound_cases()[case]
    fit = fit_sigmoid_points(v, r)
    _, lower, upper = _sigmoid_starts(v, r)
    theta = np.array([fit.a, fit.c, fit.L])
    d = v - fit.c
    s = expit(fit.a * d)
    resid = fit.L * s - r
    jac = np.stack([fit.L * s * (1 - s) * d, -fit.a * fit.L * s * (1 - s), s])
    # each loss-gradient component, as a cosine between the residual and its Jacobian column
    cos = (jac @ resid) / (np.linalg.norm(jac, axis=1) * np.linalg.norm(resid))
    for k in range(3):
        if theta[k] <= lower[k]:
            assert cos[k] > -1e-5  # descent would leave the box downwards
        elif theta[k] >= upper[k]:
            assert cos[k] < 1e-5  # descent would leave the box upwards
        else:
            assert abs(cos[k]) < 1e-5
    at_bound = {"L at its upper bound": 2, "c at its lower bound": 1, "a at its lower bound": 0}
    if case in at_bound:
        k = at_bound[case]
        assert theta[k] in (lower[k], upper[k])


@pytest.mark.parametrize("case", list(_bound_cases()))
def test_sigmoid_solver_loss_is_no_worse_than_any_start(case):
    v, r = _bound_cases()[case]
    fit = fit_sigmoid_points(v, r)
    starts, _, _ = _sigmoid_starts(v, r)
    assert starts.shape == (SIGMOID_STARTS, 3)
    best = _fit_loss(fit, v, r)
    assert all(best <= _sigmoid_loss(x0, v, r) for x0 in starts)
    assert fit.rmse == pytest.approx(np.sqrt(best / v.size), rel=1e-12)


# -- restoration episodes ---------------------------------------------------------


def test_restoration_durations_hand_case():
    counts = np.array([[0, 3, 2, 0, 0, 1]])
    eps2 = restoration_durations(counts, zero_run_threshold=2)
    assert [(e.start_slot, e.end_slot, e.max_outage) for e in eps2] == [(1, 2, 3), (5, 5, 1)]
    assert [e.duration_slots for e in eps2] == [2, 1]
    eps3 = restoration_durations(counts, zero_run_threshold=3)
    assert [(e.start_slot, e.end_slot, e.max_outage) for e in eps3] == [(1, 5, 3)]


def test_restoration_durations_boundaries_and_empty():
    counts = np.array([[2, 0, 0, 0, 4], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]])
    eps = restoration_durations(counts, zero_run_threshold=2)
    assert [(e.unit, e.start_slot, e.end_slot) for e in eps] == [(0, 0, 0), (0, 4, 4), (2, 0, 4)]
    assert restoration_durations(np.zeros((2, 6), dtype=int)) == []
    with pytest.raises(ValidationError, match=">= 1"):
        restoration_durations(counts, zero_run_threshold=0)


# a unit's counts as runs of (value, length); value 0 is a run of zeros, no runs an all-zero unit
_UNIT_RUNS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 7)), max_size=8)


@given(units=st.lists(_UNIT_RUNS, min_size=1, max_size=5), threshold=st.integers(1, 5))
def test_restoration_durations_match_the_slot_scan(units, threshold):
    rows = [[value for value, length in runs for _ in range(length)] for runs in units]
    counts = np.zeros((len(rows), max(1, *map(len, rows))), dtype=np.int64)
    for i, row in enumerate(rows):
        counts[i, : len(row)] = row
    episodes = restoration_durations(counts, zero_run_threshold=threshold)
    assert [(e.unit, e.start_slot, e.end_slot, e.max_outage) for e in episodes] == scan_episodes(counts, threshold)


def test_episode_duration_summary():
    eps = [
        Episode(unit=0, start_slot=1, end_slot=2, max_outage=3),
        Episode(unit=0, start_slot=5, end_slot=5, max_outage=1),
        Episode(unit=1, start_slot=0, end_slot=6, max_outage=2),
    ]
    s = episode_duration_summary(eps, within_slots=2)
    assert s == {"episodes": 3, "within_share": pytest.approx(2 / 3), "median_slots": 2.0}
    empty = episode_duration_summary([])
    assert empty["episodes"] == 0 and np.isnan(empty["within_share"])


# -- CSV writers -------------------------------------------------------------------


def test_decomposition_csv_bytes(tmp_path):
    dec = Decomposition(
        direct=np.array([[0.5, 1.0]]),
        indirect=np.array([[0.25, 0.0]]),
        slot_direct=np.array([0.5, 1.0]),
        slot_indirect=np.array([0.25, 0.0]),
        slot_observed=np.array([1.0, 2.0]),
    )
    path = tmp_path / "d.csv"
    write_decomposition_csv(path, dec)
    assert path.read_bytes() == (
        b"slot,direct_total,indirect_total,observed_total\n0,0.5,0.25,1.0\n1,1.0,0.0,2.0\n"
    )


def test_predictions_csv_skips_unevaluated_cells(tmp_path):
    rep = PredictionReport(
        horizon=1,
        predicted=np.array([[np.nan, 0.75], [np.nan, 1.5]]),
        actual=np.array([[0.0, 1.0], [2.0, 2.0]]),
        mae=0.0,
        rmse=0.0,
        persistence_mae=0.0,
        per_unit_mae=np.zeros(2),
    )
    path = tmp_path / "p.csv"
    write_predictions_csv(path, rep)
    assert path.read_text() == "unit,slot,predicted,actual\n0,1,0.75,1.0\n1,1,1.5,2.0\n"


def _csv_writer_predictions(path, report):
    """The csv.writer form of write_predictions_csv, as the reference for its bytes."""
    units, slots = np.nonzero(~np.isnan(report.predicted))
    predicted = report.predicted[units, slots].astype(np.float64).tolist()
    actual = report.actual[units, slots].astype(np.float64).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["unit", "slot", "predicted", "actual"])
        wr.writerows(zip(units.tolist(), slots.tolist(), map(repr, predicted), map(repr, actual)))


def _awkward_predictions():
    """A report with skipped cells, extreme floats and a signed zero."""
    rng = np.random.default_rng(17)
    predicted = rng.lognormal(0.0, 4.0, (5, 40))
    predicted[:, :3] = np.nan
    predicted[2, 10:15] = np.nan
    predicted[0, 3:9] = [1e-20, 1.5e300, 5e-324, 1e16, 0.0001, 123456789012345680.0]
    actual = rng.poisson(3.0, (5, 40)).astype(np.float64)
    actual[1, 3:6] = [2.5e-7, 1e22, -0.0]
    return PredictionReport(
        horizon=3, predicted=predicted, actual=actual, mae=0.0, rmse=0.0, persistence_mae=0.0, per_unit_mae=np.zeros(5)
    )


def test_predictions_csv_matches_the_csv_writer_bytes(tmp_path):
    rep = _awkward_predictions()
    write_predictions_csv(tmp_path / "new.csv", rep)
    _csv_writer_predictions(tmp_path / "ref.csv", rep)
    out = (tmp_path / "new.csv").read_bytes()
    assert out == (tmp_path / "ref.csv").read_bytes()
    assert b"e-324" in out and b"e+300" in out and b"nan" not in out


@pytest.mark.parametrize("chunk_rows", [1, 2, 7, 39, 40, 64, 120, 2**20])
def test_predictions_csv_chunks_write_the_one_chunk_bytes(tmp_path, monkeypatch, chunk_rows):
    rep = _awkward_predictions()  # 180 rows; a chunk is one or more whole units of 40 slots
    write_predictions_csv(tmp_path / "one.csv", rep)
    monkeypatch.setattr(analyze_module, "PREDICTION_CHUNK_ROWS", chunk_rows)
    write_predictions_csv(tmp_path / "chunked.csv", rep)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def _lognormal_predictions(K, T, horizon, seed=0):
    """A report shaped like predict's: lognormal rates, Poisson counts, the first `horizon` slots skipped."""
    rng = np.random.default_rng(seed)
    predicted = rng.lognormal(-1.0, 1.5, (K, T))
    actual = rng.poisson(predicted).astype(np.float64)
    predicted[:, :horizon] = np.nan
    return PredictionReport(
        horizon=horizon, predicted=predicted, actual=actual, mae=0.0, rmse=0.0, persistence_mae=0.0,
        per_unit_mae=np.zeros(K),
    )


def test_predictions_csv_holds_one_chunk_of_strings(tmp_path):
    rep = _lognormal_predictions(100, 600, 6)  # the ingest_forecast benchmark's shape
    tracemalloc.start()
    try:
        write_predictions_csv(tmp_path / "new.csv", rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _csv_writer_predictions(tmp_path / "ref.csv", rep)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    # the strings of 65536 rows, which is nearly all 59400 of this file, held 12.9 MiB
    assert peak < 2 * 2**20, peak / 2**20


def test_predictions_csv_bytes_with_many_units_and_an_unevaluated_unit(tmp_path):
    many = _lognormal_predictions(5000, 2, 1, seed=3)  # a chunk is 2048 units of one evaluated slot
    skipped = _awkward_predictions()
    skipped.predicted[3] = np.nan  # unit 3 writes no row
    for name, rep in (("many", many), ("skipped", skipped)):
        write_predictions_csv(tmp_path / f"{name}.csv", rep)
        _csv_writer_predictions(tmp_path / f"{name}_ref.csv", rep)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes(), name
    assert b"\n3," not in (tmp_path / "skipped.csv").read_bytes()


def test_fit_sigmoid_accumulates_only_its_variable(monkeypatch):
    """A response curve accumulates its own weather variable, not all M, and
    fits exactly what it fits on a dataset holding that variable alone."""
    alone = _sigmoid_dataset()
    K, T, _ = alone.weather.values.shape
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(0.0, 9.0, (K, T, 1)), alone.weather.values, rng.gamma(1.5, 2.0, (K, T, 1))], axis=2)
    ds = wrap_dataset(alone.outages.counts, x, variable_names=["gust", "wind_speed", "precip"])
    ds.units = alone.units
    cfg = DecayConfig(omega=np.array([0.0, 0.3, 1.7]), window_slots=6)
    seen = []

    def recording(weather, decay):
        seen.append((weather, decay))
        return accumulate(weather, decay)

    monkeypatch.setattr(analyze_module, "accumulate", recording)
    fit = fit_sigmoid(ds, "wind_speed", cfg=cfg)
    [(weather, decay)] = seen
    assert np.shape(weather) == (K, T, 1)
    assert decay.omega.tolist() == [0.3] and decay.window_slots == 6
    assert_array_equal(accumulate(weather, decay)[:, :, 0], accumulate(ds.weather, cfg)[:, :, 1])
    assert fit == fit_sigmoid(alone, "wind_speed", cfg=DecayConfig(omega=np.array([0.3]), window_slots=6))


def test_fit_sigmoid_points_hold_at_most_three_k_by_t_arrays(monkeypatch):
    """Over every unit the points are read from the counts and the accumulated
    variable as they are, with no copy of their rows."""
    K, T = 200, 600
    rng = np.random.default_rng(6)
    counts = rng.poisson(0.5, (K, T))  # about 39% of the cells have an outage
    ds = wrap_dataset(counts, rng.uniform(0.0, 10.0, (K, T, 2)))
    # the solver's cost follows the number of points, not K x T: it is left out
    monkeypatch.setattr(analyze_module, "fit_sigmoid_points", lambda v, r, variable: (v.size, r.size))
    tracemalloc.start()
    try:
        sizes = fit_sigmoid(ds, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == (np.count_nonzero(counts), np.count_nonzero(counts))
    assert peak < 3 * K * T * 8, peak / (K * T * 8)


def test_sigmoid_and_episode_and_sweep_csv(tmp_path):
    fit = SigmoidFit(variable="wind_speed", a=2.0, c=3.5, L=0.9, rmse=0.01, n_points=42)
    sig = tmp_path / "s.csv"
    write_sigmoid_csv(sig, [fit])
    assert sig.read_text() == "variable,a,c,L,rmse,n_points\nwind_speed,2.0,3.5,0.9,0.01,42\n"

    epi = tmp_path / "e.csv"
    write_episodes_csv(epi, [Episode(unit=1, start_slot=4, end_slot=6, max_outage=7)])
    assert epi.read_text() == "unit,start,end,duration_slots,max_outage\n1,4,6,3,7\n"

    sw = tmp_path / "w.csv"
    write_sweep_csv(sw, [(0, 0, 0.0, 0.0), (1, 2, 12.5, 0.25)])
    assert sw.read_text() == (
        "top_units,edges_per_unit,reduction_pct,std_err\n0,0,0.0,0.0\n1,2,12.5,0.25\n"
    )
