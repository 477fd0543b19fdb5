import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import naive_accumulate
from gridshock.errors import ValidationError
from gridshock.model import kernel_matrix, kernel_matrix_with_grad
from gridshock.weather_effect import DecayConfig, WeatherScaler, accumulate, accumulate_with_grad


def test_accumulate_hand_values():
    # single unit/variable, x = [2, 3, 1], omega = ln 2 so each lag halves
    x = np.array([2.0, 3.0, 1.0]).reshape(1, 3, 1)
    v2 = accumulate(x, DecayConfig(omega=[np.log(2.0)], window_slots=2))
    assert_allclose(v2[0, :, 0], [2.0, 3.0 + 1.0, 1.0 + 1.5], rtol=1e-15)
    v3 = accumulate(x, DecayConfig(omega=[np.log(2.0)], window_slots=3))
    assert_allclose(v3[0, 2, 0], 1.0 + 1.5 + 0.5, rtol=1e-15)


def test_accumulate_zero_rate_is_windowed_sum():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 10, 1))
    v = accumulate(x, DecayConfig(omega=[0.0], window_slots=4))
    t = 7
    assert_allclose(v[:, t, 0], x[:, t - 3 : t + 1, 0].sum(axis=1), rtol=1e-12)


def test_accumulate_window_truncates_at_series_start():
    x = np.ones((1, 3, 1))
    v = accumulate(x, DecayConfig(omega=[0.0], window_slots=50))
    assert_array_equal(v[0, :, 0], [1.0, 2.0, 3.0])


def test_accumulate_matches_naive_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 20, 2))
    omega = np.array([0.07, 0.9])
    cfg = DecayConfig(omega=omega, window_slots=6)
    assert_allclose(accumulate(x, cfg), naive_accumulate(x, omega, 6), rtol=1e-13, atol=1e-13)


def test_accumulate_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 12, 2))
    omega = np.array([0.3, 0.8])
    _, dv = accumulate_with_grad(x, DecayConfig(omega=omega, window_slots=5))
    h = 1e-6
    for m in range(2):
        om_p, om_m = omega.copy(), omega.copy()
        om_p[m] += h
        om_m[m] -= h
        fd = (
            accumulate(x, DecayConfig(omega=om_p, window_slots=5))
            - accumulate(x, DecayConfig(omega=om_m, window_slots=5))
        ) / (2 * h)
        assert_allclose(dv[:, :, m], fd[:, :, m], rtol=1e-7, atol=1e-9)


def test_accumulate_per_variable_rates_are_independent():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 15, 2))
    cfg = DecayConfig(omega=[0.1, 2.0], window_slots=8)
    v = accumulate(x, cfg)
    solo0 = accumulate(x[:, :, :1], DecayConfig(omega=[0.1], window_slots=8))
    assert_allclose(v[:, :, 0], solo0[:, :, 0], rtol=1e-15)


def test_decay_config_validation():
    with pytest.raises(ValidationError, match="vector"):
        DecayConfig(omega=np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="finite"):
        DecayConfig(omega=[np.inf])
    with pytest.raises(ValidationError, match="window_slots"):
        DecayConfig(omega=[0.1], window_slots=0)
    # negative rates are representable; the model-space check rejects them later
    cfg = DecayConfig(omega=[-0.2])
    assert cfg.omega[0] == -0.2


def test_accumulate_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="K x T x M"):
        accumulate(np.zeros((3, 4)), DecayConfig(omega=[0.1]))
    with pytest.raises(ValidationError, match="non-finite"):
        accumulate(np.full((1, 2, 1), np.nan), DecayConfig(omega=[0.1]))
    with pytest.raises(ValidationError, match="omega has"):
        accumulate(np.zeros((1, 2, 3)), DecayConfig(omega=[0.1]))


def test_scaler_standardizes_and_roundtrips():
    rng = np.random.default_rng(23)
    x = rng.normal(3.0, 2.5, size=(4, 50, 2))
    scaler = WeatherScaler.fit(x)
    z = scaler.transform(x)
    assert_allclose(z.mean(axis=(0, 1)), 0.0, atol=1e-12)
    assert_allclose(z.std(axis=(0, 1)), 1.0, rtol=1e-12)
    assert scaler == WeatherScaler(mean=scaler.mean.copy(), scale=scaler.scale.copy())


def test_scaler_constant_variable_passes_through_as_zeros():
    x = np.concatenate([np.full((2, 8, 1), 7.0), np.random.default_rng(1).normal(size=(2, 8, 1))], axis=2)
    scaler = WeatherScaler.fit(x)
    assert scaler.scale[0] == 1.0
    assert_allclose(scaler.transform(x)[:, :, 0], 0.0, atol=1e-15)


def test_scaler_dimension_mismatch():
    scaler = WeatherScaler.fit(np.zeros((1, 4, 2)) + 1.0)
    with pytest.raises(ValidationError, match="fit on 2 variables"):
        scaler.transform(np.zeros((1, 4, 3)))


# -- the windowed exponential filter against the sums it replaced -------------------


def _lag_loop(x, omega, d):
    """(v, dv/domega) summed lag by lag, as the weather term was computed
    before the rolling filter replaced it."""
    K, T, M = x.shape
    v = np.zeros_like(x)
    dv = np.zeros_like(x)
    for lag in range(min(d, T)):
        w = np.exp(-omega * lag)
        if lag == 0:
            v += x * w
        else:
            v[:, lag:, :] += x[:, : T - lag, :] * w
            dv[:, lag:, :] += x[:, : T - lag, :] * (-lag * w)
    return v, dv


def _kernel_recursion(counts, beta, L):
    """(R, dR/dbeta) rolled column by column, as the kernel was computed
    before it moved onto the shared filter."""
    K, T = counts.shape
    decay, drop = np.exp(-beta), np.exp(-beta * (L + 1))
    P = np.zeros((K, T))
    S1 = np.zeros((K, T))
    for t in range(T - 1):
        P[:, t + 1] = decay * (counts[:, t] + P[:, t])
        S1[:, t + 1] = decay * (counts[:, t] + P[:, t] + S1[:, t])
        if t >= L:
            old = counts[:, t - L]
            P[:, t + 1] -= old * drop
            S1[:, t + 1] -= (L + 1) * old * drop
    return beta[:, None] * P, P - beta[:, None] * S1


@st.composite
def _weather_case(draw):
    d = draw(st.integers(1, 12))
    K, M = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    T = draw(st.integers(10 * d + 1, 10 * d + 30))
    seed = draw(st.integers(0, 2**16))
    rates = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
    omega = np.array(draw(st.lists(rates, min_size=M, max_size=M)))
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0, size=(K, T, M))
    x[rng.random(x.shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0  # runs of calm slots
    return x, omega, d


@settings(max_examples=60)
@given(case=_weather_case())
def test_filter_matches_the_lag_loop_and_the_oracle(case):
    x, omega, d = case
    cfg = DecayConfig(omega=omega, window_slots=d)
    v, dv = accumulate_with_grad(x, cfg)
    assert v.flags.c_contiguous and dv.flags.c_contiguous
    # The recursion adds each slot once and subtracts it when it leaves the
    # window, so its rounding error is relative to the sum of |x| over all
    # earlier slots at the same discount, not to the window's own sum (which
    # may be 0 after a calm run). At omega = 0 nothing decays and that sum is
    # the whole history's.
    v_abs, dv_abs = _lag_loop(np.abs(x), omega, x.shape[1])
    v_ref, dv_ref = _lag_loop(x, omega, d)
    assert (np.abs(v - v_ref) <= 1e-12 * v_abs).all()
    assert (np.abs(dv - dv_ref) <= 1e-12 * np.abs(dv_abs)).all()
    assert (np.abs(v - naive_accumulate(x, omega, d)) <= 1e-12 * v_abs).all()


@settings(max_examples=40)
@given(case=_weather_case())
def test_forward_only_accumulate_is_the_gradient_paths_v(case):
    x, omega, d = case
    cfg = DecayConfig(omega=omega, window_slots=d)
    assert accumulate(x, cfg).tobytes() == accumulate_with_grad(x, cfg)[0].tobytes()


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(1, 6),
    T=st.integers(1, 120),
    L=st.integers(0, 50),
    zero_rate=st.booleans(),
)
def test_kernel_is_bit_identical_to_the_column_recursion(seed, K, T, L, zero_rate):
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rng.uniform(0.1, 3.0), size=(K, T)).astype(np.int64)
    beta = rng.uniform(0.0, 3.0, K)
    if zero_rate:
        beta[0] = 0.0
    R_ref, dR_ref = _kernel_recursion(counts.astype(np.float64), beta, L)
    R, dR = kernel_matrix_with_grad(counts, beta, L)
    assert R.flags.c_contiguous and dR.flags.c_contiguous
    assert R.tobytes() == R_ref.tobytes()
    assert dR.tobytes() == dR_ref.tobytes()
    assert kernel_matrix(counts, beta, L).tobytes() == R_ref.tobytes()
