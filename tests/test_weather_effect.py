import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import naive_accumulate
from gridshock.errors import ValidationError
from gridshock.model import Kernel, kernel_blocks, kernel_matrix, kernel_matrix_with_grad
from gridshock.weather_effect import CHUNK_SLOTS, DecayConfig, WeatherScaler, accumulate, accumulate_with_grad


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


def _standardized(x, scaler, t0=0, t1=None):
    """The standardized weather at slots [t0, t1), through the sums: a window of one
    slot weighs that slot by e^0 = 1 and every other by 0, so each sum is its slot."""
    return accumulate(x, DecayConfig(omega=np.zeros(x.shape[2]), window_slots=1), t0, t1, scaler=scaler)


def test_scaler_standardizes_and_roundtrips():
    rng = np.random.default_rng(23)
    x = rng.normal(3.0, 2.5, size=(4, 50, 2))
    scaler = WeatherScaler.fit(x)
    z = _standardized(x, scaler)
    assert_allclose(z.mean(axis=(0, 1)), 0.0, atol=1e-12)
    assert_allclose(z.std(axis=(0, 1)), 1.0, rtol=1e-12)
    assert scaler == WeatherScaler(mean=scaler.mean.copy(), scale=scaler.scale.copy())


def test_scaler_constant_variable_passes_through_as_zeros():
    x = np.concatenate([np.full((2, 8, 1), 7.0), np.random.default_rng(1).normal(size=(2, 8, 1))], axis=2)
    scaler = WeatherScaler.fit(x)
    assert scaler.scale[0] == 1.0
    assert_allclose(_standardized(x, scaler)[:, :, 0], 0.0, atol=1e-15)


def test_scaler_standardizes_into_one_array():
    rng = np.random.default_rng(4)
    x = rng.normal(3.0, 5.0, size=(40, 300, 3))
    scaler = WeatherScaler(mean=rng.normal(size=3), scale=rng.uniform(0.5, 2.0, 3))
    tracemalloc.start()
    try:
        z = _standardized(x, scaler)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert z.tobytes() == ((x - scaler.mean) / scaler.scale).tobytes()
    # the result and one chunk's window: no standardized copy of the series
    assert peak <= x.nbytes * 9 // 8 + 64 * 1024, peak
    part = _standardized(x, scaler, 70, 230)
    assert part.flags.c_contiguous
    assert part.tobytes() == np.ascontiguousarray(z[:, 70:230]).tobytes()


def test_scaler_names_the_slot_of_a_non_finite_result():
    x = np.zeros((2, 10, 2))
    x[1, 7, 0] = np.nan
    scaler = WeatherScaler(mean=np.zeros(2), scale=np.ones(2))
    for t0 in (0, 5):
        with pytest.raises(ValidationError, match=r"\(unit=1, slot=7, var=0\)"):
            _standardized(x, scaler, t0, 9)
    x[1, 7, 0] = 1e308  # finite, but not once standardized
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match=r"\(unit=1, slot=7, var=0\)"):
        _standardized(x, WeatherScaler(mean=np.array([-1e308, 0.0]), scale=np.ones(2)), 5)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(1, 40),
    T=st.integers(1, 300),
    M=st.integers(1, 5),
    layout=st.sampled_from(["C", "every other slot", "Fortran"]),
)
def test_scaler_is_numpy_mean_and_std_bit_for_bit(seed, K, T, M, layout):
    """The chunked fit follows numpy's own reduction order: M = 1 and views
    that are not C-contiguous take numpy's std, which sums them pairwise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.normal(0.0, 20.0), rng.uniform(0.01, 50.0), (K, T, M))
    x = {"C": x, "every other slot": x[:, ::2], "Fortran": np.asfortranarray(x)}[layout]
    scaler = WeatherScaler.fit(x)
    std = x.std(axis=(0, 1))
    assert scaler.mean.tobytes() == x.mean(axis=(0, 1)).tobytes()
    assert scaler.scale.tobytes() == np.where(std > 0, std, 1.0).tobytes()


def test_scaler_fit_holds_no_copy_of_the_weather():
    x = np.random.default_rng(8).normal(2.0, 3.0, (64, 256, 3))
    tracemalloc.start()
    try:
        WeatherScaler.fit(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy's std makes a K x T x M temporary, and the finiteness check a K x T x M bool array
    assert peak < x.nbytes // 4, peak / x.nbytes


def test_scaler_fit_names_the_cell_of_a_non_finite_value():
    x = np.ones((20, 10, 2))
    x[11, 7, 1] = np.nan  # in the second chunk of units
    with pytest.raises(ValidationError, match=r"\(unit=11, slot=7, var=1\)"):
        WeatherScaler.fit(x)


def test_scaler_dimension_mismatch():
    scaler = WeatherScaler.fit(np.zeros((1, 4, 2)) + 1.0)
    with pytest.raises(ValidationError, match="fit on 2 variables"):
        _standardized(np.zeros((1, 4, 3)), scaler)
    with pytest.raises(ValidationError, match="fit on 2 variables, input has 3"):
        accumulate_with_grad(np.zeros((1, 4, 3)), DecayConfig(omega=np.zeros(3)), scaler=scaler)


# -- the fresh windowed sums against the lag loop, and slot ranges against the whole series --


def _lag_loop(x, omega, d):
    """(v, dv/domega) summed lag by lag over whole arrays: the definition,
    with no chunks and no matrix products."""
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
def test_windowed_sums_match_the_lag_loop_and_the_oracle(case):
    x, omega, d = case
    cfg = DecayConfig(omega=omega, window_slots=d)
    v, dv = accumulate_with_grad(x, cfg)
    assert v.flags.c_contiguous and dv.flags.c_contiguous
    # Each sum is fresh, so its rounding error is relative to the sum of |x|
    # over its own window, which is 0 after a calm run: then v is exactly 0.
    v_abs, dv_abs = _lag_loop(np.abs(x), omega, d)
    v_ref, dv_ref = _lag_loop(x, omega, d)
    assert (np.abs(v - v_ref) <= 1e-12 * v_abs).all()
    assert (np.abs(dv - dv_ref) <= 1e-12 * np.abs(dv_abs)).all()
    assert (np.abs(v - naive_accumulate(x, omega, d)) <= 1e-12 * v_abs).all()


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(1, 12),
    T=st.integers(1, 3 * CHUNK_SLOTS + 20),
    M=st.integers(1, 3),
    d=st.integers(1, 40),
    data=st.data(),
)
def test_a_slot_range_is_the_whole_series_sliced_bit_for_bit(seed, K, T, M, d, data):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0, size=(K, T, M))
    omega = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=M, max_size=M)))
    t0 = data.draw(st.integers(0, T - 1))
    t1 = data.draw(st.one_of(st.just(T), st.integers(t0 + 1, T)))
    cfg = DecayConfig(omega=omega, window_slots=d)
    v_all, dv_all = accumulate_with_grad(x, cfg)
    v, dv = accumulate_with_grad(x, cfg, t0, t1)
    assert v.flags.c_contiguous and dv.flags.c_contiguous
    assert v.tobytes() == np.ascontiguousarray(v_all[:, t0:t1]).tobytes()
    assert dv.tobytes() == np.ascontiguousarray(dv_all[:, t0:t1]).tobytes()
    v_fwd = accumulate(x, cfg, t0, t1)
    assert v_fwd.flags.c_contiguous
    assert v_fwd.tobytes() == np.ascontiguousarray(accumulate(x, cfg)[:, t0:t1]).tobytes()


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(1, 8),
    T=st.integers(1, 3 * CHUNK_SLOTS + 20),
    M=st.integers(1, 3),
    d=st.integers(1, 40),
    data=st.data(),
)
def test_scaled_sums_at_a_slot_range_are_the_standardized_series_sliced(seed, K, T, M, d, data):
    """Standardizing each slot as a chunk reads it gives the bits of standardizing
    the whole series by the formula first, at any slot range."""
    rng = np.random.default_rng(seed)
    x = rng.normal(3.0, 10.0, size=(K, T, M))
    x[rng.random(x.shape) < 0.3] = 0.0
    scaler = WeatherScaler(mean=rng.normal(0.0, 5.0, M), scale=rng.uniform(0.1, 10.0, M))
    omega = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 5.0)), min_size=M, max_size=M)))
    t0 = data.draw(st.integers(0, T - 1))
    t1 = data.draw(st.one_of(st.just(T), st.integers(t0 + 1, T)))
    cfg = DecayConfig(omega=omega, window_slots=d)
    z = (x - scaler.mean) / scaler.scale
    v_all, dv_all = accumulate_with_grad(z, cfg)
    v, dv = accumulate_with_grad(x, cfg, t0, t1, scaler=scaler)
    assert v.tobytes() == np.ascontiguousarray(v_all[:, t0:t1]).tobytes()
    assert dv.tobytes() == np.ascontiguousarray(dv_all[:, t0:t1]).tobytes()
    assert accumulate(x, cfg, t0, t1, scaler=scaler).tobytes() == v.tobytes()


def test_a_slot_range_reads_only_the_chunks_that_it_touches():
    """Slots outside the chunks of a range, and outside their windows' history, are never read."""
    rng = np.random.default_rng(3)
    C, d = CHUNK_SLOTS, 5
    x = rng.normal(size=(2, 4 * C, 2))
    cfg = DecayConfig(omega=[0.2, 0.0], window_slots=d)
    expected = accumulate_with_grad(x, cfg)[0][:, C + 3 : 2 * C - 1]
    x[:, : C - (d - 1)] = np.nan
    x[:, 2 * C :] = np.nan
    v, _ = accumulate_with_grad(x, cfg, C + 3, 2 * C - 1)
    assert v.tobytes() == np.ascontiguousarray(expected).tobytes()
    with pytest.raises(ValidationError, match=f"slot={2 * C}, "):
        accumulate_with_grad(x, cfg, C + 3, 2 * C + 1)
    for t0, t1 in ((5, 4 * C + 1), (-1, 3), (6, 5)):
        with pytest.raises(ValidationError, match=rf"slot range \[{t0}, {t1}\) is not within the {4 * C} slots"):
            accumulate_with_grad(np.zeros_like(x), cfg, t0, t1)


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


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(1, 6),
    T=st.integers(1, 120),
    L=st.integers(0, 50),
    data=st.data(),
)
def test_a_kernel_slot_range_is_the_hand_sliced_history(seed, K, T, L, data):
    """The kernel at [t0, t1) runs from the L slots before t0, as a block
    evaluation used to cut that history out by hand."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rng.uniform(0.1, 3.0), size=(K, T)).astype(np.int64)
    beta = rng.uniform(0.0, 3.0, K)
    t0 = data.draw(st.integers(0, T - 1))
    t1 = data.draw(st.one_of(st.just(T), st.integers(t0 + 1, T)))
    start = max(0, t0 - L)
    R_hand, dR_hand = kernel_matrix_with_grad(counts[:, start:t1], beta, L)
    R_ref, dR_ref = _kernel_recursion(counts[:, start:t1].astype(np.float64), beta, L)
    R, dR = kernel_matrix_with_grad(counts, beta, L, t0, t1)
    assert R.flags.c_contiguous and dR.flags.c_contiguous
    for got, hand, ref in ((R, R_hand, R_ref), (dR, dR_hand, dR_ref)):
        assert got.tobytes() == np.ascontiguousarray(hand[:, t0 - start :]).tobytes()
        assert got.tobytes() == np.ascontiguousarray(ref[:, t0 - start :]).tobytes()


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(1, 6),
    T=st.integers(1, 120),
    L=st.integers(0, 50),
    lag_sum=st.booleans(),
    data=st.data(),
)
def test_the_roll_over_any_cut_of_its_slots_is_the_one_block_roll(seed, K, T, L, lag_sum, data):
    """One roll carried across consecutive blocks of [t0, T) gives every slot the
    bits of the single block [t0, T), whatever the cut, and so do R and dR/dbeta,
    which are formed in place in the roll's buffers."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rng.uniform(0.1, 3.0), size=(K, T)).astype(np.int64)
    beta = rng.uniform(0.0, 3.0, K)
    t0 = data.draw(st.integers(0, T - 1))
    edges = [t0, *sorted(data.draw(st.sets(st.integers(t0 + 1, T), max_size=8)) - {T}), T]
    blocks = list(zip(edges[:-1], edges[1:]))
    kern = Kernel(beta, L)
    ((P, S1),) = kern.run(counts, [(t0, T)], lag_sum=lag_sum)
    pieces = list(kern.run(counts, blocks, lag_sum=lag_sum))
    assert [len(p) for p, _ in pieces] == [t1 - b0 for b0, t1 in blocks]
    assert np.concatenate([p for p, _ in pieces]).tobytes() == P.tobytes()
    if lag_sum:
        assert np.concatenate([s for _, s in pieces]).tobytes() == S1.tobytes()
    else:
        assert S1 is None and all(s is None for _, s in pieces)
    R, dR = kernel_matrix_with_grad(counts, beta, L, t0, T)
    sums = list(kernel_blocks(counts, beta, L, blocks, grad=lag_sum))
    assert np.concatenate([r for r, _ in sums], axis=1).tobytes() == R.tobytes()
    if lag_sum:
        assert np.concatenate([d for _, d in sums], axis=1).tobytes() == dR.tobytes()
