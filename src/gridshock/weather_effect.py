"""Cumulative weather effect: fresh windowed sums, one GEMM per chunk of slots.

The model does not react to instantaneous weather alone; stress accumulates.
For unit i, slot t, variable m the effect is

    v[i,t,m] = sum_{tau = t-d+1 .. t} x[i,tau,m] * exp(-omega_m * (t - tau))

i.e. a length-d window where older samples are discounted at a per-variable
rate omega_m. omega is learned jointly with the rest of the model, so the
sensitivity dv/domega is computed here as well. Slots before the start of the
series contribute nothing (the window is truncated, not padded).

Every v[i,t,m] is a fresh sum of its own window, never a running one, so its
rounding error is relative to that window and the rate's sign does not matter.
Output slots are cut into chunks of CHUNK_SLOTS on a grid that starts at slot 0
of the series, and each chunk is one matrix product per variable; a slot
range [t0, t1) computes the chunks that it touches, so its values are the
whole series' values at those slots, bit for bit. Given a `WeatherScaler`, the sums
standardize each raw slot, x = (raw - mean) / scale, as they copy it into a chunk's
input window, the only standardized weather there is; without one they sum raw values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, at_least, checked

DEFAULT_WINDOW_SLOTS = 24  # 3 days of 3-hour slots
# Output slots per matrix product: at K=400, 32 (the default minibatch width) beat 16 and 64.
CHUNK_SLOTS = 32
# Units per chunk of WeatherScaler.fit's passes over the weather: its temporaries
# are this many units' slots, not a second K x T x M array.
SCALER_CHUNK_UNITS = 8


@dataclass
class DecayConfig:
    """Per-variable decay rates omega (M-vector) and window length d.

    The constrained model space requires omega >= 0, which
    ModelParams.check_invariants enforces.
    """

    omega: np.ndarray
    window_slots: int = DEFAULT_WINDOW_SLOTS

    def __post_init__(self):
        self.omega = np.atleast_1d(np.asarray(self.omega, dtype=np.float64))
        if self.omega.ndim != 1:
            raise ValidationError(f"omega must be a vector, got shape {self.omega.shape}")
        if not np.isfinite(self.omega).all():
            raise ValidationError("decay rates must be finite")
        checked(self.window_slots, at_least(1), "window_slots")


def as_weather_array(weather) -> np.ndarray:
    """`weather` (K x T x M array or WeatherTensor) as a float K x T x M array."""
    x = np.asarray(getattr(weather, "values", weather), dtype=np.float64)
    if x.ndim != 3:
        raise ValidationError(f"expected a K x T x M tensor, got shape {x.shape}")
    return x


def _finite(x: np.ndarray, unit: int = 0, slot: int = 0) -> np.ndarray:
    """The weather x (units x slots x M, from `unit` and `slot` of the whole series), once checked finite."""
    if not np.isfinite(x).all():
        i, t, m = np.argwhere(~np.isfinite(x))[0]
        raise ValidationError(f"non-finite weather input at (unit={unit + i}, slot={slot + t}, var={m})")
    return x


def _band(omega: np.ndarray, d: int, lag_sum: bool) -> np.ndarray:
    """The (M, C + d - 1, C) weights of one chunk, C = CHUNK_SLOTS: slot r of
    the chunk's input window (its d - 1 history slots first) feeds output slot
    c at lag c + d - 1 - r, with weight e^{-omega lag} when 0 <= lag < d. With
    `lag_sum`, C more columns hold -lag e^{-omega lag}, the weights of dv/domega."""
    C, lag = CHUNK_SLOTS, np.arange(d)
    w = np.exp(-np.multiply.outer(omega, lag))
    table = np.concatenate([w, -lag * w, np.zeros((omega.shape[0], 1))], axis=1)  # its last column is 0
    at = np.arange(C) + (d - 1) - np.arange(C + d - 1)[:, None]  # the lag of each (input, output) pair
    at = np.where((at >= 0) & (at < d), at, -1)
    return table[:, np.concatenate([at, np.where(at >= 0, at + d, -1)], axis=1) if lag_sum else at]


def _accumulate(weather, cfg: DecayConfig, lag_sum: bool, t0: int, t1: int | None, scaler):
    """(v, dv/domega) of `weather`, standardized by `scaler` unless it is None, at slots [t0, t1)
    (default: to the end) as C-contiguous K x (t1 - t0) x M arrays; dv/domega is None unless `lag_sum`."""
    C, d = CHUNK_SLOTS, cfg.window_slots
    # the chunk at c computes slots [c, c + C) from its window, slots [c - d + 1, c + C)
    first = t0 - t0 % C  # the chunk holding t0
    x = as_weather_array(weather)
    K, T, M = x.shape
    t1 = T if t1 is None else t1
    if not 0 <= t0 <= t1 <= T:
        raise ValidationError(f"slot range [{t0}, {t1}) is not within the {T} slots of the weather")
    if scaler is not None:
        if scaler.mean.shape[0] != M:
            raise ValidationError(f"scaler was fit on {scaler.mean.shape[0]} variables, input has {M}")
        mean, scale = scaler.mean[:, None, None], scaler.scale[:, None, None]
    if cfg.omega.shape[0] != M:
        raise ValidationError(f"omega has {cfg.omega.shape[0]} entries for {M} weather variables")
    band = _band(cfg.omega, d, lag_sum)
    # One chunk's input window at a time, as an (M, K, slot) copy that is zero
    # outside the series: every chunk is then the same product, of operands
    # that BLAS reads as they are, and no copy of the whole range is made.
    window = np.zeros((M, K, C + d - 1))
    out = np.empty((K, band.shape[2]))
    v = np.empty((K, t1 - t0, M))
    dv = np.empty_like(v) if lag_sum else None
    for c in range(first, t1, C):
        w0 = c - (d - 1)
        a, b = max(w0, 0) - w0, min(c + C, T) - w0  # the part of the window within the series
        window[:, :, a:b] = x[:, w0 + a : w0 + b].transpose(2, 0, 1)
        if scaler is not None:  # in place over the whole window, which is contiguous, so no temporary
            window -= mean
            window /= scale
        window[:, :, :a] = 0.0
        window[:, :, b:] = 0.0
        _finite(window.transpose(1, 2, 0), slot=w0)  # its zeros outside the series are finite
        s, e = max(c, t0) - c, min(c + C, t1) - c  # the chunk's slots within [t0, t1)
        for m in range(M):
            np.matmul(window[m], band[m], out=out)
            v[:, c + s - t0 : c + e - t0, m] = out[:, s:e]
            if lag_sum:
                dv[:, c + s - t0 : c + e - t0, m] = out[:, C + s : C + e]
    return v, dv


def accumulate(weather, cfg: DecayConfig, t0: int = 0, t1: int | None = None, *, scaler=None) -> np.ndarray:
    """Discounted windowed sum v of `weather` at slots [t0, t1), as in :func:`accumulate_with_grad`."""
    return _accumulate(weather, cfg, False, t0, t1, scaler)[0]


def accumulate_with_grad(weather, cfg: DecayConfig, t0: int = 0, t1: int | None = None, *, scaler=None):
    """Return (v, dv/domega) at slots [t0, t1) (default: every slot), both
    K x (t1 - t0) x M, equal bit for bit to the whole series' at those slots, of the weather
    standardized by `scaler` if given. A non-finite value read, raw or standardized, is an error.

    dv[i,t,m]/domega_m = sum_tau -(t - tau) * x[i,tau,m] * exp(-omega_m (t - tau)).
    """
    return _accumulate(weather, cfg, True, t0, t1, scaler)


@dataclass
class WeatherScaler:
    """Per-variable z-score standardization, fit on the training span.

    `accumulate` and `accumulate_with_grad` apply it to raw weather as they
    read each slot; it is persisted alongside the model so held-out data is
    scaled identically. Constant variables get a unit scale so they pass
    through as zeros rather than dividing by zero.
    """

    mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scale: np.ndarray = field(default_factory=lambda: np.ones(0))

    @classmethod
    def fit(cls, weather) -> "WeatherScaler":
        """The mean and standard deviation of each variable over all units and slots,
        bit for bit numpy's, with temporaries of SCALER_CHUNK_UNITS units."""
        x = as_weather_array(weather)
        K, T, M = x.shape
        chunks = [(u0, x[u0 : u0 + SCALER_CHUNK_UNITS]) for u0 in range(0, K, SCALER_CHUNK_UNITS)]
        for u0, chunk in chunks:
            _finite(chunk, unit=u0)
        mean = x.mean(axis=(0, 1))
        if M < 2 or x.size == 0 or not x.flags.c_contiguous:
            std = x.std(axis=(0, 1))  # numpy sums M = 1 pairwise, and other layouts in other orders
        else:
            # numpy reduces a C-contiguous K x T x M array over its first two axes one
            # cell at a time in memory order, so each chunk's sum, with the sum so far
            # added into its first cell, is the running sum of x.std's squares.
            acc, buf = np.zeros(M), np.empty_like(chunks[0][1])
            for _, chunk in chunks:
                sq = buf[: chunk.shape[0]]
                for m in range(M):  # a broadcast mean makes numpy buffer up to 8192 values of the chunk
                    np.subtract(chunk[:, :, m], mean[m], out=sq[:, :, m])
                sq *= sq
                sq[0, 0] += acc
                acc = sq.sum(axis=(0, 1))
            std = np.sqrt(acc / (K * T))
        scale = np.where(std > 0, std, 1.0)
        return cls(mean=mean, scale=scale)

    def __eq__(self, other):
        if not isinstance(other, WeatherScaler):
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(self.scale, other.scale)
