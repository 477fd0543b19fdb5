"""Cumulative weather effect, and the windowed exponential filter behind it.

The model does not react to instantaneous weather alone; stress accumulates.
For unit i, slot t, variable m the effect is

    v[i,t,m] = sum_{tau = t-d+1 .. t} x[i,tau,m] * exp(-omega_m * (t - tau))

i.e. a length-d window where older samples are discounted at a per-variable
rate omega_m. omega is learned jointly with the rest of the model, so the
sensitivity dv/domega is computed here as well. Slots before the start of the
series contribute nothing (the window is truncated, not padded). v and the
triggering kernel of model.py are both sums of a :class:`WindowFilter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, at_least, checked

DEFAULT_WINDOW_SLOTS = 24  # 3 days of 3-hour slots


@dataclass
class DecayConfig:
    """Per-variable decay rates omega (M-vector) and window length d.

    The constrained model space requires omega >= 0, which
    ModelParams.check_invariants enforces; :class:`WindowFilter` needs it.
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


def _as_array(weather) -> np.ndarray:
    x = getattr(weather, "values", weather)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValidationError(f"expected a K x T x M tensor, got shape {x.shape}")
    if not np.isfinite(x).all():
        i, t, m = np.argwhere(~np.isfinite(x))[0]
        raise ValidationError(f"non-finite weather input at (unit={i}, slot={t}, var={m})")
    return x


class WindowFilter:
    """Windowed exponential sums of a series x, rolled forward slot by slot:

        P[t]  = sum_{lag = 1..window} x[t-lag] e^{-rate lag}
        S1[t] = sum_{lag = 1..window} lag x[t-lag] e^{-rate lag}   (-dP/drate)

    with slots before the series counting 0. A slot's leading axis carries
    one rate per entry (per unit for the kernel, per variable for the
    weather); further axes share it. `step` also takes rates over a slot's
    leading axes, (K, S) for S parameter sets rolled out together. Each step
    adds the newest slot and subtracts the one leaving the window, so a step
    costs the same for any window; for a negative rate that subtraction
    loses precision exponentially in the series length, so rates must be >= 0.
    """

    def __init__(self, rate: np.ndarray, window: int):
        self.rate = np.asarray(rate, dtype=np.float64)
        self.window = window
        self.decay = np.exp(-self.rate)
        self.drop = np.exp(-self.rate * (window + 1))

    def step(self, P: np.ndarray, new: np.ndarray, old: np.ndarray | None = None) -> np.ndarray:
        """P before the next slot, from P before this slot, this slot's x
        (`new`) and the x that ages out of the window (`old`, x[t - window];
        None while the window is filling)."""
        P = _per_lead(self.decay, P) * (new + P)
        if old is not None:
            P -= old * _per_lead(self.drop, P)
        return P

    def run(self, x: np.ndarray, lag_sum: bool = True):
        """(P, S1) at every slot of x, one slot per row of axis 0; S1 is None
        unless `lag_sum`."""
        L, lead = self.window, (-1,) + (1,) * (x.ndim - 2)
        decay, drop = self.decay.reshape(lead), self.drop.reshape(lead)
        P = np.zeros_like(x)
        S1 = np.zeros_like(x) if lag_sum else None
        for t in range(x.shape[0] - 1):
            old = x[t - L] if t >= L else None
            P[t + 1] = self.step(P[t], x[t], old)
            if lag_sum:
                S1[t + 1] = decay * (x[t] + P[t] + S1[t])
                if old is not None:
                    S1[t + 1] -= (L + 1) * old * drop
        return P, S1


def _per_lead(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """v, whose shape is the leading axes of X (a vector for one leading
    axis), shaped to broadcast along the trailing axes of X."""
    return v.reshape(v.shape + (1,) * (X.ndim - v.ndim))


def _accumulate(weather, cfg: DecayConfig, lag_sum: bool):
    """(v, -S1) of `weather` as C-contiguous K x T x M arrays; -S1 is None unless `lag_sum`."""
    x = _as_array(weather)
    if cfg.omega.shape[0] != x.shape[2]:
        raise ValidationError(f"omega has {cfg.omega.shape[0]} entries for {x.shape[2]} weather variables")
    # v = x + P over lags 0..d-1. The filter runs on a (T, M, K) copy, so the
    # per-variable rate sits on each slot's leading axis; each time-major array
    # is freed as soon as it is used, which keeps a fit's peak memory where it was.
    xt = np.ascontiguousarray(x.transpose(1, 2, 0))
    P, S1 = WindowFilter(cfg.omega, cfg.window_slots - 1).run(xt, lag_sum)
    del xt
    v = np.add(x, P.transpose(2, 0, 1), out=np.empty_like(x))
    del P
    return v, (np.negative(S1.transpose(2, 0, 1), out=np.empty_like(x)) if lag_sum else None)


def accumulate(weather, cfg: DecayConfig) -> np.ndarray:
    """Discounted windowed sum v of `weather` (K x T x M array or WeatherTensor)."""
    return _accumulate(weather, cfg, lag_sum=False)[0]


def accumulate_with_grad(weather, cfg: DecayConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return (v, dv/domega), both K x T x M.

    dv[i,t,m]/domega_m = sum_tau -(t - tau) * x[i,tau,m] * exp(-omega_m (t - tau)) = -S1.
    """
    return _accumulate(weather, cfg, lag_sum=True)


@dataclass
class WeatherScaler:
    """Per-variable z-score standardization, fit on the training span.

    Applied to raw weather *before* accumulation; persisted alongside the
    model so held-out data is scaled identically. Constant variables get a
    unit scale so they pass through as zeros rather than dividing by zero.
    """

    mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scale: np.ndarray = field(default_factory=lambda: np.ones(0))

    @classmethod
    def fit(cls, weather) -> "WeatherScaler":
        x = _as_array(weather)
        mean = x.mean(axis=(0, 1))
        std = x.std(axis=(0, 1))
        scale = np.where(std > 0, std, 1.0)
        return cls(mean=mean, scale=scale)

    def transform(self, weather) -> np.ndarray:
        x = _as_array(weather)
        if x.shape[2] != self.mean.shape[0]:
            raise ValidationError(
                f"scaler was fit on {self.mean.shape[0]} variables, input has {x.shape[2]}"
            )
        return (x - self.mean) / self.scale

    def __eq__(self, other):
        if not isinstance(other, WeatherScaler):
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(self.scale, other.scale)
