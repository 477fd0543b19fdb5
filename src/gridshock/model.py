"""Outage intensity model: parameters, neural weather response, triggering kernel.

The per-unit, per-slot outage count N[i,t] is Poisson with rate

    lambda[i,t] = gamma_i * mu(v[i,t]; phi)                      (direct)
                + sum_{t'<t} sum_j alpha[i,j] N[j,t'] beta_j e^{-beta_j (t-t')}
                                                                  (indirect)
                + eps                                             (floor)

where v is the cumulative weather effect, mu is a small fully-connected
network with a non-negative output, alpha[i,i] = 1 (self-excitation is always
on), and cross-unit alpha lives on the candidate graph under the no-loop
constraint. Kernel lags are integer slot differences t - t' >= 1 and are
truncated at `trig_window` slots; with beta >= 0.1 the dropped tail is below
e^-4 of the kernel mass.

Each term has one implementation shared by fitting, simulation and
prediction: the network runs MLP_CHUNK_ROWS rows at a time (`direct_field`
forms the weather term from `mlp_forward`; fitting takes each chunk's mu from
`mlp_backward`'s own forward step, so it needs one pass, with the same bits,
and gets the input gradient back already contracted with dv/domega),
`Kernel` (the window filter that also accumulates the weather) rolls the
truncated-kernel state forward, slot by slot or over a whole history, and
`Coupling` adds sum_j alpha[i, j] R[j] over the graph's per-edge weights in a
fixed order, so evaluation is bit-reproducible. `intensity` is the slow
single-cell reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import meta_value, read_container, write_container
from .errors import COUNT, NONNEGATIVE, NUMBER, PAIRS, POSITIVE, ValidationError, at_least, checked
from .topology import EdgeWeights, Graph
from .weather_effect import DecayConfig, WeatherScaler, WindowFilter, _per_lead, accumulate

MODEL_SCHEMA = "gridshock-model-v1"

DEFAULT_HIDDEN = (32, 16)
DEFAULT_EPS = 1e-3
DEFAULT_TRIG_WINDOW = 40  # 5 days of 3-hour slots
# Rows per network pass: one chunk's activations stay in the CPU cache. A multiple
# of the BLAS kernels' row unroll, so each row's sums match a whole-array pass.
MLP_CHUNK_ROWS = 512


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def sigmoid(z) -> np.ndarray:
    """1 / (1 + e^-z), the derivative of softplus."""
    with np.errstate(over="ignore"):  # exp(-z) = inf for z < -709 gives 0
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class MlpParams:
    """Weights of the weather-response network mu: R^M -> [0, inf).

    Hidden layers use tanh; the output layer applies softplus, so mu is
    non-negative by construction (all-zero parameters give mu = ln 2).
    """

    weights: list  # list of (n_in, n_out) arrays
    biases: list  # list of (n_out,) arrays

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        if len(self.weights) != len(self.biases):
            raise ValidationError("weights and biases must pair up layer by layer")
        if not self.weights:
            raise ValidationError("network needs at least one layer")
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValidationError(f"layer {idx}: weight {w.shape} / bias {b.shape} mismatch")
            if idx > 0 and w.shape[0] != self.weights[idx - 1].shape[1]:
                raise ValidationError(f"layer {idx}: input width does not match previous layer")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValidationError(f"layer {idx}: non-finite parameter")
        if self.weights[-1].shape[1] != 1:
            raise ValidationError("output layer must have width 1")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @classmethod
    def zeros(cls, input_dim: int, hidden: tuple = DEFAULT_HIDDEN) -> "MlpParams":
        sizes = (input_dim, *hidden, 1)
        return cls(
            weights=[np.zeros((sizes[k], sizes[k + 1])) for k in range(len(sizes) - 1)],
            biases=[np.zeros(sizes[k + 1]) for k in range(len(sizes) - 1)],
        )

    @classmethod
    def init_random(cls, input_dim: int, hidden: tuple = DEFAULT_HIDDEN, seed: int = 0) -> "MlpParams":
        """Gaussian weights scaled by 1/sqrt(fan_in), zero biases."""
        rng = np.random.default_rng(seed)
        sizes = (input_dim, *hidden, 1)
        weights = [
            rng.standard_normal((sizes[k], sizes[k + 1])) / np.sqrt(sizes[k])
            for k in range(len(sizes) - 1)
        ]
        biases = [np.zeros(sizes[k + 1]) for k in range(len(sizes) - 1)]
        return cls(weights=weights, biases=biases)

    def copy(self) -> "MlpParams":
        return MlpParams(weights=[w.copy() for w in self.weights], biases=[b.copy() for b in self.biases])

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def unflatten_like(self, vec: np.ndarray) -> "MlpParams":
        out_w, out_b = [], []
        pos = 0
        for w, b in zip(self.weights, self.biases):
            out_w.append(vec[pos : pos + w.size].reshape(w.shape).copy())
            pos += w.size
            out_b.append(vec[pos : pos + b.size].copy())
            pos += b.size
        return MlpParams(weights=out_w, biases=out_b)


def _row_chunks(n: int) -> list:
    """Slices of MLP_CHUNK_ROWS rows covering range(n). A lone last row joins the
    chunk before it: numpy multiplies a single row by a vector-matrix product whose
    sums round differently, and every row must get the bits of a whole-array pass."""
    starts = list(range(0, n, MLP_CHUNK_ROWS))
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(r0, r1) for r0, r1 in zip(starts, [*starts[1:], n])]


def _activations(mlp: MlpParams, x: np.ndarray):
    """([x, h_1, ..., h_L], z_out): the rows x, each hidden layer's tanh
    activation and the output pre-activation."""
    hiddens = [x]
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        h = hiddens[-1] @ w
        h += b
        hiddens.append(np.tanh(h, out=h))
    return hiddens, (hiddens[-1] @ mlp.weights[-1] + mlp.biases[-1])[:, 0]


def mlp_forward(mlp: MlpParams, v: np.ndarray):
    """Batched forward pass: v (n, M) -> (mu (n,), cache for backprop).

    Rows go through the network MLP_CHUNK_ROWS at a time, so no activation
    outlives its chunk; the cache is the 2-D input itself, from which
    :func:`mlp_backward` computes the activations again, chunk by chunk.
    """
    v = np.asarray(v, dtype=np.float64)
    squeeze = v.ndim == 1
    x = v[None, :] if squeeze else v
    if x.shape[1] != mlp.input_dim:
        raise ValidationError(f"network expects {mlp.input_dim} inputs, got {x.shape[1]}")
    mu = np.empty(x.shape[0])
    for chunk in _row_chunks(x.shape[0]):
        mu[chunk] = softplus(_activations(mlp, x[chunk])[1])
    return (float(mu[0]) if squeeze else mu), x


def mlp_backward(mlp: MlpParams, cache, dmu: np.ndarray, tangent: np.ndarray, on_chunk=None):
    """Backprop per-sample output gradients `dmu` (n,) through the network.

    `cache` is the input rows, as :func:`mlp_forward` returns them. Each
    chunk's activations are computed from it while they are still in the CPU
    cache and consumed in place; the parameter gradients are summed chunk by
    chunk, the bias sums as BLAS products with a ones vector. When `on_chunk`
    is given, `on_chunk(rows, mu)` is called with each chunk's row slice and
    network output right after its forward step, and may fill those rows of
    `dmu` before they are read: a caller whose upstream gradient depends on mu
    then needs no separate forward pass.

    The input gradient g[n, m] = dmu[n] d mu[n] / d x[n, m] comes back
    contracted with `tangent` (n, M), laid out like the cache:
    c[m] = sum_n g[n, m] tangent[n, m], summed as sum_j W0[m, j] (tangent^T dz)[m, j]
    with dz the first layer's pre-activation gradient, so no (n, M) input
    gradient is formed. Returns (grad MlpParams, c (M,)).
    """
    x = cache
    dmu = np.asarray(dmu, dtype=np.float64)
    grad_w = [np.zeros_like(w) for w in mlp.weights]
    grad_b = [np.zeros_like(b) for b in mlp.biases]
    contracted = np.zeros_like(mlp.weights[0])
    ones = np.ones(MLP_CHUNK_ROWS + 1)  # _row_chunks' last chunk may hold one row more
    top = len(mlp.weights) - 1
    for chunk in _row_chunks(x.shape[0]):
        hiddens, z_out = _activations(mlp, x[chunk])
        if on_chunk is not None:
            on_chunk(chunk, softplus(z_out))
        dz = (dmu[chunk] * sigmoid(z_out))[:, None]  # softplus' = sigmoid
        for k in range(top, -1, -1):
            grad_w[k] += hiddens[k].T @ dz
            grad_b[k] += ones[: len(dz)] @ dz
            if k == 0:
                break
            # the output layer is one column wide: a broadcast product, not a GEMM
            dh = dz * mlp.weights[k][:, 0] if k == top else dz @ mlp.weights[k].T
            # tanh' = 1 - h^2, formed in place of the activation
            h = np.subtract(1.0, np.square(hiddens[k], out=hiddens[k]), out=hiddens[k])
            dz = np.multiply(dh, h, out=dh)
        contracted += tangent[chunk].T @ dz
    return MlpParams(weights=grad_w, biases=grad_b), (mlp.weights[0] * contracted).sum(axis=1)


@dataclass
class ModelParams:
    """Full parameter set: coupling, recovery, design margin, decay, network."""

    alpha: EdgeWeights
    beta: np.ndarray  # (K,) recovery rates
    gamma: np.ndarray  # (K,) design-margin coefficients
    decay: DecayConfig
    mlp: MlpParams
    scaler: WeatherScaler
    eps: float = DEFAULT_EPS
    trig_window: int = DEFAULT_TRIG_WINDOW

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        K = self.alpha.num_nodes
        if self.beta.shape != (K,) or self.gamma.shape != (K,):
            raise ValidationError(
                f"beta/gamma must be length-{K} vectors, got {self.beta.shape} and {self.gamma.shape}"
            )
        checked(self.eps, POSITIVE, "intensity floor eps")
        checked(self.trig_window, at_least(1), "trig_window")
        if self.mlp.input_dim != self.decay.omega.shape[0]:
            raise ValidationError(
                f"network input width {self.mlp.input_dim} != number of weather variables {self.decay.omega.shape[0]}"
            )

    @property
    def graph(self) -> Graph:
        return self.alpha.graph

    @property
    def num_units(self) -> int:
        return self.alpha.num_nodes

    @property
    def num_variables(self) -> int:
        return self.decay.omega.shape[0]

    def check_invariants(self) -> None:
        """Raise unless the constrained parameter space is respected."""
        rates = ("beta", "recovery rate", self.beta), ("gamma", "design-margin coefficient", self.gamma)
        for name, what, arr in (*rates, ("omega", "decay rate", self.decay.omega)):
            bad = np.flatnonzero(~(np.isfinite(arr) & (arr >= 0)))
            if bad.size:
                checked(float(arr[bad[0]]), NONNEGATIVE, f"{what} {name}[{bad[0]}]")
        self.alpha.check_invariants()

    def copy(self) -> "ModelParams":
        return ModelParams(
            alpha=self.alpha.copy(),
            beta=self.beta.copy(),
            gamma=self.gamma.copy(),
            decay=DecayConfig(omega=self.decay.omega.copy(), window_slots=self.decay.window_slots),
            mlp=self.mlp.copy(),
            scaler=WeatherScaler(mean=self.scaler.mean.copy(), scale=self.scaler.scale.copy()),
            eps=self.eps,
            trig_window=self.trig_window,
        )


@dataclass
class IntensityField:
    """lambda = direct + indirect + eps over the full K x T grid."""

    lam: np.ndarray
    direct: np.ndarray
    indirect: np.ndarray
    eps: float


class Kernel(WindowFilter):
    """Truncated exponential triggering kernel of recovery rates beta: the
    state P is the window filter of the counts and the triggering mass is
    R = beta * P. A state may carry trailing axes (one column per replication
    or per prediction target); `step` also takes (K, S) rates, one column per
    parameter set, for a (K, S, ...) state."""


def kernel_matrix(counts: np.ndarray, beta: np.ndarray, trig_window: int) -> np.ndarray:
    """R[j, t] = sum over lags 1..trig_window of N[j, t-lag] beta_j e^{-beta_j lag}."""
    kern = Kernel(beta, trig_window)
    P, _ = kern.run(_time_major(counts), lag_sum=False)
    return np.ascontiguousarray((kern.rate * P).T)


def kernel_matrix_with_grad(counts: np.ndarray, beta: np.ndarray, trig_window: int):
    """Return (R, dR/dbeta), both K x T: R = beta P and dR/dbeta = P - beta S1
    with the window filter's sums P and S1, computed one slot per row."""
    kern = Kernel(beta, trig_window)
    P, S1 = kern.run(_time_major(counts))
    return np.ascontiguousarray((kern.rate * P).T), np.ascontiguousarray((P - kern.rate * S1).T)


def _time_major(counts) -> np.ndarray:
    """A K x T count history as a T x K array, one contiguous row per slot."""
    return np.ascontiguousarray(np.asarray(counts, dtype=np.float64).T)


def kernel_mass_closed_form(beta: float, num_lags: int) -> float:
    """Closed-form sum_{s=1..L} beta e^{-beta s} (geometric series)."""
    if beta == 0.0:
        return 0.0
    q = np.exp(-beta)
    return float(beta * q * (1.0 - q**num_lags) / (1.0 - q))


class Coupling:
    """Snapshot of the active couplings alpha[i, j] != 0 as edge arrays in
    (target, source) order. Both sums add one edge's term at a time in that
    order, so every caller gets the same bits; they do it one rank group
    (:func:`_rank_groups`) per indexed add, as no unit appears twice in a group.

    Given S weight sets on one graph, it keeps the union of their active
    edges with an (edge, set) weight matrix and sums all sets at once over
    arrays whose leading axes are (K, S). An edge a set does not use weighs
    0.0 there and adds +0.0, so each set gets the bits of its own Coupling."""

    def __init__(self, *alphas: EdgeWeights):
        g = alphas[0].graph
        w = alphas[0].w if len(alphas) == 1 else np.stack([a.w for a in alphas], axis=1)
        active = w != 0.0 if w.ndim == 1 else (w != 0.0).any(axis=1)
        tgt, src, self.w = g.tgt[active], g.src[active], w[active]
        self._into_target = _rank_groups(tgt, src, self.w)
        self._into_source = _rank_groups(src, tgt, self.w)

    def apply(self, R: np.ndarray) -> np.ndarray:
        """sum_j alpha[i, j] R[j] (alpha[i, i] = 1) for any R whose leading axis
        is K, or whose leading axes are (K, S) for S stacked sets."""
        return _grouped_sum(R, self._into_target)

    def adjoint(self, W: np.ndarray) -> np.ndarray:
        """Transpose of :meth:`apply`: U[j] = W[j] + sum_i alpha[i, j] W[i]."""
        return _grouped_sum(W, self._into_source)


def _rank_groups(into: np.ndarray, frm: np.ndarray, w: np.ndarray) -> list:
    """Edges frm[e] -> into[e] split by rank: group r holds (into, frm, w) of
    every edge that is the r-th, in edge order, of the edges sharing its `into` unit."""
    order = np.argsort(into, kind="stable")
    ranked = into[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(into.size) - np.searchsorted(ranked, ranked)
    groups = (rank == r for r in range(rank.max(initial=-1) + 1))
    return [(into[sel], frm[sel], w[sel]) for sel in groups]


def _grouped_sum(X: np.ndarray, groups: list) -> np.ndarray:
    """X[i] + sum of w X[frm] over the edges into i, one rank group at a time."""
    out = X.copy()
    for into, frm, w in groups:
        out[into] += _per_lead(w, X) * X[frm]
    return out


def indirect_field(alpha: EdgeWeights, R: np.ndarray) -> np.ndarray:
    """Triggering term sum_j alpha[i, j] R[j, t] over the K x T grid."""
    return Coupling(alpha).apply(R)


def direct_field(params: ModelParams, v: np.ndarray):
    """Weather term gamma_i mu(v[i,t]) for all cells; returns (direct, mu)."""
    K, T, M = v.shape
    mu = mlp_forward(params.mlp, v.reshape(K * T, M))[0].reshape(K, T)
    return params.gamma[:, None] * mu, mu


def weather_response(params: ModelParams, weather) -> np.ndarray:
    """Network output mu(v) over the K x T grid from raw weather: standardized,
    accumulated, then the network. It depends on omega, the scaler and the
    network only, not on gamma."""
    return direct_field(params, accumulate(params.scaler.transform(weather), params.decay))[1]


def direct_from_weather(params: ModelParams, weather) -> np.ndarray:
    """Weather term gamma_i mu(v[i,t]) from raw weather; the same bits as :func:`direct_field`."""
    return params.gamma[:, None] * weather_response(params, weather)


def intensity(params: ModelParams, history, v: np.ndarray, i: int, t: int):
    """Single-cell intensity: returns (lambda, direct, indirect) at (i, t).

    Sums kernel lags explicitly; `intensity_field` is the fast path and must
    agree with this to floating-point accuracy.
    """
    counts = np.asarray(getattr(history, "counts", history), dtype=np.float64)
    K, T = counts.shape
    if not (0 <= i < K and 0 <= t < T):
        raise ValidationError(f"cell ({i}, {t}) outside {K} x {T} grid")
    mu_val, _ = mlp_forward(params.mlp, v[i, t])
    direct = float(params.gamma[i] * mu_val)
    indirect = 0.0
    alpha = params.alpha.alpha
    sources = [i] + sorted(s for s, tgt in params.graph.edges if tgt == i)
    for j in sources:
        a = alpha[i, j]
        if a == 0.0:
            continue
        acc = 0.0
        for lag in range(1, min(t, params.trig_window) + 1):
            acc += counts[j, t - lag] * params.beta[j] * np.exp(-params.beta[j] * lag)
        indirect += a * acc
    lam = direct + indirect + params.eps
    return lam, direct, indirect


def intensity_field(params: ModelParams, history, weather, direct: np.ndarray | None = None) -> IntensityField:
    """Vectorized intensity over all cells. The weather term is
    :func:`direct_from_weather` of `weather` unless the caller passes it as `direct`."""
    counts = np.asarray(getattr(history, "counts", history), dtype=np.float64)
    if direct is None:
        direct = direct_from_weather(params, weather)
    if direct.shape != counts.shape:
        raise ValidationError(f"weather term shape {direct.shape} does not match counts {counts.shape}")
    R = kernel_matrix(counts, params.beta, params.trig_window)
    indirect = indirect_field(params.alpha, R)
    lam = direct + indirect + params.eps
    return IntensityField(lam=lam, direct=direct, indirect=indirect, eps=params.eps)


def serialize(params: ModelParams, path) -> None:
    """Write a gridshock-model-v1 file (bit-faithful float round-trip)."""
    meta = {
        "num_nodes": params.num_units,
        "edges": [list(e) for e in params.graph.edges],
        "hidden_sizes": [int(w.shape[1]) for w in params.mlp.weights[:-1]],
        "num_layers": len(params.mlp.weights),
        "window_slots": params.decay.window_slots,
        "eps": params.eps,
        "trig_window": params.trig_window,
    }
    arrays = {
        "alpha": params.alpha.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "omega": params.decay.omega,
        "scaler_mean": params.scaler.mean,
        "scaler_scale": params.scaler.scale,
    }
    for k, (w, b) in enumerate(zip(params.mlp.weights, params.mlp.biases)):
        arrays[f"mlp_w{k}"] = w
        arrays[f"mlp_b{k}"] = b
    write_container(path, MODEL_SCHEMA, meta, arrays)


def deserialize(path) -> ModelParams:
    """Load a gridshock-model-v1 file written by :func:`serialize`; raises
    ValidationError unless the parameters satisfy :meth:`ModelParams.check_invariants`."""
    meta, arrays = read_container(path, MODEL_SCHEMA)
    edges = tuple(map(tuple, meta_value(meta, "edges", PAIRS)))
    graph = Graph(num_nodes=meta_value(meta, "num_nodes", COUNT), edges=edges)
    weights = EdgeWeights(graph=graph, alpha=arrays["alpha"])
    n_layers = meta_value(meta, "num_layers", COUNT)
    mlp = MlpParams(
        weights=[arrays[f"mlp_w{k}"] for k in range(n_layers)],
        biases=[arrays[f"mlp_b{k}"] for k in range(n_layers)],
    )
    params = ModelParams(
        alpha=weights,
        beta=arrays["beta"],
        gamma=arrays["gamma"],
        decay=DecayConfig(omega=arrays["omega"], window_slots=meta_value(meta, "window_slots", COUNT)),
        mlp=mlp,
        scaler=WeatherScaler(mean=arrays["scaler_mean"], scale=arrays["scaler_scale"]),
        eps=meta_value(meta, "eps", NUMBER),
        trig_window=meta_value(meta, "trig_window", COUNT),
    )
    params.check_invariants()
    return params

