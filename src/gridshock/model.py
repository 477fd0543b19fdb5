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
prediction: the network maps (n, M) rows to mu, MLP_CHUNK_ROWS at a time
(`block_response` forms a block's mu from `mlp_forward`; a gradient evaluation takes
each chunk's mu from `mlp_backward`'s own forward step, so it needs one pass, with the
same bits, and gets the input gradient back already contracted with dv/domega),
`Kernel` rolls the truncated-kernel state forward, slot by slot or as one roll
carried across the blocks of a pass (the weather's windowed sums are fresh sums of raw
weather standardized as they read it, in weather_effect), and `Coupling` adds
sum_j alpha[i, j] R[j] over the graph's per-edge weights in a fixed order, so evaluation
is bit-reproducible. Every lambda is formed by `intensity_from_trigger`, in place of its
triggering term: from a kernel state (`intensity_from_state`: prediction, rollouts), from a
block of `trigger_blocks` (the intensity field, fit's forward-only score) or per network
chunk of a gradient evaluation.
Whole-series passes (the intensity field, prediction's start states, fit's full-series
evaluations) walk the blocks of `time_blocks` on one kernel roll from slot 0, so each
slot gets the same bits in all of them; a minibatch restarts the roll at its own
window. `intensity` is the slow single-cell reference, one row through the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import integer_array, meta_value, read_container, write_container
from .errors import COUNT, FINITE, NONNEGATIVE, NUMBER, POSITIVE, FileFormatError, ValidationError, at_least, checked
from .topology import EdgeWeights, Graph
from .weather_effect import CHUNK_SLOTS, DecayConfig, WeatherScaler, accumulate, as_weather_array

MODEL_SCHEMA = "gridshock-model-v2"

DEFAULT_HIDDEN = (32, 16)
DEFAULT_EPS = 1e-3
DEFAULT_TRIG_WINDOW = 40  # 5 days of 3-hour slots
# Rows per network pass: one chunk's activations stay in the CPU cache. A multiple
# of the BLAS kernels' row unroll, so each row's sums match a whole-array pass.
MLP_CHUNK_ROWS = 512
# Unit-slot cells per block of a whole-series pass: a fit's block holds about 140
# bytes per cell, under 5 MB in all; each block beyond the first recomputes its
# kernel history window, which is what makes much smaller blocks slower.
BLOCK_CELLS = 2**15


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
        return _interleaved(self.weights, self.biases)

    def unflatten_like(self, vec: np.ndarray) -> "MlpParams":
        out_w, out_b = [], []
        pos = 0
        for w, b in zip(self.weights, self.biases):
            out_w.append(vec[pos : pos + w.size].reshape(w.shape).copy())
            pos += w.size
            out_b.append(vec[pos : pos + b.size].copy())
            pos += b.size
        return MlpParams(weights=out_w, biases=out_b)


def _interleaved(weights: list, biases: list) -> np.ndarray:
    """Layer by layer, its weights then its bias, in one vector: `MlpParams.flatten`'s layout."""
    return np.concatenate([a.ravel() for layer in zip(weights, biases) for a in layer])


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


def mlp_forward(mlp: MlpParams, v: np.ndarray) -> np.ndarray:
    """Batched forward pass: rows v (n, M) -> mu (n,), MLP_CHUNK_ROWS rows at a
    time, so no activation outlives its chunk."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != mlp.input_dim:
        raise ValidationError(f"network expects rows of {mlp.input_dim} inputs, got shape {v.shape}")
    mu = np.empty(v.shape[0])
    for chunk in _row_chunks(v.shape[0]):
        mu[chunk] = softplus(_activations(mlp, v[chunk])[1])
    return mu


def mlp_backward(mlp: MlpParams, cache, dmu: np.ndarray, tangent: np.ndarray, on_chunk=None):
    """Backprop per-sample output gradients `dmu` (n,) through the network.

    `cache` is the input rows (n, M), as :func:`mlp_forward` takes them. Each
    chunk's activations are computed from them again, while they are still in
    the CPU cache, and consumed in place; the parameter gradients are summed
    chunk by chunk, the bias sums as BLAS products with a ones vector. When `on_chunk`
    is given, `on_chunk(rows, mu)` is called with each chunk's row slice and
    network output right after its forward step, and may fill those rows of
    `dmu` before they are read: a caller whose upstream gradient depends on mu
    then needs no separate forward pass.

    The input gradient g[n, m] = dmu[n] d mu[n] / d x[n, m] comes back
    contracted with `tangent` (n, M), laid out like the cache:
    c[m] = sum_n g[n, m] tangent[n, m], summed as sum_j W0[m, j] (tangent^T dz)[m, j]
    with dz the first layer's pre-activation gradient, so no (n, M) input
    gradient is formed. Returns (the parameter gradient laid out as by
    :meth:`MlpParams.flatten`, c (M,)), finite or not.
    """
    x = cache
    dmu = np.asarray(dmu, dtype=np.float64)
    grad_w = [np.zeros_like(w) for w in mlp.weights]
    grad_b = [np.zeros_like(b) for b in mlp.biases]
    contracted = np.zeros_like(mlp.weights[0])
    ones = np.ones(MLP_CHUNK_ROWS + 1)  # _row_chunks' last chunk may hold one row more
    top = len(mlp.weights) - 1
    # the hidden layers' weights transposed once, so each chunk's dz @ w_t[k] reads a contiguous operand
    w_t = {k: np.ascontiguousarray(mlp.weights[k].T) for k in range(1, top)}
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
            dh = dz * mlp.weights[k][:, 0] if k == top else dz @ w_t[k]
            # tanh' = 1 - h^2, formed in place of the activation
            h = np.subtract(1.0, np.square(hiddens[k], out=hiddens[k]), out=hiddens[k])
            dz = np.multiply(dh, h, out=dh)
        contracted += tangent[chunk].T @ dz
    return _interleaved(grad_w, grad_b), (mlp.weights[0] * contracted).sum(axis=1)


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
            raise ValidationError(f"beta/gamma must be length-{K} vectors, got {self.beta.shape} and {self.gamma.shape}")
        checked(self.eps, POSITIVE, "intensity floor eps")
        checked(self.trig_window, at_least(1), "trig_window")
        M, mean, scale = self.decay.omega.shape[0], np.shape(self.scaler.mean), np.shape(self.scaler.scale)
        if self.mlp.input_dim != M or mean != (M,) or scale != (M,):
            raise ValidationError(f"network input width {self.mlp.input_dim} and scaler mean/scale shapes {mean} "
                                  f"and {scale} must match the {M} weather variables")

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
        for label, arr, kind, ok in (
            ("recovery rate beta", self.beta, NONNEGATIVE, self.beta >= 0),
            ("design-margin coefficient gamma", self.gamma, NONNEGATIVE, self.gamma >= 0),
            ("decay rate omega", self.decay.omega, NONNEGATIVE, self.decay.omega >= 0),
            ("weather mean scaler_mean", self.scaler.mean, FINITE, True),
            ("weather scale scaler_scale", self.scaler.scale, POSITIVE, np.greater(self.scaler.scale, 0)),
        ):
            bad = np.flatnonzero(~(np.isfinite(arr) & ok))
            if bad.size:
                checked(float(arr[bad[0]]), kind, f"{label}[{bad[0]}]")
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


class Kernel:
    """Windowed exponential sums of the counts at recovery rates beta (the
    triggering mass is R = beta P), rolled forward slot by slot:

        P[t]  = sum_{lag = 1..window} x[t-lag] e^{-rate lag}
        S1[t] = sum_{lag = 1..window} lag x[t-lag] e^{-rate lag}   (-dP/drate)

    with slots before the series counting 0. A slot's leading axis carries
    one rate per unit; further axes share it. `step` also takes rates over a
    slot's leading axes, (K, S) for S parameter sets rolled out together. Each
    step adds the newest slot and subtracts the one leaving the window, so a
    step costs the same for any window; for a negative rate that subtraction
    loses precision exponentially in the series length, so rates must be >= 0.
    """

    def __init__(self, rate: np.ndarray, window: int):
        self.rate = np.asarray(rate, dtype=np.float64)
        self.window = window
        self.decay = np.exp(-self.rate)
        with np.errstate(over="ignore"):  # a rate near the float maximum: e^-inf = 0 is the drop
            self.drop = np.exp(-self.rate * (window + 1))

    def step(self, P: np.ndarray, new: np.ndarray, old: np.ndarray | None = None) -> np.ndarray:
        """P before the next slot, from P before this slot, this slot's x
        (`new`) and the x that ages out of the window (`old`, x[t - window];
        None while the window is filling)."""
        P = _per_lead(self.decay, P) * (new + P)
        if old is not None:
            P -= old * _per_lead(self.drop, P)
        return P

    def run(self, counts: np.ndarray, blocks: list, lag_sum: bool = True):
        """Yield (P, S1) at the slots of each (t0, t1) of `blocks`, consecutive slot
        ranges of the K x T history `counts`, as (t1 - t0) x K float arrays, one
        slot per row; S1 is None unless `lag_sum`. One roll serves every block: it
        starts, with both sums 0, `window` slots before the first block and carries
        its state from block to block, so a slot's sums do not depend on where the
        blocks are cut. Each block copies only the counts that it reads, and no
        array of a block outlives the caller's references to it."""
        start = max(0, blocks[0][0] - self.window)  # the roll's first slot
        carry = []  # each sum's row at the last slot rolled so far
        for t0, t1 in blocks:
            yield self._roll(counts, start, t0, t1, carry, lag_sum)

    def _roll(self, counts, start: int, t0: int, t1: int, carry: list, lag_sum: bool):
        """(P, S1) at slots [t0, t1) of the roll from slot `start`, continued from the
        rows in `carry` (none for its first block), which end at the sums of slot t1 - 1."""
        K, L = counts.shape[0], self.window
        first = t0 - 1 if carry else start  # the slot of the sums' first row
        lo = max(start, first - L)
        x = np.ascontiguousarray(np.transpose(counts[:, lo:t1]), dtype=np.float64)  # one row per slot
        P = np.zeros((t1 - first, K))
        S1 = np.zeros_like(P) if lag_sum else None
        for sums, row in zip((P, S1), carry):
            sums[:1] = row
        for t in range(first, t1 - 1):
            i = t - first
            old = x[t - L - lo] if t - L >= start else None
            P[i + 1] = self.step(P[i], x[t - lo], old)
            if lag_sum:
                S1[i + 1] = self.decay * (x[t - lo] + P[i] + S1[i])
                if old is not None:
                    S1[i + 1] -= (L + 1) * old * self.drop
        carry[:] = [sums[-1:].copy() for sums in (P, S1) if sums is not None]
        return P[t0 - first :], None if S1 is None else S1[t0 - first :]


def _per_lead(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """v, whose shape is the leading axes of X (a vector for one leading
    axis), shaped to broadcast along the trailing axes of X."""
    return v.reshape(v.shape + (1,) * (X.ndim - v.ndim))


def kernel_blocks(counts: np.ndarray, beta: np.ndarray, trig_window: int, blocks: list, grad: bool = True):
    """Yield (R, dR/dbeta) at each (t0, t1) of `blocks`, both K x (t1 - t0), from
    one :meth:`Kernel.run` roll: R = beta P and dR/dbeta = P - beta S1; dR is None
    unless `grad`. dR is formed in S1's buffer and R in P's before the transposed copies."""
    kern = Kernel(beta, trig_window)
    for P, S1 in kern.run(counts, blocks, lag_sum=grad):
        if grad:
            np.subtract(P, np.multiply(S1, kern.rate, out=S1), out=S1)
        R = np.ascontiguousarray(np.multiply(P, kern.rate, out=P).T)
        dR = None if S1 is None else np.ascontiguousarray(S1.T)
        del P, S1  # the caller holds only the copies
        yield R, dR
        del R, dR  # before the roll moves on to the next block


def kernel_matrix(counts: np.ndarray, beta: np.ndarray, trig_window: int) -> np.ndarray:
    """R[j, t] = sum over lags 1..trig_window of N[j, t-lag] beta_j e^{-beta_j lag}."""
    ((R, _),) = kernel_blocks(counts, beta, trig_window, [(0, counts.shape[1])], grad=False)
    return R


def kernel_matrix_with_grad(counts: np.ndarray, beta: np.ndarray, trig_window: int, t0: int = 0, t1: int | None = None):
    """Return (R, dR/dbeta) at slots [t0, t1) (default: all), both K x (t1 - t0), with the
    kernel run from the trig_window slots before t0: :func:`kernel_blocks` of that one block."""
    ((R, dR),) = kernel_blocks(counts, beta, trig_window, [(t0, counts.shape[1] if t1 is None else t1)])
    return R, dR


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


def intensity_from_trigger(trigger: np.ndarray, direct, eps: float) -> np.ndarray:
    """lambda = (direct + trigger) + eps, formed in place of the triggering term `trigger`
    and returned; `direct` broadcasts against it. Every lambda of the model is formed here."""
    return np.add(np.add(direct, trigger, out=trigger), eps, out=trigger)


def intensity_from_state(direct, coupling: Coupling, beta: np.ndarray, P: np.ndarray, eps: float) -> np.ndarray:
    """lambda = direct + sum_j alpha[i, j] beta_j P[j] + eps from the kernel state P, whose
    leading axes are those of beta: (K,), or (K, S) for S sets stacked in `coupling`."""
    return intensity_from_trigger(coupling.apply(_per_lead(beta, P) * P), direct, eps)


def indirect_field(alpha: EdgeWeights, R: np.ndarray) -> np.ndarray:
    """Triggering term sum_j alpha[i, j] R[j, t] over the K x T grid."""
    return Coupling(alpha).apply(R)


def time_blocks(num_units: int, num_slots: int) -> list[tuple[int, int]]:
    """The (t0, t1) blocks of a whole-series pass: as many whole weather chunks as fit
    in BLOCK_CELLS // K slots, at least one, so no two blocks compute one chunk."""
    width = max(1, BLOCK_CELLS // num_units // CHUNK_SLOTS) * CHUNK_SLOTS
    return [(t0, min(t0 + width, num_slots)) for t0 in range(0, num_slots, width)]


def block_response(params: ModelParams, weather, t0: int, t1: int) -> np.ndarray:
    """Network output mu(v) at slots [t0, t1) of raw `weather`, K x (t1 - t0): the
    whole series' values bit for bit, from the standardized sums of those slots only."""
    v = accumulate(weather, params.decay, t0, t1, scaler=params.scaler)
    K, _, M = v.shape
    return mlp_forward(params.mlp, v.reshape(-1, M)).reshape(K, t1 - t0)


def weather_response(params: ModelParams, weather) -> np.ndarray:
    """Network output mu(v) over the K x T grid from raw weather, one block of
    :func:`time_blocks` at a time (:func:`block_response`), so no K x T x M array
    is formed. It depends on omega, the scaler and the network, not on gamma."""
    x = as_weather_array(weather)
    K, T, _ = x.shape
    mu = np.empty((K, T))
    for t0, t1 in time_blocks(K, T):
        mu[:, t0:t1] = block_response(params, x, t0, t1)
    return mu


def direct_from_weather(params: ModelParams, weather) -> np.ndarray:
    """Weather term gamma_i mu(v[i,t]) from raw weather."""
    direct = weather_response(params, weather)
    direct *= params.gamma[:, None]
    return direct


def intensity(params: ModelParams, counts, v: np.ndarray, i: int, t: int):
    """Single-cell intensity of the K x T `counts`: returns (lambda, direct, indirect) at (i, t).

    Sums kernel lags explicitly; `intensity_field` is the fast path and must
    agree with this to floating-point accuracy.
    """
    counts = np.asarray(counts, dtype=np.float64)
    K, T = counts.shape
    if not (0 <= i < K and 0 <= t < T):
        raise ValidationError(f"cell ({i}, {t}) outside {K} x {T} grid")
    direct = float(params.gamma[i] * mlp_forward(params.mlp, v[i, t : t + 1])[0])
    indirect, into = 0.0, (params.graph.tgt == i) & (params.alpha.w != 0)  # unit i's active in-edges
    for j, a in [(i, 1.0), *zip(params.graph.src[into].tolist(), params.alpha.w[into])]:  # in source order
        acc = 0.0
        for lag in range(1, min(t, params.trig_window) + 1):
            acc += counts[j, t - lag] * params.beta[j] * np.exp(-params.beta[j] * lag)
        indirect += a * acc
    lam = direct + indirect + params.eps
    return lam, direct, indirect


def trigger_blocks(params: ModelParams, counts: np.ndarray, coupling: Coupling):
    """Yield (t0, t1, trigger) for each block of :func:`time_blocks`: the triggering
    term sum_j alpha[i, j] R[j] at slots [t0, t1), a new K x (t1 - t0) array, from one
    kernel roll and `coupling`. The parameters are not checked, so perturbed copies
    just outside the model space can be scored."""
    blocks = time_blocks(*counts.shape)
    sums = kernel_blocks(counts, params.beta, params.trig_window, blocks, grad=False)  # one (R, None) per block
    for t0, t1 in blocks:
        yield t0, t1, coupling.apply(next(sums)[0])


def intensity_field(params: ModelParams, counts, weather, direct: np.ndarray | None = None) -> IntensityField:
    """Vectorized intensity over all cells of the K x T `counts`, filled one block of
    :func:`trigger_blocks` at a time. The weather term is :func:`direct_from_weather`
    of `weather` unless the caller passes it as `direct`."""
    params.check_invariants()
    counts = np.asarray(counts)
    if direct is None:
        direct = direct_from_weather(params, weather)
    if direct.shape != counts.shape:
        raise ValidationError(f"weather term shape {direct.shape} does not match counts {counts.shape}")
    lam, indirect = np.empty(counts.shape), np.empty(counts.shape)
    for t0, t1, trigger in trigger_blocks(params, counts, Coupling(params.alpha)):
        indirect[:, t0:t1] = trigger
        lam[:, t0:t1] = intensity_from_trigger(trigger, direct[:, t0:t1], params.eps)
    return IntensityField(lam=lam, direct=direct, indirect=indirect)


def serialize(params: ModelParams, path) -> None:
    """Write a gridshock-model-v2 file (bit-faithful float round-trip): the graph as
    int64 `edge_source` and `edge_target` in its (target, source) order and one
    float64 `edge_weight` per edge, as the model holds them; no array is K x K."""
    meta = {
        "num_nodes": params.num_units,
        "num_layers": len(params.mlp.weights),
        "window_slots": params.decay.window_slots,
        "eps": params.eps,
        "trig_window": params.trig_window,
    }
    arrays = {
        "edge_source": params.graph.src,
        "edge_target": params.graph.tgt,
        "edge_weight": params.alpha.w,
        "beta": params.beta,
        "gamma": params.gamma,
        "omega": params.decay.omega,
        "scaler_mean": params.scaler.mean,
        "scaler_scale": params.scaler.scale,
        **{f"mlp_w{k}": w for k, w in enumerate(params.mlp.weights)},
        **{f"mlp_b{k}": b for k, b in enumerate(params.mlp.biases)},
    }
    write_container(path, MODEL_SCHEMA, meta, arrays)


def deserialize(path) -> ModelParams:
    """Load a gridshock-model-v2 file written by :func:`serialize`. Edge arrays that are
    not integer vectors of one length in (target, source) order are a FileFormatError;
    `Graph` refuses self, out-of-range and duplicate edges, and ValidationError follows
    unless the parameters satisfy :meth:`ModelParams.check_invariants`."""
    meta, arrays = read_container(path, MODEL_SCHEMA)
    src, tgt = integer_array(arrays, "edge_source"), integer_array(arrays, "edge_target")
    pairs = zip(src.tolist(), tgt.tolist()) if src.ndim == tgt.ndim == 1 else ()
    graph = Graph(num_nodes=meta_value(meta, "num_nodes", COUNT), edges=tuple(pairs))
    if not (np.array_equal(graph.src, src) and np.array_equal(graph.tgt, tgt)):  # unequal lengths too
        raise FileFormatError(f"{meta.path}: edge_source and edge_target must be vectors of one length "
                              "in (target, source) order")
    layers = range(meta_value(meta, "num_layers", COUNT))
    params = ModelParams(
        alpha=EdgeWeights(graph=graph, w=arrays["edge_weight"]),
        beta=arrays["beta"],
        gamma=arrays["gamma"],
        decay=DecayConfig(omega=arrays["omega"], window_slots=meta_value(meta, "window_slots", COUNT)),
        mlp=MlpParams(weights=[arrays[f"mlp_w{k}"] for k in layers], biases=[arrays[f"mlp_b{k}"] for k in layers]),
        scaler=WeatherScaler(mean=arrays["scaler_mean"], scale=arrays["scaler_scale"]),
        eps=meta_value(meta, "eps", NUMBER),
        trig_window=meta_value(meta, "trig_window", COUNT),
    )
    params.check_invariants()
    return params

