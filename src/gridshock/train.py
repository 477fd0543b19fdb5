"""Poisson log-likelihood, exact gradients, and projected gradient ascent.

The objective is ell(theta) = sum_{i,t} (-lambda[i,t] + N[i,t] log lambda[i,t])
(the constant -log N! term is dropped). All gradients route through
W[i,t] = N[i,t]/lambda[i,t] - 1:

  * d ell / d gamma_i    = sum_t W[i,t] mu[i,t]
  * phi (network)        : backprop with per-sample upstream weight W[i,t] gamma_i
  * d ell / d omega_m    = sum_{i,t} (input-grad of mu)[i,t,m] * dv/domega[i,t,m],
                           contracted inside the network's backward pass
  * d ell / d alpha_ij   = sum_t W[i,t] R[j,t]
  * d ell / d beta_j     = sum_t (dR[j,t]/dbeta_j) (W[j,t] + sum_i alpha_ij W[i,t])

where R[j,t] is the truncated-kernel triggering mass of unit j. Minibatches
are contiguous time blocks so lagged history stays exact: history before the
block is read from the data, never re-simulated.

A full-series evaluation walks the blocks of `model.time_blocks` on one
kernel roll and sums the blocks' terms in block order, so its memory is
bounded by the block budget and does not grow with the number of slots. The
exact gradient (`gradients`, the analytic side of `fd_audit`) sums the block
evaluation above. The log-likelihood alone (`log_likelihood`, the score `fit`
takes after each epoch, `fd_audit`'s perturbed evaluations) runs no backward
pass: each block's triggering term comes from `model.trigger_blocks`, as
`predict`'s does. Both evaluations form lambda in `model.intensity_from_trigger`,
with the same bits, so the log-likelihood a fit reports is the one its saved
model scores. Every evaluation, minibatches included, reads the dataset's raw weather,
which the weather sums standardize slot by slot, so no standardized series exists.

The gradient norm `fit` reports per epoch is that of the sum of the epoch's
minibatch gradients (see `FitReport`), which the update steps computed anyway.

The optimizer works on one vector theta holding every free parameter
(per-edge alpha, beta, gamma, omega, network weights; see `pack`), and every
gradient, from a block's evaluation to the update, is one vector in the same
layout. An update that leaves theta non-finite is a divergence, as a
non-finite log-likelihood is. Constraints (non-negativity, no loops) are
enforced by projection after every update step; alpha_ii = 1 holds by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import COUNT, POSITIVE, WIDTHS, DivergenceError, NumericError, ValidationError, at_least, checked, one_of
from .errors import OPTIMIZERS
from .ingest import Dataset
from .model import (
    Coupling,
    DEFAULT_EPS,
    DEFAULT_HIDDEN,
    DEFAULT_TRIG_WINDOW,
    MlpParams,
    ModelParams,
    block_response,
    intensity_from_trigger,
    kernel_blocks,
    kernel_matrix_with_grad,
    mlp_backward,
    mlp_forward,  # noqa: F401  (binding patched by perfbench/tracer.py)
    time_blocks,
    trigger_blocks,
)
from .topology import EdgeWeights, Graph, enforce_no_loops
from .weather_effect import (
    DEFAULT_WINDOW_SLOTS,
    DecayConfig,
    WeatherScaler,
    accumulate_with_grad,
)

@dataclass
class FitConfig:
    """Optimizer settings plus the model-shape knobs a fit needs."""

    step_size: float = 0.01
    batch_slots: int = 32  # contiguous slots per minibatch; None = full batch
    max_epochs: int = 200
    tol: float = 1e-6  # stop when |delta ell| over an epoch falls below
    seed: int = 0
    optimizer: str = "adaptive-moments"
    hidden_sizes: tuple = DEFAULT_HIDDEN
    window_slots: int = DEFAULT_WINDOW_SLOTS
    trig_window: int = DEFAULT_TRIG_WINDOW
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        checked(self.step_size, POSITIVE, "step_size")
        checked(self.tol, POSITIVE, "tol")
        checked(self.max_epochs, COUNT, "max_epochs")
        checked(self.seed, COUNT, "seed")
        checked(self.optimizer, one_of(OPTIMIZERS), "optimizer")
        checked(self.hidden_sizes, WIDTHS, "hidden_sizes")
        if self.batch_slots is not None:
            checked(self.batch_slots, at_least(1), "batch_slots")


@dataclass
class FitReport:
    """Per-epoch fitting trace: the log-likelihood at the end of each epoch, the
    norm of the sum of that epoch's minibatch gradients and the number of
    coordinates its projections changed. Each minibatch gradient is taken at
    the parameters of its own update step, so the sum is the full-series
    gradient only at fixed parameters; in full-batch mode it is exactly the
    gradient at the epoch's starting parameters."""

    seed: int
    loglik_trace: list = field(default_factory=list)
    grad_norm_trace: list = field(default_factory=list)
    projection_counts: list = field(default_factory=list)
    seconds: float = 0.0
    converged: bool = False

    @property
    def final_loglik(self) -> float:
        return self.loglik_trace[-1] if self.loglik_trace else float("nan")

    @property
    def epochs_run(self) -> int:
        return len(self.loglik_trace)

    def records(self) -> list:
        """One (epoch, loglik, minibatch_grad_norm, projections) tuple per epoch."""
        return list(zip(range(1, self.epochs_run + 1), self.loglik_trace, self.grad_norm_trace, self.projection_counts))


def pack(params: ModelParams) -> np.ndarray:
    """All free parameters as one vector theta: alpha, beta, gamma, omega, mlp."""
    return np.concatenate([params.alpha.w, params.beta, params.gamma, params.decay.omega, params.mlp.flatten()])


def unpack(params: ModelParams, theta: np.ndarray) -> None:
    """Write a theta laid out as by :func:`pack` back into `params`, in place."""
    ends = np.cumsum([params.alpha.w.size, params.num_units, params.num_units, params.num_variables])
    params.alpha.w, params.beta, params.gamma, params.decay.omega, mlp = np.split(theta.copy(), ends)
    new_mlp = params.mlp.unflatten_like(mlp)
    params.mlp.weights, params.mlp.biases = new_mlp.weights, new_mlp.biases


def _block_loglik_and_grads(params: ModelParams, counts: np.ndarray, weather, t0: int, t1: int):
    """(ell, d ell / d theta) over slots [t0, t1), with exact out-of-block history: a
    minibatch, whose kernel runs from the trig_window slots before t0."""
    R, dR = kernel_matrix_with_grad(counts, params.beta, params.trig_window, t0, t1)
    return _evaluate_block(params, counts, weather, t0, t1, R, dR, Coupling(params.alpha))


def _evaluate_block(params: ModelParams, counts: np.ndarray, weather, t0: int, t1: int, R, dR, coupling):
    """(ell, d ell / d theta laid out as by :func:`pack`) over slots [t0, t1), given the
    block's kernel sums R and dR/dbeta and the Coupling of `params.alpha`.

    The weather sums are computed at the block's slots only, standardizing the raw `weather`
    that they read, history included, so in-block values are identical to a full-series pass.
    """
    v, dvdo = accumulate_with_grad(weather, params.decay, t0, t1, scaler=params.scaler)

    # One network pass: each chunk's mu goes straight into lambda (formed in place of
    # the triggering term), W = N / lambda - 1 and the upstream gradient W gamma, while
    # backprop still has its activations. Rows are (unit, slot) cells, unit-major; W
    # starts as the counts and dmu as each row's gamma, replaced chunk by chunk.
    K, Tb = R.shape
    n_blk = counts[:, t0:t1]
    lam, mu = coupling.apply(R), np.empty((K, Tb))
    W, dmu = n_blk.astype(np.float64, order="C"), np.repeat(params.gamma, Tb)
    lam_rows, mu_rows, W_rows = lam.reshape(-1), mu.reshape(-1), W.reshape(-1)

    def on_chunk(rows, mu_chunk):
        gamma = dmu[rows]
        lam_chunk = intensity_from_trigger(lam_rows[rows], gamma * mu_chunk, params.eps)
        if not np.isfinite(lam_chunk).all():
            unit, slot = divmod(rows.start + int(np.argmax(~np.isfinite(lam_chunk))), Tb)
            raise NumericError(f"non-finite intensity at (unit={unit}, slot={t0 + slot})")
        mu_rows[rows] = mu_chunk
        W_chunk = np.subtract(W_rows[rows] / lam_chunk, 1.0, out=W_rows[rows])
        np.multiply(W_chunk, gamma, out=gamma)

    M = v.shape[2]
    grad_mlp, grad_omega = mlp_backward(
        params.mlp, v.reshape(K * Tb, M), dmu, dvdo.reshape(K * Tb, M), on_chunk=on_chunk
    )
    ll = float(np.sum(-lam + n_blk * np.log(lam)))
    grad_gamma = (W * mu).sum(axis=1)

    # grad_alpha over K edges at a time, so no E x T gather exists
    tgt, src = params.graph.tgt, params.graph.src
    grad_alpha = np.empty(tgt.size)
    for e in range(0, tgt.size, K):
        grad_alpha[e : e + K] = np.vecdot(W[tgt[e : e + K]], R[src[e : e + K]])
    grad_beta = np.einsum("jt,jt->j", dR, coupling.adjoint(W))
    return ll, np.concatenate([grad_alpha, grad_beta, grad_gamma, grad_omega, grad_mlp])


def _series_loglik_and_grads(params: ModelParams, counts: np.ndarray, weather):
    """(ell, d ell / d theta) over every slot: the blocks of :func:`model.time_blocks`,
    evaluated in order on one kernel roll carried across them and one Coupling,
    and summed. Its kernel sums are those of every forward pass, whatever the block size."""
    blocks, coupling = time_blocks(*counts.shape), Coupling(params.alpha)
    sums = kernel_blocks(counts, params.beta, params.trig_window, blocks)  # one (R, dR) per block
    ll, grad = 0.0, 0.0  # the first block's terms make grad a vector
    for (t0, t1), (R, dR) in zip(blocks, sums):
        block_ll, block_grad = _evaluate_block(params, counts, weather, t0, t1, R, dR, coupling)
        ll += block_ll
        grad += block_grad
    return ll, grad


def _series_loglik(params: ModelParams, counts: np.ndarray, weather) -> float:
    """ell over every slot with no backward pass: each block's lambda from its
    triggering term of :func:`model.trigger_blocks` and its weather term of raw
    `weather` (:func:`model.block_response`), and the blocks' sums added in order,
    so it is :func:`_series_loglik_and_grads`' ell bit for bit."""
    ll = 0.0
    for t0, t1, trigger in trigger_blocks(params, counts, Coupling(params.alpha)):
        lam = intensity_from_trigger(trigger, params.gamma[:, None] * block_response(params, weather, t0, t1),
                                     params.eps)
        finite = np.isfinite(lam)
        if not finite.all():
            unit, slot = divmod(int(np.argmax(~finite)), t1 - t0)
            raise NumericError(f"non-finite intensity at (unit={unit}, slot={t0 + slot})")
        ll += float(np.sum(-lam + counts[:, t0:t1] * np.log(lam)))
    return ll


def log_likelihood(params: ModelParams, dataset: Dataset) -> float:
    """Poisson log-likelihood of the dataset under `params` (log N! dropped).

    A forward pass over bounded time blocks (see :func:`model.time_blocks`), each
    standardizing only the weather it reads, so memory beyond the inputs does not
    grow with the number of slots.
    """
    params.check_invariants()
    return _series_loglik(params, dataset.outages.counts, dataset.weather)


def gradients(params: ModelParams, dataset: Dataset) -> np.ndarray:
    """Exact full-batch gradient of the log-likelihood, one vector laid out as by :func:`pack`.

    Summed over the same bounded time blocks as :func:`log_likelihood`, so its memory
    does not grow with the number of slots either.
    """
    params.check_invariants()
    _, g = _series_loglik_and_grads(params, dataset.outages.counts, dataset.weather)
    return g


def project(params: ModelParams) -> tuple[ModelParams, int]:
    """Clamp theta back into its constraint set; returns (params, #coords changed).

    Clamps alpha/beta/gamma/omega at 0 and prunes two-way couplings
    keep-larger. Idempotent.
    """
    out = params.copy()
    changed = 0
    for arr in (out.alpha.w, out.beta, out.gamma, out.decay.omega):
        neg = arr < 0
        changed += int(neg.sum())
        arr[neg] = 0.0
    pruned = enforce_no_loops(out.alpha)
    changed += int((pruned.w != out.alpha.w).sum())
    out.alpha = pruned
    return out, changed


def initialize(
    dataset: Dataset,
    graph: Graph,
    seed: int | None = None,
    cfg: FitConfig | None = None,
) -> ModelParams:
    """Default starting point: gamma 0.1, beta 0.5, candidate alpha 0.01, omega 0.1.

    Network weights are fan-in-scaled Gaussians from `seed`, which defaults to
    `cfg.seed` and may not differ from it; the weather scaler is fit on the
    dataset. The two-way 0.01 couplings are pruned by the tie-break (smaller
    source index survives) so the start point already satisfies every constraint.
    """
    cfg = cfg or FitConfig(seed=seed or 0)
    if seed is not None and seed != cfg.seed:
        raise ValidationError(f"seed {seed} disagrees with the config's seed {cfg.seed}")
    K = dataset.num_units
    M = dataset.num_variables
    if graph.num_nodes != K:
        raise ValidationError(f"graph has {graph.num_nodes} nodes for {K} units")
    weights = enforce_no_loops(EdgeWeights(graph, np.full(len(graph.edges), 0.01)))
    params = ModelParams(
        alpha=weights,
        beta=np.full(K, 0.5),
        gamma=np.full(K, 0.1),
        decay=DecayConfig(omega=np.full(M, 0.1), window_slots=cfg.window_slots),
        mlp=MlpParams.init_random(M, hidden=cfg.hidden_sizes, seed=cfg.seed),
        scaler=WeatherScaler.fit(dataset.weather),
        eps=cfg.eps,
        trig_window=cfg.trig_window,
    )
    params.check_invariants()
    return params


def fd_audit(params: ModelParams, dataset: Dataset, max_coords: int = 40, h: float = 1e-5, seed: int = 0) -> float:
    """Spot-check analytic gradients against central finite differences.

    Samples up to `max_coords` coordinates of theta (see :func:`pack`), across
    all five groups, and returns the worst relative error (absolute error
    where the gradient is tiny). Pure likelihood evaluations on perturbed
    copies, which may step just outside the constraint set; nothing is mutated.
    """
    g = gradients(params, dataset)
    theta = pack(params)
    rng = np.random.default_rng(seed)
    coords = range(theta.size)
    if theta.size > max_coords:
        coords = sorted(rng.choice(theta.size, size=max_coords, replace=False))

    def perturbed_ll(k, delta):
        p, th = params.copy(), theta.copy()
        th[k] += delta
        unpack(p, th)
        return _series_loglik(p, dataset.outages.counts, dataset.weather)

    worst = 0.0
    for k in coords:
        analytic = g[k]
        fd = (perturbed_ll(k, h) - perturbed_ll(k, -h)) / (2 * h)
        if abs(analytic) < 1e-8:
            err = abs(fd - analytic)
        else:
            err = abs(fd - analytic) / abs(analytic)
        worst = max(worst, float(err))
    return worst


class _AdamState:
    """First/second-moment accumulators for theta, one step count for all entries."""

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def step(self, grad: np.ndarray, lr: float, b1=0.9, b2=0.999, eps=1e-8) -> np.ndarray:
        self.t += 1
        self.m = b1 * self.m + (1 - b1) * grad
        self.v = b2 * self.v + (1 - b2) * grad * grad
        m_hat = self.m / (1 - b1**self.t)
        v_hat = self.v / (1 - b2**self.t)
        return lr * m_hat / (np.sqrt(v_hat) + eps)


def minibatches(num_slots: int, batch_slots: int | None) -> list[tuple[int, int]]:
    """The (t0, t1) minibatches of one epoch: consecutive blocks of `batch_slots`
    slots (one block of every slot when None), the last one possibly shorter."""
    width = batch_slots or num_slots
    return [(t0, min(t0 + width, num_slots)) for t0 in range(0, num_slots, width)]


def _apply_update(params: ModelParams, grad: np.ndarray, lr: float, adam: _AdamState | None) -> None:
    """In-place ascent step on theta (plain when adam is None); NumericError if it leaves theta non-finite."""
    with np.errstate(over="ignore"):  # an overflow is reported below, as a divergence
        theta = pack(params) + (lr * grad if adam is None else adam.step(grad, lr))
    bad = ~np.isfinite(theta)
    if bad.any():
        raise NumericError(f"non-finite parameter update at theta[{int(np.argmax(bad))}]")
    unpack(params, theta)


def fit(dataset: Dataset, graph: Graph, cfg: FitConfig) -> tuple[ModelParams, FitReport]:
    """Projected gradient ascent on the log-likelihood; returns best-ell params.

    Minibatches are contiguous time blocks walked in order; every update is
    followed by a projection. Stops at the epoch cap or when the full-data
    log-likelihood moves less than cfg.tol across an epoch. Raises
    DivergenceError (with the trace in the message) if ell or theta turns non-finite.
    """
    t_start = time.perf_counter()
    params = initialize(dataset, graph, cfg=cfg)
    report = FitReport(seed=cfg.seed)
    counts, weather = dataset.outages.counts, dataset.weather
    blocks = minibatches(counts.shape[1], cfg.batch_slots)

    size = pack(params).size
    adam = _AdamState(size) if cfg.optimizer == "adaptive-moments" else None

    best_ll = -np.inf
    best_params = params.copy()
    prev_ll = None
    for epoch in range(cfg.max_epochs):
        projections, epoch_grad = 0, np.zeros(size)
        try:
            for t0, t1 in blocks:
                _, grad = _block_loglik_and_grads(params, counts, weather, t0, t1)
                _apply_update(params, grad, cfg.step_size, adam)
                params, n_proj = project(params)
                projections += n_proj
                epoch_grad += grad
            ll = _series_loglik(params, counts, weather)
            if not np.isfinite(ll):
                raise NumericError("non-finite log-likelihood")
        except NumericError as exc:
            raise DivergenceError(
                f"optimizer left the finite region at epoch {epoch + 1} ({exc}); "
                f"trace tail: {[f'{x:.4g}' for x in report.loglik_trace[-5:]]}"
            ) from exc
        report.loglik_trace.append(ll)
        report.grad_norm_trace.append(float(np.linalg.norm(epoch_grad)))
        report.projection_counts.append(projections)
        if ll > best_ll:
            best_ll = ll
            best_params = params.copy()
        if prev_ll is not None and abs(ll - prev_ll) < cfg.tol:
            report.converged = True
            break
        prev_ll = ll
    report.seconds = time.perf_counter() - t_start
    best_params.check_invariants()
    return best_params, report
