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

A full-series evaluation (`log_likelihood`, `gradients`, `fd_audit` and
the log-likelihood `fit` reports after each epoch) is the same block
evaluation summed over consecutive blocks of at most EVAL_BLOCK_CELLS
unit-slot cells, in block order, so its memory is bounded by that budget and
does not grow with the number of slots. `fit` and `log_likelihood` use the
one partition, so the log-likelihood a fit reports is the one its saved model
scores, bit for bit.

The optimizer works on one vector theta holding every free parameter
(per-edge alpha, beta, gamma, omega, network weights; see `pack`).
Constraints (non-negativity, no loops) are enforced by projection after
every update step; alpha_ii = 1 holds by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import COUNT, POSITIVE, DivergenceError, NumericError, ValidationError, at_least, checked, one_of
from .errors import OPTIMIZERS
from .ingest import Dataset
from .model import (
    Coupling,
    DEFAULT_EPS,
    DEFAULT_HIDDEN,
    DEFAULT_TRIG_WINDOW,
    MlpParams,
    ModelParams,
    kernel_matrix_with_grad,
    mlp_backward,
    mlp_forward,  # noqa: F401  (binding patched by perfbench/tracer.py)
)
from .topology import EdgeWeights, Graph, enforce_no_loops
from .weather_effect import (
    DEFAULT_WINDOW_SLOTS,
    DecayConfig,
    WeatherScaler,
    accumulate_with_grad,
)

# Unit-slot cells per block of a full-series evaluation. One block holds about
# 140 bytes per cell (v, dv/domega, R, dR/dbeta, lambda, mu, W and the network's
# upstream gradient), so 2**15 cells keep it under 5 MB; each block
# beyond the first also recomputes its weather and kernel history windows,
# which is what makes much smaller blocks slower.
EVAL_BLOCK_CELLS = 2**15


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
        if self.batch_slots is not None:
            checked(self.batch_slots, at_least(1), "batch_slots")


@dataclass
class FitReport:
    """Per-epoch fitting trace."""

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
        """One (epoch, loglik, grad_norm, projections) tuple per epoch."""
        return list(zip(range(1, self.epochs_run + 1), self.loglik_trace, self.grad_norm_trace, self.projection_counts))


@dataclass
class Gradients:
    """d ell / d theta, arranged like the parameters themselves."""

    alpha: np.ndarray  # (E,), one entry per graph edge in (target, source) order
    beta: np.ndarray
    gamma: np.ndarray
    omega: np.ndarray
    mlp: MlpParams

    def flat(self) -> np.ndarray:
        """The gradient laid out like :func:`pack`'s theta."""
        return np.concatenate([self.alpha, self.beta, self.gamma, self.omega, self.mlp.flatten()])

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat()))

    def add(self, other: "Gradients") -> None:
        """Add `other` into this gradient, in place, group by group."""
        for mine, theirs in zip(
            (self.alpha, self.beta, self.gamma, self.omega, *self.mlp.weights, *self.mlp.biases),
            (other.alpha, other.beta, other.gamma, other.omega, *other.mlp.weights, *other.mlp.biases),
        ):
            mine += theirs


def pack(params: ModelParams) -> np.ndarray:
    """All free parameters as one vector theta: alpha, beta, gamma, omega, mlp."""
    return np.concatenate([params.alpha.w, params.beta, params.gamma, params.decay.omega, params.mlp.flatten()])


def unpack(params: ModelParams, theta: np.ndarray) -> None:
    """Write a theta laid out as by :func:`pack` back into `params`, in place."""
    ends = np.cumsum([params.alpha.w.size, params.num_units, params.num_units, params.num_variables])
    params.alpha.w, params.beta, params.gamma, params.decay.omega, mlp = np.split(theta.copy(), ends)
    new_mlp = params.mlp.unflatten_like(mlp)
    params.mlp.weights, params.mlp.biases = new_mlp.weights, new_mlp.biases


def _block_loglik_and_grads(
    params: ModelParams, counts: np.ndarray, x_scaled: np.ndarray, t0: int, t1: int
):
    """(ell, Gradients) over slots [t0, t1), with exact out-of-block history.

    Weather accumulation and kernel recursions are run on just enough leading
    history (the decay window / truncation window) to make in-block values
    identical to a full-series evaluation.
    """
    d = params.decay.window_slots
    s_wx = max(0, t0 - (d - 1))
    # The in-block slots, copied out of the history-led arrays (which are then
    # freed): the network reads v and dv/domega as contiguous (cell, M) rows.
    v, dvdo = (
        np.ascontiguousarray(a[:, t0 - s_wx :, :])
        for a in accumulate_with_grad(x_scaled[:, s_wx:t1, :], params.decay)
    )

    s_tk = max(0, t0 - params.trig_window)
    R_full, dR_full = kernel_matrix_with_grad(counts[:, s_tk:t1], params.beta, params.trig_window)
    R = R_full[:, t0 - s_tk :]
    dR = dR_full[:, t0 - s_tk :]

    # One network pass: each chunk's mu goes straight into lambda = gamma mu +
    # indirect + eps (formed in place of the indirect term), W = N / lambda - 1
    # and the upstream gradient W gamma, while backprop still has its activations.
    K, Tb = R.shape
    n_blk = counts[:, t0:t1]
    coupling = Coupling(params.alpha)
    lam = coupling.apply(R)
    mu, W = np.empty((K, Tb)), np.empty((K, Tb))
    dmu = np.empty(K * Tb)
    lam_rows, mu_rows, W_rows = lam.reshape(-1), mu.reshape(-1), W.reshape(-1)

    def on_chunk(rows, mu_chunk):
        unit, slot = np.divmod(np.arange(rows.start, rows.stop), Tb)
        gamma = params.gamma[unit]
        lam_chunk = np.add(gamma * mu_chunk + lam_rows[rows], params.eps, out=lam_rows[rows])
        if not np.isfinite(lam_chunk).all():
            r = int(np.argmax(~np.isfinite(lam_chunk)))
            raise NumericError(f"non-finite intensity at (unit={unit[r]}, slot={t0 + slot[r]})")
        mu_rows[rows] = mu_chunk
        W_chunk = np.subtract(counts[unit, t0 + slot] / lam_chunk, 1.0, out=W_rows[rows])
        np.multiply(W_chunk, gamma, out=dmu[rows])

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

    grads = Gradients(alpha=grad_alpha, beta=grad_beta, gamma=grad_gamma, omega=grad_omega, mlp=grad_mlp)
    return ll, grads


def _eval_blocks(num_units: int, num_slots: int) -> list[tuple[int, int]]:
    """The (t0, t1) blocks of a full-series evaluation: EVAL_BLOCK_CELLS // K
    slots each (at least one), the last block taking what is left."""
    width = max(1, EVAL_BLOCK_CELLS // num_units)
    return [(t0, min(t0 + width, num_slots)) for t0 in range(0, num_slots, width)]


def _series_loglik_and_grads(params: ModelParams, counts: np.ndarray, x_scaled: np.ndarray):
    """(ell, Gradients) over every slot: the block evaluations of
    :func:`_eval_blocks` summed in block order. A series within one block is
    evaluated as that one block, with its bits."""
    (t0, t1), *rest = _eval_blocks(*counts.shape)
    ll, grads = _block_loglik_and_grads(params, counts, x_scaled, t0, t1)
    for t0, t1 in rest:
        block_ll, block_grads = _block_loglik_and_grads(params, counts, x_scaled, t0, t1)
        ll += block_ll
        grads.add(block_grads)
    return ll, grads


def log_likelihood(params: ModelParams, dataset: Dataset) -> float:
    """Poisson log-likelihood of the dataset under `params` (log N! dropped).

    Summed over bounded time blocks (see :func:`_eval_blocks`), so memory
    beyond the inputs does not grow with the number of slots.
    """
    counts = np.asarray(dataset.outages.counts, dtype=np.float64)
    x_scaled = params.scaler.transform(dataset.weather)
    ll, _ = _series_loglik_and_grads(params, counts, x_scaled)
    return ll


def gradients(params: ModelParams, dataset: Dataset) -> Gradients:
    """Exact full-batch gradient of the log-likelihood for every group.

    Summed over the same bounded time blocks as :func:`log_likelihood`.
    """
    counts = np.asarray(dataset.outages.counts, dtype=np.float64)
    x_scaled = params.scaler.transform(dataset.weather)
    _, g = _series_loglik_and_grads(params, counts, x_scaled)
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
    seed: int = 0,
    cfg: FitConfig | None = None,
) -> ModelParams:
    """Default starting point: gamma 0.1, beta 0.5, candidate alpha 0.01, omega 0.1.

    Network weights are fan-in-scaled Gaussians from the given seed; the
    weather scaler is fit on the dataset. The two-way 0.01 couplings are
    pruned by the tie-break (smaller source index survives) so the start
    point already satisfies every constraint.
    """
    cfg = cfg or FitConfig(seed=seed)
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
        mlp=MlpParams.init_random(M, hidden=cfg.hidden_sizes, seed=seed),
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
    copies; nothing is mutated.
    """
    g = gradients(params, dataset).flat()
    theta = pack(params)
    rng = np.random.default_rng(seed)
    coords = range(theta.size)
    if theta.size > max_coords:
        coords = sorted(rng.choice(theta.size, size=max_coords, replace=False))

    def perturbed_ll(k, delta):
        p, th = params.copy(), theta.copy()
        th[k] += delta
        unpack(p, th)
        return log_likelihood(p, dataset)

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


def _apply_update(params: ModelParams, grads: Gradients, lr: float, adam: _AdamState | None) -> None:
    """In-place ascent step on theta (plain when adam is None)."""
    g = grads.flat()
    unpack(params, pack(params) + (lr * g if adam is None else adam.step(g, lr)))


def _left_finite_region(epoch: int, report: FitReport, exc: NumericError) -> DivergenceError:
    return DivergenceError(
        f"optimizer left the finite region at epoch {epoch + 1} ({exc}); "
        f"trace tail: {[f'{x:.4g}' for x in report.loglik_trace[-5:]]}"
    )


def fit(dataset: Dataset, graph: Graph, cfg: FitConfig) -> tuple[ModelParams, FitReport]:
    """Projected gradient ascent on the log-likelihood; returns best-ell params.

    Minibatches are contiguous time blocks walked in order; every update is
    followed by a projection. Stops at the epoch cap or when the full-data
    log-likelihood moves less than cfg.tol across an epoch. Raises
    DivergenceError (with the trace in the message) if ell turns non-finite.
    """
    t_start = time.perf_counter()
    params = initialize(dataset, graph, seed=cfg.seed, cfg=cfg)
    report = FitReport(seed=cfg.seed)
    if cfg.max_epochs == 0:
        report.seconds = time.perf_counter() - t_start
        return params, report

    counts = np.asarray(dataset.outages.counts, dtype=np.float64)
    x_scaled = params.scaler.transform(dataset.weather)
    T = counts.shape[1]
    bs = cfg.batch_slots or T
    blocks = [(t0, min(t0 + bs, T)) for t0 in range(0, T, bs)]

    adam = _AdamState(pack(params).shape) if cfg.optimizer == "adaptive-moments" else None

    best_ll = -np.inf
    best_params = params.copy()
    prev_ll = None
    for epoch in range(cfg.max_epochs):
        projections = 0
        for t0, t1 in blocks:
            try:
                _, grads = _block_loglik_and_grads(params, counts, x_scaled, t0, t1)
            except NumericError as exc:
                raise _left_finite_region(epoch, report, exc) from exc
            _apply_update(params, grads, cfg.step_size, adam)
            params, n_proj = project(params)
            projections += n_proj
        try:
            ll, full_grads = _series_loglik_and_grads(params, counts, x_scaled)
        except NumericError as exc:
            raise _left_finite_region(epoch, report, exc) from exc
        if not np.isfinite(ll):
            raise DivergenceError(
                "log-likelihood became non-finite at epoch "
                f"{epoch + 1}; trace tail: {[f'{x:.4g}' for x in report.loglik_trace[-5:]]}"
            )
        report.loglik_trace.append(ll)
        report.grad_norm_trace.append(full_grads.norm())
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
