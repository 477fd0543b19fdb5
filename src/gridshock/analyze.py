"""Downstream analyses of a fitted model and its data.

Covers five reporting surfaces:
  * decompose      — split expected outages into weather-driven vs cascade
  * predict_*      — teacher-forced and h-slot-ahead count predictions with
                     MAE/RMSE and a persistence baseline; both sum the
                     triggering term with model.py's kernel and coupling
  * fit_sigmoid    — outage-ratio response curves against cumulative weather,
                     whose threshold c is the disruption tolerance estimate
  * restoration_durations — outage episodes and how fast they clear
  * propagation    — the cascade intensity each unit and each active edge
                     exports

All functions are pure. The CSV writers live at the bottom: `write_csv` is
the one report dialect (UTF-8, "\n" line ends, shortest round-trip floats),
also used by the CLI, so every report is byte-stable at a fixed thread count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import INTEGER, InsufficientDataError, ValidationError, at_least, checked
from .ingest import Dataset
from .model import Coupling, Kernel, ModelParams, direct_from_weather, intensity_field, sigmoid, time_blocks
from .model import kernel_matrix
from .model import intensity_from_state as _lambda_at  # the name perfbench/tracer.py patches
from .model import mlp_forward  # noqa: F401  (binding patched by perfbench/tracer.py)
from .weather_effect import DecayConfig, accumulate

# -- decomposition ----------------------------------------------------------


@dataclass
class Decomposition:
    """Per-cell split of expected outages plus per-slot spatial totals."""

    direct: np.ndarray  # (K, T) weather-driven intensity
    indirect: np.ndarray  # (K, T) cascade intensity
    slot_direct: np.ndarray  # (T,) direct summed over units
    slot_indirect: np.ndarray  # (T,)
    slot_observed: np.ndarray  # (T,)

    @property
    def direct_share(self) -> float:
        total = self.direct.sum() + self.indirect.sum()
        return float(self.direct.sum() / total) if total > 0 else 0.0

    @property
    def indirect_share(self) -> float:
        total = self.direct.sum() + self.indirect.sum()
        return float(self.indirect.sum() / total) if total > 0 else 0.0


def decompose(params: ModelParams, dataset: Dataset) -> Decomposition:
    """Direct/cascade decomposition of the intensity over the dataset."""
    counts = dataset.outages.counts
    fld = intensity_field(params, counts, dataset.weather)
    return Decomposition(
        direct=fld.direct,
        indirect=fld.indirect,
        slot_direct=fld.direct.sum(axis=0),
        slot_indirect=fld.indirect.sum(axis=0),
        slot_observed=counts.sum(axis=0, dtype=np.float64),  # integer sums, exact in any order
    )


# -- prediction -------------------------------------------------------------


@dataclass
class PredictionReport:
    """Predicted vs actual counts over the evaluated cells."""

    horizon: int
    predicted: np.ndarray  # (K, T); NaN outside the evaluated span
    actual: np.ndarray  # (K, T)
    mae: float
    rmse: float
    persistence_mae: float
    per_unit_mae: np.ndarray  # (K,)

    @property
    def beats_persistence(self) -> bool:
        return self.mae < self.persistence_mae


def _report(horizon: int, predicted: np.ndarray, actual: np.ndarray) -> PredictionReport:
    """Score slots t >= horizon against the counts, and persistence N[t - lag]
    with lag max(horizon, 1) over the slots it can predict."""
    lag = max(horizon, 1)
    diff = actual[:, :-lag] - actual[:, lag:]
    persistence_mae = float(np.abs(diff, out=diff).mean())
    del diff  # before the error array is made
    err = predicted[:, horizon:] - actual[:, horizon:]
    np.abs(err, out=err)
    mae, per_unit_mae = float(err.mean()), err.mean(axis=1)
    return PredictionReport(
        horizon=horizon,
        predicted=predicted,
        actual=actual,
        mae=mae,
        rmse=float(np.sqrt(np.square(err, out=err).mean())),
        persistence_mae=persistence_mae,
        per_unit_mae=per_unit_mae,
    )


def predict_in_sample(params: ModelParams, dataset: Dataset, direct: np.ndarray | None = None) -> PredictionReport:
    """Expected counts with fully observed (teacher-forced) history. `direct`
    is the weather term :func:`model.direct_from_weather`, when the caller has it."""
    lam = intensity_field(params, dataset.outages.counts, dataset.weather, direct=direct).lam
    return _report(0, lam, dataset.outages.counts.astype(np.float64))


def predict_ahead(
    params: ModelParams, dataset: Dataset, horizon_slots: int = 1, direct: np.ndarray | None = None
) -> PredictionReport:
    """h-slot-ahead prediction: observed history ends at t - h, the gap is
    rolled forward on predicted means. Weather is exogenous and read at every
    step (a forecast assumption). Baseline: persistence N[t - h].

    The observed history's kernel state is rolled across the gap, so at h = 1
    each predicted column is exactly the teacher-forced intensity. The states
    come from one kernel roll over the blocks of :func:`model.time_blocks`: the
    state before slot s starts the gap of target s + h - 1, and all targets of
    a block cross their gaps together, gap step j filling slot s + j.

    Metrics cover slots t >= h only, so the model and the baseline see the
    same evaluation span. `direct` is as in :func:`predict_in_sample`.
    """
    params.check_invariants()
    h = checked(horizon_slots, at_least(1), "horizon_slots")
    K, T = dataset.outages.counts.shape
    if h >= T:
        raise ValidationError(f"horizon {h} must be smaller than the {T}-slot series")
    counts = dataset.outages.counts.astype(np.float64)
    if direct is None:
        direct = direct_from_weather(params, dataset.weather)
    kern = Kernel(params.beta, params.trig_window)
    coupling = Coupling(params.alpha)
    L, predicted = kern.window, np.full((K, T), np.nan)
    blocks = time_blocks(K, T - h + 1)
    for (s0, s1), (P, _) in zip(blocks, kern.run(counts, blocks, lag_sum=False)):
        if s0 == 0:  # slot 0 starts no target
            P, s0 = P[1:], 1
        P = P.T
        gap = []  # predicted means of gap slots that will still leave the window, oldest first
        for j in range(h - 1):
            lam = _lambda_at(direct[:, s0 + j : s1 + j], coupling, params.beta, P, params.eps)
            # the count leaving the window is that of slot s + j - L
            old = gap.pop(0) if j >= L else _observed(counts, s0 + j - L, s1 + j - L)
            P = kern.step(P, lam, old)
            if j + L < h - 1:
                gap.append(lam)
        targets = slice(s0 + h - 1, s1 + h - 1)
        predicted[:, targets] = _lambda_at(direct[:, targets], coupling, params.beta, P, params.eps)
    return _report(h, predicted, counts)


def _observed(counts: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """counts[:, t0:t1], with the slots before the series start counted as 0."""
    out = np.zeros((counts.shape[0], t1 - t0))
    out[:, max(0, -t0) :] = counts[:, max(t0, 0) : max(t1, 0)]
    return out


# -- sigmoid response / disruption tolerance --------------------------------


@dataclass
class SigmoidFit:
    """r = L / (1 + exp(-a (v - c))) fitted to outage-ratio points."""

    variable: str
    a: float
    c: float
    L: float
    rmse: float
    n_points: int

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.a > 0 and 0 < self.L <= 1 and self.c >= 0 and np.isfinite(self.rmse)):
            raise ValidationError(
                f"sigmoid fit out of range: a={self.a}, c={self.c}, L={self.L}, rmse={self.rmse}"
            )

    def predict(self, v: np.ndarray) -> np.ndarray:
        return self.L * sigmoid(self.a * (np.asarray(v) - self.c))


MIN_SIGMOID_POINTS = 10
SIGMOID_STARTS = 8
SIGMOID_MAX_ITER = 200  # Levenberg-Marquardt iterations per start
SIGMOID_RTOL = 1e-12  # converged once a Gauss-Newton step gains at most this share of the loss


def variable_index(weather, variable: int | str) -> int:
    """The index of `variable`, a name or an index, among `weather`'s variables."""
    names = weather.variable_names
    if isinstance(variable, str):
        if variable not in names:
            raise ValidationError(f"unknown weather variable {variable!r}; have {names}")
        return names.index(variable)
    checked(variable, INTEGER, "weather variable index")
    if not 0 <= variable < len(names):
        raise ValidationError(f"weather variable index {variable} out of range")
    return int(variable)


def fit_sigmoid(dataset: Dataset, variable: int | str, cfg: DecayConfig | None = None) -> SigmoidFit:
    """Fit the outage-ratio response curve for one weather variable.

    Points are (cumulative raw weather, outage ratio) over all cells with
    ratio > 0; ratios use each unit's customer base. The best of >= 8
    bounded least-squares starts wins (ties: earliest start).
    """
    m = variable_index(dataset.weather, variable)
    var_name = dataset.weather.variable_names[m]
    cfg = cfg or DecayConfig(omega=np.zeros(dataset.num_variables))
    v_all = accumulate(dataset.weather.values[:, :, m : m + 1], DecayConfig(cfg.omega[m : m + 1], cfg.window_slots))[:, :, 0]
    customers = np.array([u.total_customers for u in dataset.units], dtype=float).reshape(-1, 1)
    ratios = dataset.outages.counts / customers
    sel = ratios > 0  # boolean indexing walks the units in order, each unit's slots in order
    r = ratios[sel]
    del ratios  # before the exposures are gathered
    v = v_all[sel]
    if v.size < MIN_SIGMOID_POINTS:
        raise InsufficientDataError(
            f"sigmoid fit needs >= {MIN_SIGMOID_POINTS} positive-ratio points, got {v.size}"
        )
    return fit_sigmoid_points(v, r, variable=var_name)


def fit_sigmoid_points(v, r, variable: str = "v") -> SigmoidFit:
    """Fit the response curve to pre-extracted (exposure, ratio) points.

    Same estimator as `fit_sigmoid`, for callers that already hold the point
    cloud (e.g. ratios pooled across datasets, or externally derived curves).
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    r = np.asarray(r, dtype=np.float64).ravel()
    if v.shape != r.shape:
        raise ValidationError(f"point arrays disagree: {v.shape} exposures vs {r.shape} ratios")
    if v.size < MIN_SIGMOID_POINTS:
        raise InsufficientDataError(
            f"sigmoid fit needs >= {MIN_SIGMOID_POINTS} points, got {v.size}"
        )
    for name, x in (("exposure", v), ("ratio", r)):
        if not np.isfinite(x).all():
            raise ValidationError(f"non-finite {name} at point {int(np.flatnonzero(~np.isfinite(x))[0])}")
    starts, lower, upper = _sigmoid_starts(v, r)
    # min keeps the first of equal losses: ties go to the earliest start
    (a, c, L), loss = min((_sigmoid_lm(x0, v, r, lower, upper) for x0 in starts), key=lambda fit: fit[1])
    rmse = float(np.sqrt(loss / v.size))
    return SigmoidFit(variable=variable, a=float(a), c=float(c), L=float(L), rmse=rmse, n_points=int(v.size))


def _sigmoid_starts(v: np.ndarray, r: np.ndarray):
    """The SIGMOID_STARTS starting (a, c, L) rows and the lower and upper bounds."""
    v_lo, v_hi = float(v.min()), float(v.max())
    span = max(v_hi - v_lo, 1e-9)
    L0 = float(np.clip(r.max(), 1e-3, 1.0))
    c_starts = np.maximum(np.quantile(v, np.linspace(0.1, 0.9, SIGMOID_STARTS // 2)), 0.0)
    starts = np.array([(a0, c0, L0) for a0 in (1.0 / span * 4.0, 1.0 / span * 40.0) for c0 in c_starts])
    lower = np.array([1e-8, 0.0, 1e-8])
    upper = np.array([np.inf, max(v_hi * 2.0, 1.0), 1.0])
    return starts, lower, upper


def _sigmoid_loss(theta, v: np.ndarray, r: np.ndarray) -> float:
    """Sum of squared residuals of L * sigmoid(a (v - c)) against r."""
    a, c, L = theta
    resid = L * sigmoid(a * (v - c)) - r
    return float(np.dot(resid, resid))


def _sigmoid_jacobian(theta, v: np.ndarray, r: np.ndarray):
    """Residuals (n,) and their analytic Jacobian (3, n) in (a, c, L)."""
    a, c, L = theta
    d = v - c
    s = sigmoid(a * d)
    ds = L * s * (1.0 - s)  # d(L s) / d(a (v - c))
    return L * s - r, np.stack([ds * d, -a * ds, s])


def _sigmoid_lm(theta, v: np.ndarray, r: np.ndarray, lower, upper):
    """Levenberg-Marquardt from `theta`, each step projected onto the bounds.

    The damping is scaled by the diagonal of J J^T and updated from the
    ratio of actual to predicted gain (Madsen, Nielsen & Tingleff 2004,
    sec. 3.2). A parameter at a bound whose gradient points out of the box is
    held there for the step. Stops when the Gauss-Newton step on the free
    parameters would lower the loss by at most SIGMOID_RTOL of it, when no
    damping lowers it, or after SIGMOID_MAX_ITER steps. Returns (theta, loss).
    """
    theta = np.array(theta, dtype=np.float64)
    resid, jac = _sigmoid_jacobian(theta, v, r)
    loss = float(np.dot(resid, resid))
    damping, growth = 1e-3, 2.0
    for _ in range(SIGMOID_MAX_ITER):
        grad = jac @ resid  # half the loss gradient
        held = ((theta <= lower) & (grad > 0)) | ((theta >= upper) & (grad < 0))
        free = np.flatnonzero(~held)
        g, h = grad[free], jac[free] @ jac[free].T
        if not g.any():
            break
        try:
            gn_gain = float(g @ np.linalg.solve(h, g))
        except np.linalg.LinAlgError:
            gn_gain = np.inf
        if gn_gain <= SIGMOID_RTOL * loss:
            break
        scale = np.diag(np.maximum(np.diag(h), 1e-12 * np.diag(h).max()))
        while damping <= 1e16:
            trial = theta.copy()
            try:
                trial[free] -= np.linalg.solve(h + damping * scale, g)
            except np.linalg.LinAlgError:  # damping underflowed on a singular h
                trial[free] = np.nan  # a rejected step
            np.clip(trial, lower, upper, out=trial)
            trial_loss = _sigmoid_loss(trial, v, r)
            if trial_loss < loss:
                break
            damping, growth = damping * growth, growth * 2.0
        else:
            break
        step = trial[free] - theta[free]
        model_gain = -(2.0 * (g @ step) + step @ h @ step)  # of the linearised residuals
        ratio = (loss - trial_loss) / model_gain if model_gain > 0 else 0.0
        damping, growth = damping * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 2.0
        theta, loss = trial, trial_loss
        resid, jac = _sigmoid_jacobian(theta, v, r)
    return theta, loss


# -- restoration episodes ----------------------------------------------------


@dataclass
class Episode:
    """A maximal outage spell for one unit."""

    unit: int
    start_slot: int
    end_slot: int  # inclusive
    max_outage: int

    @property
    def duration_slots(self) -> int:
        return self.end_slot - self.start_slot + 1


DEFAULT_ZERO_RUN = 2
EPISODE_WINDOW_SLOTS = 2  # the summary's share of episodes that clear within this many slots


def restoration_durations(counts, zero_run_threshold: int = DEFAULT_ZERO_RUN) -> list:
    """Outage episodes per unit of the K x T `counts`: runs of N > 0; zero gaps shorter than
    `zero_run_threshold` are absorbed (telemetry flickers), so episodes are
    separated by at least that many consecutive zero slots (or the series
    boundary). Episodes are disjoint and cover every nonzero slot.
    """
    checked(zero_run_threshold, at_least(1), "zero_run_threshold")
    episodes = []
    for i, row in enumerate(np.asarray(counts)):
        nz = np.flatnonzero(row)
        # an episode ends where the gap to the next nonzero slot holds zero_run_threshold or more zeros
        for run in np.split(nz, np.flatnonzero(np.diff(nz) > zero_run_threshold) + 1) if nz.size else ():
            start, end = int(run[0]), int(run[-1])
            episodes.append(Episode(unit=i, start_slot=start, end_slot=end, max_outage=int(row[start : end + 1].max())))
    return episodes


def episode_duration_summary(episodes: list, within_slots: int = EPISODE_WINDOW_SLOTS) -> dict:
    """Share of episodes clearing within `within_slots` plus basic stats."""
    if not episodes:
        return {"episodes": 0, "within_share": float("nan"), "median_slots": float("nan")}
    durations = np.array([e.duration_slots for e in episodes])
    return {
        "episodes": int(durations.size),
        "within_share": float((durations <= within_slots).mean()),
        "median_slots": float(np.median(durations)),
    }


# -- propagation map ---------------------------------------------------------


def propagation(params: ModelParams, counts) -> tuple:
    """The outage intensity each unit and each active edge exports, from one
    :func:`model.kernel_matrix` pass over the K x T `counts`.

    Returns (scores, edges). score(j) = (sum of alpha[i, j] over targets i != j)
    x (sum over slots of unit j's truncated triggering mass R[j, t]), so the
    scores add up to the cascade intensity the model attributes to cross-unit
    edges; units that influence nobody score 0. `edges` are the
    (source, target, alpha, attributed_outages) rows of the active edges, each
    attributing alpha times its source's mass, so a unit's rows add up to its
    score; sorted by (-attributed_outages, source, target).
    """
    counts = np.asarray(counts)
    weights, beta = params.alpha, np.asarray(params.beta, dtype=np.float64)
    K = weights.num_nodes
    if counts.shape[0] != K or beta.shape[0] != K:
        raise ValidationError(
            f"dimension mismatch: {K} graph nodes, {counts.shape[0]} history rows, {beta.shape[0]} beta entries"
        )
    mass = kernel_matrix(counts, beta, params.trig_window).sum(axis=1)
    scores = np.bincount(weights.graph.src, weights=weights.w, minlength=K) * mass
    edges = sorted(((s, t, a, a * mass[s]) for s, t, a in weights.nonzero_edges()), key=lambda r: (-r[3], r[0], r[1]))
    return scores, edges


# -- CSV writers -------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def write_csv(path, header, rows) -> None:
    """Write one report: UTF-8, "\n" line ends, every float via :func:`_fmt`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        wr.writerows([_fmt(x) if isinstance(x, float) else x for x in row] for row in rows)


def write_decomposition_csv(path, decomp: Decomposition) -> None:
    rows = zip(range(decomp.slot_direct.shape[0]), decomp.slot_direct, decomp.slot_indirect, decomp.slot_observed)
    write_csv(path, ["slot", "direct_total", "indirect_total", "observed_total"], rows)


# Rows per joined string of a predictions file, rounded down to whole units. At
# K=100, T=600 a chunk of 4096 rows holds about 0.8 MiB of Python strings and
# floats (tracemalloc), where one of 65536 rows held 12.9 MiB; fewer rows per
# write did not cost time, but one unit per write was 3.3x slower at T=3.
PREDICTION_CHUNK_ROWS = 4096


def write_predictions_csv(path, report: PredictionReport) -> None:
    """The report dialect of :func:`write_csv`, one joined string per run of whole
    units of about PREDICTION_CHUNK_ROWS cells (one unit at least): these files have
    a row per evaluated cell, so the strings of a whole file would hold hundreds of
    MB at scale, and so would the indices of every cell at once."""
    K, T = report.predicted.shape
    step = max(1, PREDICTION_CHUNK_ROWS // max(T, 1))
    slots = [f",{t}," for t in range(T)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("unit,slot,predicted,actual\n")
        for u0 in range(0, K, step):
            predicted, actual = report.predicted[u0 : u0 + step], report.actual[u0 : u0 + step]
            cells = np.nonzero(~np.isnan(predicted))
            values = (a[cells].astype(np.float64).tolist() for a in (predicted, actual))
            rows = zip((cells[0] + u0).tolist(), cells[1].tolist(), *values)
            fh.write("".join([f"{u}{slots[t]}{p!r},{a!r}\n" for u, t, p, a in rows]))


def write_sigmoid_csv(path, fits: list) -> None:
    rows = ([f.variable, f.a, f.c, f.L, f.rmse, f.n_points] for f in fits)
    write_csv(path, ["variable", "a", "c", "L", "rmse", "n_points"], rows)


def write_episodes_csv(path, episodes: list) -> None:
    rows = ([e.unit, e.start_slot, e.end_slot, e.duration_slots, e.max_outage] for e in episodes)
    write_csv(path, ["unit", "start", "end", "duration_slots", "max_outage"], rows)


def write_propagation_csv(path, edges: list) -> None:
    write_csv(path, ["source", "target", "alpha", "attributed_outages"], edges)


def write_sweep_csv(path, rows: list, axis1_name: str = "top_units", axis2_name: str = "edges_per_unit") -> None:
    write_csv(path, [axis1_name, axis2_name, "reduction_pct", "std_err"], rows)
