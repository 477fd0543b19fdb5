"""Downstream analyses of a fitted model and its data.

Covers four reporting surfaces:
  * decompose      — split expected outages into weather-driven vs cascade
  * predict_*      — teacher-forced and h-slot-ahead count predictions with
                     MAE/RMSE and a persistence baseline; both sum the
                     triggering term with model.py's kernel and coupling
  * fit_sigmoid    — outage-ratio response curves against cumulative weather,
                     whose threshold c is the disruption tolerance estimate
  * restoration_durations — outage episodes and how fast they clear

All functions are pure. The CSV writers live at the bottom: `write_csv` is
the one report dialect (UTF-8, "\n" line ends, shortest round-trip floats),
also used by the CLI and the propagation map, so every report is byte-stable
at a fixed thread count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import INTEGER, InsufficientDataError, ValidationError, at_least, checked
from .ingest import Dataset
from .model import Coupling, Kernel, ModelParams, direct_from_weather, intensity_field, sigmoid
from .model import mlp_forward  # noqa: F401  (binding patched by perfbench/tracer.py)
from .weather_effect import DecayConfig, _per_lead, accumulate

# -- decomposition ----------------------------------------------------------


@dataclass
class Decomposition:
    """Per-cell split of expected outages plus per-slot spatial totals."""

    direct: np.ndarray  # (K, T) weather-driven intensity
    indirect: np.ndarray  # (K, T) cascade intensity
    eps: float
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
    return decompose_counts(params, dataset.outages.counts, dataset.weather)


def decompose_counts(params: ModelParams, counts, weather) -> Decomposition:
    """Decomposition from raw (possibly non-integer) counts and weather."""
    counts = np.asarray(getattr(counts, "counts", counts), dtype=np.float64)
    fld = intensity_field(params, counts, weather)
    return Decomposition(
        direct=fld.direct,
        indirect=fld.indirect,
        eps=params.eps,
        slot_direct=fld.direct.sum(axis=0),
        slot_indirect=fld.indirect.sum(axis=0),
        slot_observed=counts.sum(axis=0),
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


def _metrics(pred: np.ndarray, actual: np.ndarray, t_from: int):
    err = pred[:, t_from:] - actual[:, t_from:]
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err**2).mean()))
    per_unit = np.abs(err).mean(axis=1)
    return mae, rmse, per_unit


def predict_in_sample(params: ModelParams, dataset: Dataset, direct: np.ndarray | None = None) -> PredictionReport:
    """Expected counts with fully observed (teacher-forced) history. `direct`
    is the weather term :func:`model.direct_from_weather`, when the caller has it."""
    params.check_invariants()
    fld = intensity_field(params, dataset.outages, dataset.weather, direct=direct)
    actual = dataset.outages.counts.astype(np.float64)
    mae, rmse, per_unit = _metrics(fld.lam, actual, 0)
    persistence = actual[:, :-1]
    persistence_mae = float(np.abs(persistence - actual[:, 1:]).mean())
    return PredictionReport(
        horizon=0,
        predicted=fld.lam,
        actual=actual,
        mae=mae,
        rmse=rmse,
        persistence_mae=persistence_mae,
        per_unit_mae=per_unit,
    )


def _lambda_at(params, coupling, direct, P):
    """Intensity columns from their direct terms and kernel states P (K x columns)."""
    return direct + coupling.apply(_per_lead(params.beta, P) * P) + params.eps


def predict_ahead(
    params: ModelParams, dataset: Dataset, horizon_slots: int = 1, direct: np.ndarray | None = None
) -> PredictionReport:
    """h-slot-ahead prediction: observed history ends at t - h, the gap is
    rolled forward on predicted means. Weather is exogenous and read at every
    step (a forecast assumption). Baseline: persistence N[t - h].

    The observed history's kernel state is rolled across the gap, so at h = 1
    each predicted column is exactly the teacher-forced intensity. All targets
    cross their gaps together: column c predicts slot h + c, and gap step j
    fills its slot c + 1 + j.

    Metrics cover slots t >= h only, so the model and the baseline see the
    same evaluation span. `direct` is as in :func:`predict_in_sample`.
    """
    h = checked(horizon_slots, at_least(1), "horizon_slots")
    K, T = dataset.outages.counts.shape
    if h >= T:
        raise ValidationError(f"horizon {h} must be smaller than the {T}-slot series")
    counts = dataset.outages.counts.astype(np.float64)
    if direct is None:
        direct = direct_from_weather(params, dataset.weather)
    kern = Kernel(params.beta, params.trig_window)
    coupling = Coupling(params.alpha)

    L, n = kern.window, T - h
    # kernel state before slot c + 1 over the observed counts, one column per target
    P = kern.run(np.ascontiguousarray(counts.T), lag_sum=False)[0][1 : n + 1].T
    padded = np.zeros((K, L + T))  # observed counts, zero before the series start
    padded[:, L:] = counts
    gap = []  # predicted means of gap slots that will still leave the window, oldest first
    for j in range(h - 1):
        lam = _lambda_at(params, coupling, direct[:, 1 + j : 1 + j + n], P)
        # the count leaving the window is that of slot c + 1 + j - L
        old = gap.pop(0) if j >= L else padded[:, 1 + j : 1 + j + n]
        P = kern.step(P, lam, old)
        if j + L < h - 1:
            gap.append(lam)
    predicted = np.full((K, T), np.nan)
    predicted[:, h:] = _lambda_at(params, coupling, direct[:, h:], P)

    mae, rmse, per_unit = _metrics(predicted, counts, h)
    persistence_mae = float(np.abs(counts[:, : T - h] - counts[:, h:]).mean())
    return PredictionReport(
        horizon=h,
        predicted=predicted,
        actual=counts,
        mae=mae,
        rmse=rmse,
        persistence_mae=persistence_mae,
        per_unit_mae=per_unit,
    )


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


def fit_sigmoid(
    dataset: Dataset,
    variable: int | str,
    cfg: DecayConfig | None = None,
    population=None,
) -> SigmoidFit:
    """Fit the outage-ratio response curve for one weather variable.

    Points are (cumulative raw weather, outage ratio) over all cells of the
    chosen units with ratio > 0; ratios use each unit's customer base. The
    best of >= 8 bounded least-squares starts wins (ties: earliest start).
    """
    m = variable_index(dataset.weather, variable)
    var_name = dataset.weather.variable_names[m]
    cfg = cfg or DecayConfig(omega=np.zeros(dataset.num_variables))
    units = list(range(dataset.num_units)) if population is None else [int(u) for u in population]
    bad = [u for u in units if not 0 <= u < dataset.num_units]
    if bad:
        raise ValidationError(f"population unit index {bad[0]} out of range for {dataset.num_units} units")
    v_all = accumulate(dataset.weather.values[:, :, m : m + 1], DecayConfig(cfg.omega[m : m + 1], cfg.window_slots))
    v_all = v_all[:, :, 0]
    customers = np.array([dataset.units[i].total_customers for i in range(dataset.num_units)], dtype=float)
    ratios = dataset.outages.counts / customers[:, None]
    v_pts, r_pts = [], []
    for u in units:
        sel = ratios[u] > 0
        v_pts.append(v_all[u][sel])
        r_pts.append(ratios[u][sel])
    v = np.concatenate(v_pts) if v_pts else np.zeros(0)
    r = np.concatenate(r_pts) if r_pts else np.zeros(0)
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
    a, c, L, rmse = _fit_sigmoid_points(v, r)
    return SigmoidFit(variable=variable, a=a, c=c, L=L, rmse=rmse, n_points=int(v.size))


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


def _fit_sigmoid_points(v: np.ndarray, r: np.ndarray):
    """Multi-start bounded least squares for (a, c, L); returns + rmse."""
    starts, lower, upper = _sigmoid_starts(v, r)
    # min keeps the first of equal losses: ties go to the earliest start
    (a, c, L), loss = min((_sigmoid_lm(x0, v, r, lower, upper) for x0 in starts), key=lambda fit: fit[1])
    rmse = float(np.sqrt(loss / v.size))
    return float(a), float(c), float(L), rmse


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


def restoration_durations(dataset_or_counts, zero_run_threshold: int = DEFAULT_ZERO_RUN) -> list:
    """Outage episodes per unit: runs of N > 0; zero gaps shorter than
    `zero_run_threshold` are absorbed (telemetry flickers), so episodes are
    separated by at least that many consecutive zero slots (or the series
    boundary). Episodes are disjoint and cover every nonzero slot.
    """
    checked(zero_run_threshold, at_least(1), "zero_run_threshold")
    counts = np.asarray(getattr(getattr(dataset_or_counts, "outages", dataset_or_counts), "counts", dataset_or_counts))
    K, T = counts.shape
    episodes = []
    for i in range(K):
        row = counts[i]
        nz = np.flatnonzero(row)
        if nz.size == 0:
            continue
        start = int(nz[0])
        prev = int(nz[0])
        for s in nz[1:]:
            s = int(s)
            if s - prev - 1 >= zero_run_threshold:
                episodes.append(
                    Episode(unit=i, start_slot=start, end_slot=prev, max_outage=int(row[start : prev + 1].max()))
                )
                start = s
            prev = s
        episodes.append(
            Episode(unit=i, start_slot=start, end_slot=prev, max_outage=int(row[start : prev + 1].max()))
        )
    return episodes


def episode_duration_summary(episodes: list, within_slots: int = 2) -> dict:
    """Share of episodes clearing within `within_slots` plus basic stats."""
    if not episodes:
        return {"episodes": 0, "within_share": float("nan"), "median_slots": float("nan")}
    durations = np.array([e.duration_slots for e in episodes])
    return {
        "episodes": int(durations.size),
        "within_share": float((durations <= within_slots).mean()),
        "median_slots": float(np.median(durations)),
    }


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


# Rows per joined string of a predictions file: about 60 MB of Python strings
# and floats at a time, whatever the number of cells.
PREDICTION_CHUNK_ROWS = 2**16


def write_predictions_csv(path, report: PredictionReport) -> None:
    """The report dialect of :func:`write_csv`, one joined string per
    PREDICTION_CHUNK_ROWS rows: these files have a row per evaluated cell, so
    the strings of a whole file would hold hundreds of MB at scale."""
    units, slots = np.nonzero(~np.isnan(report.predicted))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("unit,slot,predicted,actual\n")
        for r0 in range(0, units.size, PREDICTION_CHUNK_ROWS):
            cells = units[r0 : r0 + PREDICTION_CHUNK_ROWS], slots[r0 : r0 + PREDICTION_CHUNK_ROWS]
            predicted = report.predicted[cells].astype(np.float64).tolist()
            actual = report.actual[cells].astype(np.float64).tolist()
            rows = zip(cells[0].tolist(), cells[1].tolist(), predicted, actual)
            fh.write("".join(f"{u},{t},{p!r},{a!r}\n" for u, t, p, a in rows))


def write_sigmoid_csv(path, fits: list) -> None:
    rows = ([f.variable, f.a, f.c, f.L, f.rmse, f.n_points] for f in fits)
    write_csv(path, ["variable", "a", "c", "L", "rmse", "n_points"], rows)


def write_episodes_csv(path, episodes: list) -> None:
    rows = ([e.unit, e.start_slot, e.end_slot, e.duration_slots, e.max_outage] for e in episodes)
    write_csv(path, ["unit", "start", "end", "duration_slots", "max_outage"], rows)


def write_sweep_csv(path, rows: list, axis1_name: str = "top_units", axis2_name: str = "edges_per_unit") -> None:
    write_csv(path, [axis1_name, axis2_name, "reduction_pct", "std_err"], rows)
