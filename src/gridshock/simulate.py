"""Monte Carlo rollout of the fitted process and what-if enhancement scenarios.

A replication walks the slot grid in order: at each slot the intensity is
computed from the history so far (observed history before the teacher-forced
cutoff, simulated history after), and counts are drawn Poisson(lambda),
with lambda summed by model.py's kernel state and coupling in the order of
`intensity_field`, so a path's intensity is exactly the path's own field.
Replication r uses its own generator seeded with ``seed ^ r``, so runs are
reproducible and replications could be farmed out without changing results.

Scenario evaluation uses common random numbers: baseline and scenario
simulations share the seed, so an identity scenario gives exactly 0%
reduction and small parameter edits are not drowned in Monte Carlo noise.

Poisson draws use numpy's Generator.poisson (inversion below mean 10, a
transformed-rejection method above), so paths are reproducible across
platforms for a fixed numpy generation.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, NumericError, ValidationError
from .ingest import TimeGrid
from .model import Coupling, Kernel, ModelParams, direct_from_weather, kernel_matrix
from .model import mlp_forward  # noqa: F401  (binding patched by perfbench/tracer.py)
from .topology import enforce_no_loops
from .weather_effect import accumulate  # noqa: F401  (binding patched by perfbench/tracer.py)

LAMBDA_OVERFLOW = 1e9

MEAN = "mean"  # symbolic override value: population average


@dataclass
class Scenario:
    """Declarative parameter edits for a what-if run.

    Explicit clauses:
      * edge_reweights: (source, target, value-or-"mean") on candidate edges
      * gamma_overrides / beta_overrides: (unit, value-or-"mean")
      * omega_overrides: (variable, value)

    Selector clauses, resolved against the fitted params and a reference
    history when the scenario is applied:
      * top_k_units + top_e_edges: re-weight each selected unit's largest
        outgoing couplings to `edge_target` (units ranked by max observed
        outage count, edges by coupling weight)
      * gamma_top_units: set the largest design margins to the unit average
      * beta_bottom_units: set the smallest recovery rates to the unit average
    """

    edge_reweights: list = field(default_factory=list)
    gamma_overrides: list = field(default_factory=list)
    beta_overrides: list = field(default_factory=list)
    omega_overrides: list = field(default_factory=list)
    top_k_units: int | None = None
    top_e_edges: int | None = None
    edge_target: object = MEAN
    gamma_top_units: int | None = None
    beta_bottom_units: int | None = None

    def __post_init__(self):
        values = [("edge_target", self.edge_target)]
        for name in ("edge_reweights", "gamma_overrides", "beta_overrides", "omega_overrides"):
            values += [(name, clause[-1]) for clause in getattr(self, name)]
        for name, value in values:
            try:
                ok = value == MEAN or (isinstance(value, numbers.Real) and math.isfinite(value) and value >= 0)
            except OverflowError:  # an integer beyond the float range
                ok = False
            if not ok:
                raise ValidationError(f"{name} value must be a finite number >= 0 or {MEAN!r}, got {value!r}")
        if (self.top_k_units is None) != (self.top_e_edges is None):
            raise ValidationError("top_k_units and top_e_edges must be given together")

    def is_identity(self) -> bool:
        return not (
            self.edge_reweights
            or self.gamma_overrides
            or self.beta_overrides
            or self.omega_overrides
            or self.top_k_units
            or self.gamma_top_units
            or self.beta_bottom_units
        )

    def to_dict(self) -> dict:
        return {
            "edge_reweights": [list(c) for c in self.edge_reweights],
            "gamma_overrides": [list(c) for c in self.gamma_overrides],
            "beta_overrides": [list(c) for c in self.beta_overrides],
            "omega_overrides": [list(c) for c in self.omega_overrides],
            "top_k_units": self.top_k_units,
            "top_e_edges": self.top_e_edges,
            "edge_target": self.edge_target,
            "gamma_top_units": self.gamma_top_units,
            "beta_bottom_units": self.beta_bottom_units,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        known = {
            "edge_reweights",
            "gamma_overrides",
            "beta_overrides",
            "omega_overrides",
            "top_k_units",
            "top_e_edges",
            "edge_target",
            "gamma_top_units",
            "beta_bottom_units",
        }
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown scenario field(s): {sorted(unknown)}")
        kwargs = dict(d)
        for name in ("edge_reweights", "gamma_overrides", "beta_overrides", "omega_overrides"):
            kwargs[name] = [tuple(c) for c in d.get(name, [])]
        return cls(**kwargs)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return Scenario.from_dict(payload)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def top_k_units_by_max_outages(history, k: int) -> list:
    """Unit indices with the largest per-unit max outage count (ties: lower index)."""
    counts = np.asarray(getattr(history, "counts", history))
    peak = counts.max(axis=1)
    order = sorted(range(len(peak)), key=lambda i: (-peak[i], i))
    return order[: int(k)]


def top_e_edges_per_unit(params: ModelParams, units, e: int) -> list:
    """Largest-weight outgoing candidate edges per listed source unit.

    Returns (source, target) pairs; within a unit, edges rank by coupling
    weight descending (ties: lower target index).
    """
    out = []
    index, w = params.graph.index, params.alpha.w
    for j in units:
        outgoing = [(s, t) for s, t in params.graph.edges if s == j]
        outgoing.sort(key=lambda st: (-w[index[st]], st[1]))
        out.extend(outgoing[: int(e)])
    return out


def apply_scenario(params: ModelParams, scenario: Scenario, reference_history=None) -> ModelParams:
    """Return a new ModelParams with the scenario's edits applied.

    "mean" resolves to the average of nonzero off-diagonal couplings (for
    edges) and to the plain unit average (for gamma/beta), all computed on
    the *original* parameters. The no-loop projection is re-applied at the
    end; the input object is never touched.
    """
    out = params.copy()
    K = params.num_units
    w = params.alpha.w
    nonzero = w[w > 0]  # (target, source) order, as in a row-major scan of alpha
    edge_mean = float(nonzero.mean()) if nonzero.size else 0.0
    gamma_mean = float(params.gamma.mean())
    beta_mean = float(params.beta.mean())

    edge_clauses = list(scenario.edge_reweights)
    if scenario.top_k_units is not None:
        if reference_history is None:
            raise ValidationError("scenario selects top units by outages but no reference history given")
        units = top_k_units_by_max_outages(reference_history, scenario.top_k_units)
        for s, t in top_e_edges_per_unit(params, units, scenario.top_e_edges):
            edge_clauses.append((s, t, scenario.edge_target))

    gamma_clauses = list(scenario.gamma_overrides)
    if scenario.gamma_top_units is not None:
        worst = sorted(range(K), key=lambda i: (-params.gamma[i], i))[: scenario.gamma_top_units]
        gamma_clauses.extend((i, MEAN) for i in worst)

    beta_clauses = list(scenario.beta_overrides)
    if scenario.beta_bottom_units is not None:
        slowest = sorted(range(K), key=lambda i: (params.beta[i], i))[: scenario.beta_bottom_units]
        beta_clauses.extend((i, MEAN) for i in slowest)

    for s, t, value in edge_clauses:
        s, t = int(s), int(t)
        if (s, t) not in params.graph.index:
            raise ValidationError(f"scenario re-weights edge ({s}, {t}) which is not in the graph")
        out.alpha.w[params.graph.index[s, t]] = edge_mean if value == MEAN else float(value)
    for i, value in gamma_clauses:
        i = int(i)
        if not 0 <= i < K:
            raise ValidationError(f"scenario overrides gamma of unknown unit {i}")
        out.gamma[i] = gamma_mean if value == MEAN else float(value)
    for i, value in beta_clauses:
        i = int(i)
        if not 0 <= i < K:
            raise ValidationError(f"scenario overrides beta of unknown unit {i}")
        out.beta[i] = beta_mean if value == MEAN else float(value)
    for m, value in scenario.omega_overrides:
        m = int(m)
        if not 0 <= m < out.num_variables:
            raise ValidationError(f"scenario overrides omega of unknown variable {m}")
        if value == MEAN:
            raise ValidationError("omega overrides require explicit values")
        out.decay.omega[m] = float(value)

    out.alpha = enforce_no_loops(out.alpha)
    out.check_invariants()
    return out


@dataclass
class SimResult:
    """Summary of R replications (full paths kept only on request)."""

    replications: int
    seed: int
    rep_totals: np.ndarray  # (R,) total outages per replication
    cell_mean: np.ndarray  # (K, T) per-cell empirical mean
    cell_var: np.ndarray  # (K, T) per-cell sample variance (ddof=1)
    unit_total_mean: np.ndarray  # (K,) mean per-unit totals
    paths: np.ndarray | None = None  # (R, K, T) when store_paths was set

    @property
    def mean_total(self) -> float:
        return float(self.rep_totals.mean())

    @property
    def total_std_err(self) -> float:
        if self.replications < 2:
            return 0.0
        return float(self.rep_totals.std(ddof=1) / np.sqrt(self.replications))

    def total_quantiles(self, qs=(0.05, 0.5, 0.95)) -> dict:
        return {q: float(np.quantile(self.rep_totals, q)) for q in qs}

    def cell_std_err(self) -> np.ndarray:
        return np.sqrt(self.cell_var / max(self.replications, 1))


def simulate_paths(
    params: ModelParams,
    weather,
    grid: TimeGrid,
    R: int,
    seed: int,
    teacher_forced_until: int = 0,
    observed=None,
    store_paths: bool = False,
) -> SimResult:
    """Roll the process forward R times over the grid, replaying `weather`.

    Slots before `teacher_forced_until` feed *observed* counts into the
    history (lambda there is still evaluated, and counts still drawn, so
    fully forced runs measure the one-step distribution); slots after it feed
    the replication's own draws forward. Deterministic given the seed.
    """
    if R < 1:
        raise ValidationError(f"need at least one replication, got {R}")
    x = np.asarray(getattr(weather, "values", weather), dtype=np.float64)
    K = params.num_units
    T = grid.num_slots
    if x.shape[0] != K or x.shape[1] < T:
        raise ValidationError(f"weather shape {x.shape} does not cover {K} units x {T} slots")
    x = x[:, :T, :]
    cutoff = int(np.clip(teacher_forced_until, 0, T))
    obs = None
    if cutoff > 0:
        if observed is None:
            raise ValidationError("teacher forcing requested but no observed history given")
        obs = np.asarray(getattr(observed, "counts", observed), dtype=np.float64)
        if obs.shape[0] != K or obs.shape[1] < cutoff:
            raise ValidationError(f"observed history {obs.shape} does not cover the forced span")

    mu_direct = direct_from_weather(params, x)  # (K, T), gamma_i mu + nothing else
    kern = Kernel(params.beta, params.trig_window)
    coupling = Coupling(params.alpha)

    fully_forced = cutoff >= T
    lam_forced = None
    if fully_forced:
        lam_forced = _lambda_given_history(params, coupling, obs[:, :T], mu_direct)

    rep_totals = np.zeros(R)
    unit_totals = np.zeros(K)
    cell_sum = np.zeros((K, T))
    cell_sq = np.zeros((K, T))
    paths = np.zeros((R, K, T), dtype=np.int64) if store_paths else None

    for r in range(R):
        rng = np.random.default_rng(seed ^ r)
        if fully_forced:
            path = rng.poisson(lam_forced).astype(np.float64)
        else:
            path = np.zeros((K, T))
            hist = np.zeros((K, T))
            P = np.zeros(K)
            for t in range(T):
                lam_t = mu_direct[:, t] + coupling.apply(params.beta * P) + params.eps
                if (lam_t > LAMBDA_OVERFLOW).any():
                    i = int(np.argmax(lam_t))
                    raise DivergenceError(
                        f"simulated intensity exploded at (unit={i}, slot={t}, replication={r}): {lam_t[i]:.3e}"
                    )
                path[:, t] = rng.poisson(lam_t)
                hist[:, t] = obs[:, t] if t < cutoff else path[:, t]
                P = kern.step(P, hist, t)
        total = path.sum()
        rep_totals[r] = total
        unit_totals += path.sum(axis=1)
        cell_sum += path
        cell_sq += path * path
        if store_paths:
            paths[r] = path.astype(np.int64)

    cell_mean = cell_sum / R
    cell_var = (cell_sq - R * cell_mean**2) / max(R - 1, 1)
    np.maximum(cell_var, 0.0, out=cell_var)
    return SimResult(
        replications=R,
        seed=seed,
        rep_totals=rep_totals,
        cell_mean=cell_mean,
        cell_var=cell_var,
        unit_total_mean=unit_totals / R,
        paths=paths,
    )


def _lambda_given_history(params, coupling, hist, mu_direct):
    """Intensity at every slot when the full history is pinned to `hist`."""
    R = kernel_matrix(hist, params.beta, params.trig_window)
    lam = mu_direct + coupling.apply(R) + params.eps
    if (lam > LAMBDA_OVERFLOW).any():
        i, t = np.argwhere(lam > LAMBDA_OVERFLOW)[0]
        raise DivergenceError(f"intensity exploded at (unit={i}, slot={t}): {lam[i, t]:.3e}")
    return lam


@dataclass
class ReductionResult:
    """Outage-reduction estimate with its Monte Carlo standard error."""

    reduction_pct: float
    std_err_pct: float
    baseline_total: float
    scenario_total: float
    replications: int
    seed: int


def outage_reduction(
    params: ModelParams,
    scenario: Scenario,
    weather,
    grid: TimeGrid,
    R: int,
    seed: int,
    baseline: str = "simulated_total",
    observed=None,
) -> ReductionResult:
    """Percent outage reduction of `scenario` vs the baseline, with std error.

    baseline="simulated_total" simulates the unmodified model with the *same*
    seed (common random numbers); "observed_total" compares against the
    observed counts. Both simulations roll from empty history with the
    observed weather replayed.
    """
    scen_params = apply_scenario(params, scenario, reference_history=observed)
    sim_scen = simulate_paths(scen_params, weather, grid, R, seed)
    if baseline == "simulated_total":
        sim_base = simulate_paths(params, weather, grid, R, seed)
        base_total = sim_base.mean_total
        diff = sim_base.rep_totals - sim_scen.rep_totals
        se_diff = diff.std(ddof=1) / np.sqrt(R) if R > 1 else 0.0
    elif baseline == "observed_total":
        if observed is None:
            raise ValidationError("observed_total baseline requires observed counts")
        base_total = float(np.asarray(getattr(observed, "counts", observed)).sum())
        se_diff = sim_scen.total_std_err
    else:
        raise ValidationError(f"baseline must be simulated_total or observed_total, got {baseline!r}")
    if base_total == 0:
        raise NumericError("baseline total outages is zero; reduction percentage is undefined")
    reduction = 100.0 * (base_total - sim_scen.mean_total) / base_total
    return ReductionResult(
        reduction_pct=float(reduction),
        std_err_pct=float(100.0 * se_diff / base_total),
        baseline_total=float(base_total),
        scenario_total=float(sim_scen.mean_total),
        replications=R,
        seed=seed,
    )


def sweep(
    params: ModelParams,
    weather,
    grid: TimeGrid,
    axis1: list,
    axis2: list,
    R: int,
    seed: int,
    mode: str = "edges",
    observed=None,
    baseline: str = "simulated_total",
) -> list:
    """Cartesian scenario grid -> rows of (axis1, axis2, reduction_pct, std_err_pct).

    mode="edges": axis1 = top units by max outages, axis2 = edges per unit
    re-weighted to the mean coupling. mode="margins": axis1 = largest-gamma
    units set to the average margin, axis2 = smallest-beta units set to the
    average recovery rate. A (0, 0) cell is the identity scenario.
    """
    if not axis1 or not axis2:
        raise ValidationError("sweep axes must be nonempty")
    if mode not in ("edges", "margins"):
        raise ValidationError(f"sweep mode must be 'edges' or 'margins', got {mode!r}")
    rows = []
    for a1 in axis1:
        for a2 in axis2:
            if mode == "edges":
                scen = Scenario(top_k_units=a1, top_e_edges=a2) if a1 and a2 else Scenario()
            else:
                scen = Scenario(
                    gamma_top_units=a1 or None,
                    beta_bottom_units=a2 or None,
                )
            res = outage_reduction(
                params, scen, weather, grid, R, seed, baseline=baseline, observed=observed
            )
            rows.append((a1, a2, res.reduction_pct, res.std_err_pct))
    return rows
