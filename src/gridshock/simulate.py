"""Monte Carlo rollout of the fitted process and what-if enhancement scenarios.

A rollout walks the slot grid in order with all replications stepped
together: at each slot the intensity of every replication is computed from
its history so far (observed history before the teacher-forced cutoff,
simulated history after), with lambda summed by model.py's kernel state and
coupling in the order of `intensity_field`, so a path's intensity is exactly
the path's own field. One loop serves free, partly forced and fully forced
runs. Only the counts inside the kernel window are kept, so memory grows
with R x K x trig_window, not with R x K x T.

Draws are by inversion. Replication r owns the uniform stream
default_rng(seed ^ r) and reads it K doubles per slot, slot after slot, so
its uniform u[r, t, i] for unit i at slot t depends only on (seed, r, t, i);
the count there is the Poisson(lambda) quantile of that uniform,
`poisson_quantile`. Uniforms are drawn a few slots at a time for a block of
replications, and each slot inverts the whole block at once, yet a path does
not depend on the block, the chunking or how many replications run, and
free and forced runs read the same uniforms. Paths depend on the seed, the
bit generator (PCG64) and the rounding of numpy's exp and log, not on
numpy's Poisson algorithms.

Scenario evaluation uses common random numbers: baseline and scenario
simulations share the seed, so an identity scenario gives exactly 0%
reduction, and since inversion makes every count rise with its intensity,
baseline and scenario paths move together and their difference has low
variance. The same seed also means equal parameters give equal rollouts, so
`outage_reductions` takes a list of scenarios (one scenario is a list of one,
a sweep is its cells, `enhance` passes both) and simulates each distinct
parameter set once, the baseline included.

Those S distinct sets read the same uniforms, so they are rolled out in one
slot loop: the kernel state is (K, S, block), and each slot makes one
coupling sum over the union of the sets' active edges (weight 0.0 where a
set lacks an edge, which leaves its bits unchanged), one overflow check, one
inversion of the block's uniforms broadcast over S, and one kernel step. The
network output is computed once per distinct omega and scaled by each set's
gamma a uniform chunk of slots at a time, and only per-replication totals
are kept, so memory grows with S x R x K x trig_window, not with S x K x T,
and the replications are cut into blocks sized for all S sets' windows and
temporaries (BLOCK_FLOATS). Each set's totals are bit for bit those of a
lone `simulate_paths`, which is the one-set caller of the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import COUNT, NONNEGATIVE, DivergenceError, NumericError, ValidationError, at_least, checked, is_count
from .errors import BASELINES, SWEEP_MODES, one_of, read_json_object
from .ingest import TimeGrid
from .model import Coupling, Kernel, ModelParams, weather_response
from .model import kernel_matrix, mlp_forward  # noqa: F401  (bindings patched by perfbench/tracer.py)
from .topology import enforce_no_loops
from .weather_effect import accumulate  # noqa: F401  (binding patched by perfbench/tracer.py)

LAMBDA_OVERFLOW = 1e9

MEAN = "mean"  # symbolic override value: population average
OVERRIDE = (lambda x: x == MEAN or NONNEGATIVE[0](x), f"{NONNEGATIVE[1]} or {MEAN!r}")


def _clauses(*indices) -> tuple:
    """The kind of a list of [*indices, value] clauses with integer indices >= 0."""
    def clause(c):
        return isinstance(c, (list, tuple)) and len(c) == len(indices) + 1 and all(map(is_count, c[:-1]))

    text = f"a list of [{', '.join(indices)}, value] clauses with integer indices >= 0"
    return lambda x: isinstance(x, (list, tuple)) and all(map(clause, x)), text


CLAUSE_LISTS = {"edge_reweights": _clauses("source", "target"), "gamma_overrides": _clauses("unit"),
                "beta_overrides": _clauses("unit"), "omega_overrides": _clauses("variable")}
SELECTORS = ("top_k_units", "top_e_edges", "gamma_top_units", "beta_bottom_units")
SWEEP_AXIS = (lambda x: isinstance(x, (list, tuple)) and len(x) > 0 and all(map(is_count, x)),
              "a nonempty list of integers >= 0")


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
        checked(self.edge_target, OVERRIDE, "edge_target value")
        for name, kind in CLAUSE_LISTS.items():
            clauses = [tuple(c) for c in checked(getattr(self, name), kind, name)]
            setattr(self, name, clauses)
            for clause in clauses:
                checked(clause[-1], OVERRIDE, f"{name} value")
        for name in SELECTORS:
            if getattr(self, name) is not None:
                checked(getattr(self, name), COUNT, name)
        if (self.top_k_units is None) != (self.top_e_edges is None):
            raise ValidationError("top_k_units and top_e_edges must be given together")

    def is_identity(self) -> bool:
        selectors = ("top_k_units", "gamma_top_units", "beta_bottom_units")
        return not any(getattr(self, name) for name in (*CLAUSE_LISTS, *selectors))

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown scenario field(s): {sorted(unknown)}")
        return cls(**d)


def load_scenario(path) -> Scenario:
    return Scenario.from_dict(read_json_object(path, "scenario"))


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
    g = params.graph
    order = np.lexsort((g.tgt, -params.alpha.w, g.src))  # by source, then weight descending, then target
    src, tgt = g.src[order], g.tgt[order]
    out = []
    for j in units:
        lo, hi = np.searchsorted(src, j, side="left"), np.searchsorted(src, j, side="right")
        out.extend((int(j), int(t)) for t in tgt[lo : min(hi, lo + int(e))])
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
        if (s, t) not in params.graph.index:
            raise ValidationError(f"scenario re-weights edge ({s}, {t}) which is not in the graph")
        out.alpha.w[params.graph.index[s, t]] = edge_mean if value == MEAN else float(value)
    for i, value in gamma_clauses:
        if not 0 <= i < K:
            raise ValidationError(f"scenario overrides gamma of unknown unit {i}")
        out.gamma[i] = gamma_mean if value == MEAN else float(value)
    for i, value in beta_clauses:
        if not 0 <= i < K:
            raise ValidationError(f"scenario overrides beta of unknown unit {i}")
        out.beta[i] = beta_mean if value == MEAN else float(value)
    for m, value in scenario.omega_overrides:
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
    history, later slots the replication's own draws. Every slot's counts are
    drawn, so fully forced runs measure the one-step distribution; free,
    partly and fully forced runs are one slot loop. Deterministic given the seed.
    """
    checked(R, at_least(1), "replications R")
    checked(seed, COUNT, "seed")
    checked(teacher_forced_until, COUNT, "teacher_forced_until")
    params.check_invariants()
    x = _weather_on_grid(params, weather, grid)
    K, T = x.shape[:2]
    cutoff = min(int(teacher_forced_until), T)
    obs = None
    if cutoff > 0:
        if observed is None:
            raise ValidationError("teacher forcing requested but no observed history given")
        obs = np.asarray(getattr(observed, "counts", observed), dtype=np.float64)
        if obs.shape[0] != K or obs.shape[1] < cutoff:
            raise ValidationError(f"observed history {obs.shape} does not cover the forced span")

    mu = weather_response(params, x)
    # Counts are integer-valued, so these sums are exact in any order.
    rep_totals = np.zeros(R)
    cell_sum = np.zeros((K, T))
    cell_sq = np.zeros((K, T))
    paths = np.zeros((R, K, T), dtype=np.int64) if store_paths else None
    for reps, t, n in _rollout_draws([params], [mu], obs, cutoff, R, seed):
        n = n[:, 0]  # (K, block) counts of slot t
        if store_paths:
            paths[reps, :, t] = n.T
        n = n.astype(np.float64)
        rep_totals[reps] += n.sum(axis=0)
        cell_sum[:, t] += n.sum(axis=1)
        cell_sq[:, t] += (n * n).sum(axis=1)

    cell_mean = cell_sum / R
    cell_var = (cell_sq - R * cell_mean**2) / max(R - 1, 1)
    np.maximum(cell_var, 0.0, out=cell_var)
    return SimResult(
        replications=R,
        seed=seed,
        rep_totals=rep_totals,
        cell_mean=cell_mean,
        cell_var=cell_var,
        unit_total_mean=cell_sum.sum(axis=1) / R,
        paths=paths,
    )


def _weather_on_grid(params, weather, grid):
    """`weather` as a K x T x M array over the grid's T slots."""
    x = np.asarray(getattr(weather, "values", weather), dtype=np.float64)
    K, T = params.num_units, grid.num_slots
    if x.shape[0] != K or x.shape[1] < T:
        raise ValidationError(f"weather shape {x.shape} does not cover {K} units x {T} slots")
    return x[:, :T, :]


# Below this mean the quantile search runs up from 0 (exp(-lam) underflows
# past about 745); at and above it, the search starts from a normal guess.
POISSON_GUESS_MIN = 32.0
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(64)])  # log k! below 64; Stirling above
_GUESS_CELLS = 1 << 12  # cells searched from a guess at once
_SUM_FLOATS = 1 << 16  # floats of pmf terms summed in one step


def poisson_quantile(lam, u) -> np.ndarray:
    """The Poisson quantile n = min{k : F_lam(k) >= u} of each cell, by
    inversion of the CDF; `lam` and `u` broadcast, u in [0, 1).

    Each cell's count depends only on its own (lam, u), and on the same bits
    gives the same count whatever else is in the arrays. Under common
    uniforms the counts rise with lam, except for u within rounding of 1,
    where the count is wherever the running sum stops growing.

    Below POISSON_GUESS_MIN the CDF is summed up from p_0 = exp(-lam) by
    p_k = p_(k-1) * lam / k. At and above it, the search starts from a
    normal-approximation guess and corrects it (Giles 2016, "Algorithm 955",
    ACM TOMS 42(1)), at O(sqrt(lam)) cost per cell. Every search stops when a
    further term no longer changes the running sum, so it ends for every
    u < 1 and every lam up to LAMBDA_OVERFLOW; lam = 0 gives 0.
    """
    lam, u = np.broadcast_arrays(np.asarray(lam, dtype=np.float64), np.asarray(u, dtype=np.float64))
    shape = lam.shape
    lam, u = lam.ravel(), u.ravel()  # contiguous, so each cell's exp is the same wherever it sits
    big = lam >= POISSON_GUESS_MIN
    if not big.any():
        return _search_up_from_zero(lam, u).reshape(shape)
    n = np.empty(lam.size, dtype=np.int64)
    n[~big] = _search_up_from_zero(lam[~big], u[~big])
    big = np.flatnonzero(big)
    for c in range(0, big.size, _GUESS_CELLS):  # bounds the search's temporaries
        cells = big[c : c + _GUESS_CELLS]
        n[cells] = _search_from_guess(lam[cells], u[cells])
    return n.reshape(shape)


def _search_up_from_zero(lam, u):
    """Sum p_0, p_1, ... until the running CDF reaches u; only the cells
    still searching take part in each step."""
    n = np.zeros(lam.size, dtype=np.int64)
    p = np.exp(-lam)
    live = np.flatnonzero(p < u)
    lam, u, F = lam[live], u[live], p[live]
    p, k = F, 0
    while live.size:
        k += 1
        p = p * lam / k
        G = F + p
        go = (G < u) & (G > F)
        n[live[~go]] = k
        live, lam, u, p, F = live[go], lam[go], u[go], p[go], G[go]
    return n


def _search_from_guess(lam, u):
    """The quantile for lam >= POISSON_GUESS_MIN: guess k from the normal
    quantile of u with Cornish-Fisher terms, form F(k) by summing the pmf
    down from p_k, then step up while F(k) < u or down while F(k - 1) >= u."""
    z = _normal_quantile_guess(u)
    k = np.maximum(np.floor(lam + np.sqrt(lam) * z + (z * z + 2.0) / 6.0), 0.0)
    p = np.exp(_log_pmf(k, lam))
    F = _cdf_summed_down(k, p, lam)
    n = k.copy()
    up = np.flatnonzero(F < u)
    kk, pp, FF, uu, ll = k[up], p[up], F[up], u[up], lam[up]
    while up.size:
        kk = kk + 1.0
        pp = pp * ll / kk
        G = FF + pp
        go = (G < uu) & (G > FF)
        n[up[~go]] = kk[~go]
        up, kk, pp, FF, uu, ll = up[go], kk[go], pp[go], G[go], uu[go], ll[go]
    G = F - p  # F(k - 1)
    down = np.flatnonzero((G >= u) & (k > 0) & (u > 0.0))
    kk, pp, FF, uu, ll = k[down], p[down], G[down], u[down], lam[down]
    while down.size:
        pp = pp * kk / ll  # p(k - 1)
        kk = kk - 1.0
        n[down] = kk
        G = FF - pp
        go = (G >= uu) & (kk > 0) & (G < FF)
        down, kk, pp, FF, uu, ll = down[go], kk[go], pp[go], G[go], uu[go], ll[go]
    n[u <= 0.0] = 0  # F(0) > 0 = u; the down steps lose F's precision long before k = 0
    return n.astype(np.int64)


def _normal_quantile_guess(u):
    """Standard normal quantile of u to within 4.5e-4 (Abramowitz & Stegun
    26.2.23); only a starting point, so u = 0 is read as 2**-60."""
    q = np.maximum(np.minimum(u, 1.0 - u), 2.0**-60)
    t = np.sqrt(-2.0 * np.log(q))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return np.where(u < 0.5, -z, z)


def _log_pmf(k, lam):
    """log p_k for integer-valued k >= 0 and lam > 0: log k! from a table
    for small k, else Stirling's series with k log(k/lam) taken by log1p."""
    out = np.empty_like(lam)
    small = k < _LOG_FACTORIAL.size
    ks, ls = k[small], lam[small]
    out[small] = ks * np.log(ls) - ls - _LOG_FACTORIAL[ks.astype(np.int64)]
    kb, lb = k[~small], lam[~small]
    d = kb - lb
    inv2 = 1.0 / (kb * kb)
    series = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0)) / kb
    out[~small] = d - kb * np.log1p(d / lb) - 0.5 * np.log(2.0 * np.pi * kb) - series
    return out


def _cdf_summed_down(k, p, lam):
    """F(k) = p_k + p_(k-1) + ..., in blocks of pmf terms, until the terms
    left, each below the last one and falling at least geometrically by
    j/lam, cannot change the sum. Every cell takes the same blocks: 32 terms
    at a time for the first 256 (the whole sum for lam up to a few hundred,
    with little overshoot), then doubling up to 4096, so that even lam = 1e9
    takes under 150 blocks."""
    F = p.copy()
    live = np.arange(k.size)
    j, term, l, S = k, p, lam, p
    blocks = 0
    while live.size:
        width = 32 if blocks < 8 else min(32 << (blocks - 7), 4096)
        blocks += 1
        rows = max(1, _SUM_FLOATS // width)
        total, last = np.empty(live.size), np.empty(live.size)
        m = np.arange(width, dtype=np.float64)
        for c in range(0, live.size, rows):
            # ratios[:, i] = p_(j-1-i) / p_(j-i); products of them are the block's terms over p_j
            ratios = j[c : c + rows, None] - m
            np.maximum(ratios, 0.0, out=ratios)
            np.divide(ratios, l[c : c + rows, None], out=ratios)
            np.cumprod(ratios, axis=1, out=ratios)
            total[c : c + rows], last[c : c + rows] = ratios.sum(axis=1), ratios[:, -1]
        S = S + term * total
        term, j = term * last, j - width
        with np.errstate(divide="ignore"):  # j == lam: the bound is infinite, so keep summing
            go = (j > 0) & ((j >= l) | (S + term * j / (l - j) > S))
        F[live[~go]] = S[~go]
        live, j, term, l, S = live[go], j[go], term[go], l[go], S[go]
    return F


# Replications stepped together are cut into blocks so that the kernel's
# count window, the uniforms and the coupling temporaries stay near this many
# floats.
BLOCK_FLOATS = 1 << 22
# Besides its count window, each (unit, replication, parameter set) of a
# rollout holds about this many floats at the slot's peak (tracemalloc, with
# lambda from 1 to 1e4): the kernel state, lambda, the counts, and the
# inversion's copy of the uniforms and its search arrays.
ROLLOUT_TEMPS = 16
# Uniforms are drawn this many slots at a time into one buffer per block.
UNIFORM_SLOTS = 8


def _uniforms(seed, reps, K, T):
    """Yield (t0, u) for each chunk of at most UNIFORM_SLOTS slots, where
    u[b, c, i] is replication reps[b]'s uniform for unit i at slot t0 + c.

    Replication r reads K doubles per slot, slot after slot, from
    default_rng(seed ^ r), so a uniform depends only on (seed, r, slot, unit),
    not on the block or the chunking. `u` is one buffer, refilled in place.
    """
    rngs = [np.random.default_rng(seed ^ r) for r in reps]
    buf = np.empty((len(rngs), min(UNIFORM_SLOTS, T), K))
    for t0 in range(0, T, buf.shape[1]):
        u = buf[:, : min(buf.shape[1], T - t0)]
        for rng, rows in zip(rngs, u):
            rng.random(out=rows)
        yield t0, u


def _rollout_draws(sets, mus, obs, cutoff, R, seed, names=None):
    """Free, partly forced and fully forced runs of S parameter sets, one
    slot at a time for a block of replications at once; yields (reps, t, n)
    with n the slot's (K, S, block) counts. Slots before `cutoff` feed
    obs[:, t], not their draws, into the kernel state.

    The sets differ only in the arrays a scenario edits (alpha, beta, gamma,
    omega); mus[s] is set s's K x T network output (sets of one omega may
    share it), and its weather term gamma_s mu is formed a uniform chunk of
    slots at a time. The block's kernel state P is (K, S, block), and each
    slot makes one coupling sum, one overflow check, one inversion and one
    kernel step for all of it. Every set reads the same uniforms, replication
    r's own, so its path depends neither on the other sets nor on which
    replications share its block. Only the counts inside the kernel window
    are kept, in a ring of min(window + 1, T) slots.
    `names[s]` labels set s in a divergence error (None: a lone set).
    """
    K, T = mus[0].shape
    S, window, eps = len(sets), sets[0].trig_window, sets[0].eps
    span = min(window + 1, T)
    coupling = Coupling(*(p.alpha for p in sets))
    beta = np.stack([p.beta for p in sets], axis=1)  # (K, S)
    gamma = np.stack([p.gamma for p in sets], axis=1)
    kern = Kernel(beta, window)
    rate = beta[:, :, None]
    block = max(1, BLOCK_FLOATS // (K * (S * (span + ROLLOUT_TEMPS) + UNIFORM_SLOTS) + 2 * coupling.w.size))
    for r0 in range(0, R, block):
        reps = range(r0, min(r0 + block, R))
        ring = np.zeros((span, K, S, len(reps)))
        P = np.zeros((K, S, len(reps)))
        for t0, u in _uniforms(seed, reps, K, T):
            direct = gamma[:, :, None] * np.stack([m[:, t0 : t0 + u.shape[1]] for m in mus], axis=1)
            for t in range(t0, t0 + u.shape[1]):
                lam = direct[:, :, t - t0, None] + coupling.apply(rate * P) + eps
                if (lam > LAMBDA_OVERFLOW).any():
                    s, b = np.unravel_index(np.argmax((lam > LAMBDA_OVERFLOW).any(axis=0)), (S, len(reps)))
                    i = int(np.argmax(lam[:, s, b]))
                    where = "" if names is None else f" in {names[s]}"
                    raise DivergenceError(
                        f"simulated intensity exploded{where} at (unit={i}, slot={t}, replication={r0 + b}): "
                        f"{lam[i, s, b]:.3e}"
                    )
                n = poisson_quantile(lam, u[:, t - t0].T[:, None, :])
                yield slice(r0, reps.stop), t, n
                new = obs[:, t, None, None] if t < cutoff else n.astype(np.float64)
                P = kern.step(P, new, ring[(t - window) % span] if t >= window else None)
                ring[t % span] = new


@dataclass
class ReductionResult:
    """Outage-reduction estimate with its Monte Carlo standard error."""

    reduction_pct: float
    std_err_pct: float
    baseline_total: float
    scenario_total: float
    replications: int
    seed: int


def outage_reductions(
    params: ModelParams,
    scenarios: list,
    weather,
    grid: TimeGrid,
    R: int,
    seed: int,
    baseline: str = "simulated_total",
    observed=None,
) -> list:
    """Percent outage reduction of each scenario vs the baseline, with its
    Monte Carlo standard error, simulating every distinct parameter set once.

    baseline="simulated_total" simulates the unmodified model with the *same*
    seed (common random numbers); "observed_total" compares against the
    observed counts. All simulations roll from empty history with the
    observed weather replayed.

    All rollouts share the seed, so a scenario whose applied parameters equal
    the baseline's (or an earlier scenario's) reuses that rollout: it is the
    rollout a fresh simulation would produce. The distinct sets, the baseline
    first, are stepped together in one rollout (:func:`_rollout_totals`).
    """
    checked(baseline, one_of(BASELINES), "baseline")
    if baseline == "observed_total" and observed is None:
        raise ValidationError("observed_total baseline requires observed counts")
    checked(R, at_least(1), "replications R")
    checked(seed, COUNT, "seed")
    params.check_invariants()  # each scenario's set is checked by apply_scenario
    if baseline == "observed_total":
        base_total = float(np.asarray(getattr(observed, "counts", observed)).sum())
        if base_total == 0:
            raise NumericError("baseline total outages is zero; reduction percentage is undefined")
    applied = [apply_scenario(params, scen, reference_history=observed) for scen in scenarios]
    sets, names, index = [], [], {}

    def set_of(p, name):
        # A scenario edits only these arrays of a copy of `params`; equal bits, equal rollout.
        key = b"".join(a.tobytes() for a in (p.alpha.w, p.beta, p.gamma, p.decay.omega))
        if key not in index:
            index[key] = len(sets)
            sets.append(p)
            names.append(f"parameter set {len(sets) - 1} ({name})")
        return index[key]

    if baseline == "simulated_total":
        base = set_of(params, "the baseline")
    rolled = [set_of(p, f"scenario {j}") for j, p in enumerate(applied)]
    totals = _rollout_totals(sets, weather, grid, R, seed, names)
    if baseline == "simulated_total":
        base_total = float(totals[base].mean())
        if base_total == 0:
            raise NumericError("baseline total outages is zero; reduction percentage is undefined")
    results = []
    for s in rolled:
        spread = totals[base] - totals[s] if baseline == "simulated_total" else totals[s]
        se_diff = spread.std(ddof=1) / np.sqrt(R) if R > 1 else 0.0
        scenario_total = float(totals[s].mean())
        results.append(
            ReductionResult(
                reduction_pct=float(100.0 * (base_total - scenario_total) / base_total),
                std_err_pct=float(100.0 * se_diff / base_total),
                baseline_total=base_total,
                scenario_total=scenario_total,
                replications=R,
                seed=seed,
            )
        )
    return results


def _rollout_totals(sets, weather, grid, R, seed, names):
    """(S, R) total outages of every replication of each parameter set in
    `sets`, all rolled from empty history in one stacked rollout. Each row
    is the `rep_totals` of a lone `simulate_paths` of that set, bit for bit;
    no per-cell statistics are kept. Scenarios never edit the scaler or the
    network, so the network output mu is computed once per distinct omega."""
    totals = np.zeros((len(sets), R))
    if not sets:
        return totals
    x = _weather_on_grid(sets[0], weather, grid)
    responses, mus = {}, []
    for p in sets:
        omega = p.decay.omega.tobytes()
        if omega not in responses:
            responses[omega] = weather_response(p, x)
        mus.append(responses[omega])
    # Counts are integer-valued, so these sums are exact in any order.
    for reps, _, n in _rollout_draws(sets, mus, None, 0, R, seed, names):
        totals[:, reps] += n.sum(axis=0)
    return totals


def sweep_scenarios(axis1: list, axis2: list, mode: str = "edges") -> list:
    """(axis1 value, axis2 value, Scenario) for every cell of a sweep grid.

    mode="edges": axis1 = top units by max outages, axis2 = edges per unit
    re-weighted to the mean coupling. mode="margins": axis1 = largest-gamma
    units set to the average margin, axis2 = smallest-beta units set to the
    average recovery rate. A cell with a 0 on an edges axis, or 0 on both
    margins axes, is the identity scenario.
    """
    checked(axis1, SWEEP_AXIS, "sweep axis1")
    checked(axis2, SWEEP_AXIS, "sweep axis2")
    checked(mode, one_of(SWEEP_MODES), "sweep mode")
    cells = []
    for a1 in axis1:
        for a2 in axis2:
            if mode == "edges":
                scen = Scenario(top_k_units=a1, top_e_edges=a2) if a1 and a2 else Scenario()
            else:
                scen = Scenario(gamma_top_units=a1 or None, beta_bottom_units=a2 or None)
            cells.append((a1, a2, scen))
    return cells

