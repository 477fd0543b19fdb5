"""Output checks for the benchmark workloads.

    python3 perfbench/checks.py WORKLOAD WORKDIR

prints one JSON list of [name, passed, detail], one entry per check. Every
check compares a CLI artifact with a reference the benchmark computes
itself: the generator's own inputs (`reference.npz`), the per-cell
`model.intensity` reference, or a direct recount. A check that fails counts
as one failed operation in the benchmark's `failed` tally and `fail_ratio`.

run.py runs this in a process of its own, so that its own process stays
small (see run.run_child). Checks that compare bytes across iterations live
in run.py.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from workloads import SIZES, VARIABLES

# Relative tolerance for two floating-point paths that evaluate the same
# formula in a different order (vectorised field vs per-cell lag sums).
FIELD_RTOL = 1e-9
CELLS_SAMPLED = 12
AHEAD_CELLS_SAMPLED = 3


class CheckFailed(Exception):
    """An artifact disagrees with its reference."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rtol: float = FIELD_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def accumulate_cell(x: np.ndarray, omega: np.ndarray, window: int, t: int) -> np.ndarray:
    """v[t] = sum over tau in (t-window, t] of x[tau] * exp(-omega (t - tau)), for one unit."""
    v = np.zeros(x.shape[1])
    for lag in range(min(window, t + 1)):
        v += x[t - lag] * np.exp(-omega * lag)
    return v


class Outputs:
    """Lazily loaded artifacts and references of one workload iteration."""

    def __init__(self, workload: str, work: Path):
        self.work = work
        self.out = work / "out"
        self.size = SIZES[workload]

    @cached_property
    def reference(self) -> dict:
        with np.load(self.work / "reference.npz") as ref:
            return {k: ref[k] for k in ref.files}

    @cached_property
    def params(self):
        from gridshock.model import deserialize

        return deserialize(self.work / "model.gshk")

    def sampled_cells(self, n: int, t_min: int = 0) -> list[tuple[int, int]]:
        K, T = self.reference["counts"].shape
        rng = np.random.default_rng(K * 7919 + T)
        return [(int(rng.integers(0, K)), int(rng.integers(t_min, T))) for _ in range(n)]

    def reference_v(self, cells) -> np.ndarray:
        """Accumulated scaled weather at `cells`, zero elsewhere (benchmark's own loop)."""
        p = self.params
        x = (self.reference["weather"] - p.scaler.mean) / p.scaler.scale
        v = np.zeros_like(x)
        for i, t in cells:
            v[i, t] = accumulate_cell(x[i], p.decay.omega, p.decay.window_slots, t)
        return v


# -- fit ------------------------------------------------------------------------


def fit_checks(o: Outputs):
    from gridshock import ingest, model, topology, train

    def report():
        return [float(r["loglik"]) for r in read_rows(o.out / "fit_report.csv")]

    def saved():
        return model.deserialize(o.out / "model.gshk")

    def dataset():
        return ingest.load_dataset(o.work / "dataset.gshk")

    def epochs_run():
        require(len(report()) == o.size["epochs"], f"{len(report())} epochs reported, expected {o.size['epochs']}")

    def loglik_matches_saved_model():
        trace = report()
        ll = train.log_likelihood(saved(), dataset())
        require(close(ll, trace[-1], 1e-12), f"saved model loglik {ll!r} != final reported {trace[-1]!r}")

    def loglik_above_start():
        ds = dataset()
        graph = topology.build_candidate_graph(ds.units)
        start = train.initialize(ds, graph, seed=0, cfg=train.FitConfig(seed=0))
        ll0 = train.log_likelihood(start, ds)
        require(report()[-1] > ll0, f"final loglik {report()[-1]!r} does not exceed start {ll0!r}")

    def invariants():
        saved().check_invariants()

    return [
        ("fit.epochs_run", epochs_run),
        ("fit.loglik_matches_saved_model", loglik_matches_saved_model),
        ("fit.loglik_above_start", loglik_above_start),
        ("fit.check_invariants", invariants),
    ]


# -- whatif ---------------------------------------------------------------------


def whatif_checks(o: Outputs):
    R = o.size["R"]

    def totals():
        return {r["metric"]: r["value"] for r in read_rows(o.out / "simulate" / "simulation_totals.csv")}

    def simulate_totals():
        tot = totals()
        require(int(tot["replications"]) == R, f"replications {tot['replications']} != {R}")
        units = read_rows(o.out / "simulate" / "simulation_units.csv")
        require(len(units) == o.size["K"], f"{len(units)} unit rows, expected {o.size['K']}")
        mean_total = float(tot["mean_total"])
        unit_sum = math.fsum(float(r["total_mean"]) for r in units)
        require(mean_total > 0 and close(unit_sum, mean_total), f"unit means sum {unit_sum} vs mean_total {mean_total}")

    def enhancement_baseline_is_simulation():
        # Common random numbers: the scenario's baseline is the same R
        # rollouts with the same seed as the plain simulation.
        (row,) = read_rows(o.out / "enhance" / "enhancement.csv")
        require(int(row["replications"]) == R, f"replications {row['replications']} != {R}")
        base, mean_total = float(row["baseline_total"]), float(totals()["mean_total"])
        require(base == mean_total, f"enhance baseline {base!r} != simulate mean_total {mean_total!r}")
        require(math.isfinite(float(row["reduction_pct"])), "non-finite reduction")

    def sweep_identity_cells():
        rows = read_rows(o.out / "enhance" / "sweep.csv")
        cells = {(int(r["top_units"]), int(r["edges_per_unit"])): r for r in rows}
        expected = {(a, b) for a in o.size["sweep_units"] for b in o.size["sweep_edges"]}
        require(set(cells) == expected, f"sweep cells {sorted(cells)} != {sorted(expected)}")
        for (a, b), r in cells.items():
            if a == 0 or b == 0:
                pct = float(r["reduction_pct"])
                require(pct == 0.0, f"identity cell ({a},{b}) reduction {pct!r}, expected exactly 0")

    return [
        ("simulate.totals", simulate_totals),
        ("enhance.baseline_is_simulation", enhancement_baseline_is_simulation),
        ("enhance.sweep_identity_cells", sweep_identity_cells),
    ]


# -- ingest_forecast ------------------------------------------------------------


def ingest_forecast_checks(o: Outputs):
    from gridshock import ingest
    from gridshock.model import intensity

    K, T, h = o.size["K"], o.size["T"], o.size["horizon"]

    def dataset():
        return ingest.load_dataset(o.out / "dataset.gshk")

    def ingest_counts():
        got = dataset().outages.counts
        want = o.reference["counts"]
        require(got.shape == want.shape, f"count matrix {got.shape} != {want.shape}")
        require(np.array_equal(got, want), f"{int((got != want).sum())} count cells differ from the generated ones")

    def ingest_weather():
        ds = dataset()
        require(ds.weather.variable_names == list(VARIABLES[: o.size["M"]]), f"variables {ds.weather.variable_names}")
        got, want = ds.weather.values, o.reference["weather"]
        require(got.shape == want.shape, f"weather {got.shape} != {want.shape}")
        require(np.array_equal(got, want), f"{int((got != want).sum())} weather cells differ from the CSV values")
        require(ds.grid.num_slots == T and ds.grid.slot_seconds == 3600, f"grid {ds.grid}")

    def predictions(name):
        rows = read_rows(o.out / name)
        lam = np.full((K, T), np.nan)
        for r in rows:
            lam[int(r["unit"]), int(r["slot"])] = float(r["predicted"])
        return len(rows), lam

    def in_sample_matches_reference():
        n, lam = predictions("predictions_insample.csv")
        require(n == K * T, f"{n} in-sample rows, expected {K * T}")
        cells = o.sampled_cells(CELLS_SAMPLED)
        v = o.reference_v(cells)
        counts = o.reference["counts"].astype(np.float64)
        for i, t in cells:
            ref, _, _ = intensity(o.params, counts, v, i, t)
            require(close(lam[i, t], ref), f"in-sample lambda[{i},{t}] {lam[i, t]!r} != reference {ref!r}")

    def ahead_matches_reference():
        # The h-slot-ahead mean at t: history observed up to t-h, slots in
        # between filled with their own predicted means, unit by unit.
        n, lam = predictions("predictions_ahead.csv")
        require(n == K * (T - h), f"{n} ahead rows, expected {K * (T - h)}")
        counts = o.reference["counts"].astype(np.float64)
        for i, t in o.sampled_cells(AHEAD_CELLS_SAMPLED, t_min=h):
            steps = range(t - h + 1, t)
            v = o.reference_v([(k, s) for k in range(K) for s in steps] + [(i, t)])
            hist = counts.copy()
            for s in steps:
                hist[:, s] = [intensity(o.params, hist, v, k, s)[0] for k in range(K)]
            ref, _, _ = intensity(o.params, hist, v, i, t)
            require(close(lam[i, t], ref), f"{h}-ahead lambda[{i},{t}] {lam[i, t]!r} != reference {ref!r}")

    def decomposition_totals():
        rows = read_rows(o.out / "decomposition.csv")
        require(len(rows) == T, f"{len(rows)} decomposition rows, expected {T}")
        observed = o.reference["counts"].sum(axis=0)
        _, lam = predictions("predictions_insample.csv")
        eps = o.params.eps
        for t, r in enumerate(rows):
            require(float(r["observed_total"]) == observed[t], f"slot {t} observed total {r['observed_total']}")
            total = float(r["direct_total"]) + float(r["indirect_total"]) + K * eps
            require(close(total, math.fsum(lam[:, t])), f"slot {t}: direct+indirect {total} != sum lambda")

    def episodes_recount():
        counts = o.reference["counts"]
        want = 0
        for row in counts:
            nz = np.flatnonzero(row)
            want += int(nz.size > 0) + int((np.diff(nz) - 1 >= 2).sum())
        got = len(read_rows(o.out / "episodes.csv"))
        require(got == want, f"{got} episodes written, recount gives {want}")

    def sigmoid_row():
        (row,) = read_rows(o.out / "sigmoid.csv")
        require(row["variable"] == VARIABLES[0], f"sigmoid variable {row['variable']}")
        require(all(math.isfinite(float(row[k])) for k in ("a", "c", "L", "rmse")), f"sigmoid row {row}")

    def propagation_map():
        rows = read_rows(o.out / "propagation_map.csv")
        off = o.params.alpha.off_diagonal()
        require(len(rows) == int((off > 0).sum()), f"{len(rows)} map rows, {int((off > 0).sum())} active edges")
        for r in rows:
            s, t = int(r["source"]), int(r["target"])
            require(float(r["alpha"]) == off[t, s], f"edge ({s},{t}) alpha {r['alpha']} != model {off[t, s]!r}")
        att = [float(r["attributed_outages"]) for r in rows]
        require(att == sorted(att, reverse=True), "propagation map not sorted by attributed outages")

    return [
        ("ingest.counts_exact", ingest_counts),
        ("ingest.weather_csv_precision", ingest_weather),
        ("predict.in_sample_vs_intensity", in_sample_matches_reference),
        ("predict.ahead_vs_intensity_rollout", ahead_matches_reference),
        ("analyze.decomposition_totals", decomposition_totals),
        ("analyze.episodes_recount", episodes_recount),
        ("analyze.sigmoid_row", sigmoid_row),
        ("export_map.edges", propagation_map),
    ]


CHECKS = {"fit": fit_checks, "whatif": whatif_checks, "ingest_forecast": ingest_forecast_checks}


def content_checks(workload: str, work: Path):
    return CHECKS[workload](Outputs(workload, work))


def run_checks(checks) -> list[tuple[str, bool, str]]:
    """Evaluate every check; an exception of any kind is that check's failure."""
    results = []
    for name, thunk in checks:
        try:
            thunk()
        except Exception as exc:  # a crash in a check is a failed check, not a benchmark abort
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, True, ""))
    return results


if __name__ == "__main__":
    print(json.dumps(run_checks(content_checks(sys.argv[1], Path(sys.argv[2])))))
