"""Seeded input generator for the gridshock benchmark.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes every input one workload needs into DIR, plus `reference.npz`, the
values the output checks compare against. The same seed always gives the
same bytes.

The data model is the benchmark's own and shares no code with
`gridshock.simulate` or `gridshock.train`, so a change to simulation or
fitting can never change its own inputs:

  * weather is a mean-reverting AR(1) per unit and variable plus storm
    passes that sweep across the unit grid from west to east;
  * outage counts are Poisson with a sigmoid weather response, self
    spillover from the unit's previous slot and neighbour spillover from
    the four grid neighbours' previous slot;
  * the model file (`whatif`, `ingest_forecast`) holds known parameters
    drawn here, serialised with the program's own model writer.

Only the program's file writers (dataset container, model container) and
its `build_candidate_graph` are used, because the inputs must be in the
program's formats and on its graph.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SIZES, SLOT_SECONDS, THREAD_VARS, THREADS, VARIABLES  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402

GRID_START = datetime(2024, 1, 1, tzinfo=timezone.utc)
SPACING_DEG = 0.12  # about 13 km, so the default 8-NN / 100 km graph is dense
WEATHER_BASE = np.array([6.0, 9.0, 1.0])
WEATHER_DECIMALS = 3
SELF_SPILL = 0.3
NEIGHBOUR_SPILL = 0.05
HIDDEN = (32, 16)


def grid_positions(K: int) -> np.ndarray:
    side = int(np.ceil(np.sqrt(K)))
    return np.array([divmod(i, side) for i in range(K)])  # (row, col)


def make_units(rng, K: int) -> list[tuple[str, float, float, int]]:
    pos = grid_positions(K)
    lat = 40.0 + pos[:, 0] * SPACING_DEG + rng.uniform(-0.015, 0.015, K)
    lon = -75.0 + pos[:, 1] * SPACING_DEG + rng.uniform(-0.015, 0.015, K)
    customers = rng.integers(5_000, 50_000, K)
    return [(f"u{i:04d}", round(float(lat[i]), 5), round(float(lon[i]), 5), int(customers[i])) for i in range(K)]


def make_weather(rng, K: int, T: int, M: int) -> np.ndarray:
    """(K, T, M) weather: AR(1) background plus west-to-east storm passes."""
    base = WEATHER_BASE[:M]
    x = np.empty((K, T, M))
    state = base + rng.normal(0.0, 0.5, (K, M))
    for t in range(T):
        state = base + 0.85 * (state - base) + rng.normal(0.0, 0.6, (K, M))
        x[:, t, :] = state
    cols = grid_positions(K)[:, 1]
    n_storms = max(1, T // 120)
    for _ in range(n_storms):
        onset = int(rng.integers(0, max(1, T - 40)))
        length = int(rng.integers(8, 20))
        gain = rng.uniform(1.5, 3.0, M) * base
        for i in range(K):
            s0 = min(onset + int(cols[i]), T - 1)
            s1 = min(s0 + length, T)
            shape = np.sin(np.linspace(0.0, np.pi, s1 - s0))
            x[i, s0:s1, :] += shape[:, None] * gain[None, :] * rng.uniform(0.8, 1.2)
    return np.round(np.clip(x, 0.0, None), WEATHER_DECIMALS)


def grid_neighbours(K: int) -> list[list[int]]:
    pos = grid_positions(K)
    where = {(int(r), int(c)): i for i, (r, c) in enumerate(pos)}
    return [
        [where[(r + dr, c + dc)] for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)) if (r + dr, c + dc) in where]
        for r, c in ((int(r), int(c)) for r, c in pos)
    ]


def make_counts(rng, weather: np.ndarray) -> np.ndarray:
    """(K, T) Poisson counts with weather response and one-slot spillover."""
    K, T, _ = weather.shape
    wind = weather[:, :, 0]
    base = 0.05 + 2.0 / (1.0 + np.exp(-(wind - 14.0) / 1.5))
    nbrs = grid_neighbours(K)
    counts = np.zeros((K, T), dtype=np.int64)
    for t in range(T):
        lam = base[:, t].copy()
        if t > 0:
            prev = counts[:, t - 1]
            lam += SELF_SPILL * prev
            lam += NEIGHBOUR_SPILL * np.array([prev[n].sum() for n in nbrs])
        counts[:, t] = rng.poisson(lam)
    return counts


def make_model(rng, units, weather: np.ndarray):
    """Known ModelParams on the default candidate graph, loop-free, stable.

    Recovery rates in [1.0, 1.5] keep each unit's kernel mass below 0.6 and
    couplings in [0.05, 0.25] with out-degree <= 2 keep the branching matrix
    well inside the stable region.
    """
    from gridshock.ingest import UnitMeta
    from gridshock.model import MlpParams, ModelParams
    from gridshock.topology import EdgeWeights, build_candidate_graph
    from gridshock.weather_effect import DecayConfig, WeatherScaler

    K, _, M = weather.shape
    metas = [UnitMeta(uid, lat, lon, cust) for uid, lat, lon, cust in units]
    graph = build_candidate_graph(metas)
    alpha = np.zeros((K, K))
    out_degree = np.zeros(K, dtype=int)
    for s, t in graph.edges:
        if s < t and rng.random() < 0.3:
            src, tgt = (s, t) if rng.random() < 0.5 else (t, s)
            if out_degree[src] < 2:
                alpha[tgt, src] = rng.uniform(0.05, 0.25)
                out_degree[src] += 1
    sizes = (M, *HIDDEN, 1)
    weights = [rng.standard_normal((sizes[k], sizes[k + 1])) / np.sqrt(sizes[k]) for k in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[k + 1]) for k in range(len(sizes) - 1)]
    biases[-1][0] = -1.5
    flat = weather.reshape(-1, M)
    std = flat.std(axis=0)
    params = ModelParams(
        alpha=EdgeWeights(graph=graph, alpha=alpha),
        beta=rng.uniform(1.0, 1.5, K),
        gamma=rng.uniform(0.05, 0.2, K),
        decay=DecayConfig(omega=rng.uniform(0.05, 0.2, M), window_slots=24),
        mlp=MlpParams(weights=weights, biases=biases),
        scaler=WeatherScaler(mean=flat.mean(axis=0), scale=np.where(std > 0, std, 1.0)),
        eps=1e-3,
        trig_window=40,
    )
    params.check_invariants()
    return params


def timestamps(T: int) -> list[str]:
    return [(GRID_START + timedelta(seconds=SLOT_SECONDS * t)).strftime("%Y-%m-%dT%H:%M:%SZ") for t in range(T)]


def write_units_csv(path: Path, units) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["unit_id", "lat", "lon", "total_customers"])
        wr.writerows(units)


def write_raw_csvs(work: Path, units, counts: np.ndarray, weather: np.ndarray) -> int:
    """One outage row and one weather row per cell, unit-major; returns rows written."""
    K, T, M = weather.shape
    stamps = timestamps(T)
    with open(work / "outages.csv", "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["unit_id", "timestamp", "customers_out"])
        for i, (uid, *_rest) in enumerate(units):
            wr.writerows(zip([uid] * T, stamps, counts[i].tolist()))
    fmt = f"{{:.{WEATHER_DECIMALS}f}}"
    with open(work / "weather.csv", "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["unit_id", "timestamp", *VARIABLES[:M]])
        for i, (uid, *_rest) in enumerate(units):
            cols = [[fmt.format(v) for v in weather[i, :, m].tolist()] for m in range(M)]
            wr.writerows(zip([uid] * T, stamps, *cols))
    return 2 * K * T


def write_dataset(path: Path, units, counts: np.ndarray, weather: np.ndarray) -> None:
    from gridshock.ingest import Dataset, OutageSeries, TimeGrid, UnitMeta, WeatherTensor, save_dataset

    K, T, M = weather.shape
    ds = Dataset(
        units=[UnitMeta(uid, lat, lon, cust) for uid, lat, lon, cust in units],
        grid=TimeGrid(start=GRID_START, slot_seconds=SLOT_SECONDS, num_slots=T),
        outages=OutageSeries(counts=counts),
        weather=WeatherTensor(values=weather, variable_names=list(VARIABLES[:M])),
    )
    save_dataset(ds, path)


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs into `work`; returns a summary."""
    size = SIZES[workload]
    K, T, M = size["K"], size["T"], size["M"]
    # One stream per workload and seed; the workload name is folded in so
    # two workloads never share inputs at the same seed.
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    work.mkdir(parents=True, exist_ok=True)
    units = make_units(rng, K)
    weather = make_weather(rng, K, T, M)
    counts = make_counts(rng, weather)
    summary = {"workload": workload, "seed": seed, **size, "outage_total": int(counts.sum())}
    if workload == "fit":
        write_dataset(work / "dataset.gshk", units, counts, weather)
        with open(work / "fit_config.json", "w", encoding="utf-8") as fh:
            # `tol` must be positive; this one is never reached, so the
            # epoch count set on the command line is always run in full.
            json.dump({"fit": {"tol": 1e-300}}, fh)
    else:
        from gridshock.model import serialize

        serialize(make_model(rng, units, weather), work / "model.gshk")
    if workload == "whatif":
        write_dataset(work / "dataset.gshk", units, counts, weather)
        with open(work / "scenario.json", "w", encoding="utf-8") as fh:
            json.dump({"top_k_units": 10, "top_e_edges": 2, "edge_target": 0.0, "gamma_top_units": 5}, fh)
    if workload == "ingest_forecast":
        write_units_csv(work / "units.csv", units)
        summary["rows_in"] = write_raw_csvs(work, units, counts, weather)
    np.savez(work / "reference.npz", counts=counts, weather=weather)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
