#!/usr/bin/env python3
"""Run the pipeline once at a year-scale size and print each command's cost.

Writes K=1000 units, T=2920 slots and M=4 weather variables of raw CSVs into
OUT_DIR with the benchmark's seeded generators (`perfbench/gen.py`), then
runs `ingest`, `fit --epochs 2`, `predict`, `simulate --replications 50`,
`enhance --replications 50` (one scenario plus a 2x2 edges sweep) and
`analyze --sigmoid-variable wind_speed` on them, each in a fresh child
process with one numeric thread, and prints
one line per command: wall seconds and peak RSS in MiB (`os.wait4`). This
process never loads numpy, so it adds little to the children's peaks.

This is a record, not a gate: it exits 0 whenever every command does. Run
it on two checkouts, one after the other, to compare how they scale. Needs
about 2 GB of free memory and a few minutes.

Usage: python3 scripts/scale_check.py OUT_DIR [--seed N]
"""

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

# numpy-free: a child's peak RSS starts from this process's RSS when it is spawned
from workloads import SLOT_SECONDS, THREAD_VARS, THREADS  # noqa: E402

K, T, M = 1000, 2920, 4
EPOCHS = 2
REPLICATIONS = 50
# cut the two strongest out-edges of the 10 units with the largest peaks, and
# reset the 10 largest design margins to the mean
SCENARIO = {"top_k_units": 10, "top_e_edges": 2, "edge_target": 0.0, "gamma_top_units": 10}
SWEEP = ["--sweep-units", "0,10", "--sweep-edges", "0,2"]


def write_inputs(work: Path, seed: int) -> None:
    """Runs in a spawned child, so numpy and the arrays never load in this process."""
    import gen
    import numpy as np

    rng = np.random.default_rng([seed, K, T, M])
    units = gen.make_units(rng, K)
    # gen.py draws at most three variables per call; the fourth is a second wind-like series
    weather = np.concatenate([gen.make_weather(rng, K, T, 3), gen.make_weather(rng, K, T, M - 3)], axis=2)
    counts = gen.make_counts(rng, weather)
    gen.write_units_csv(work / "units.csv", units)
    gen.VARIABLES = (*gen.VARIABLES[:3], "wind_speed_2")  # the column names write_raw_csvs uses
    gen.write_raw_csvs(work, units, counts, weather)
    (work / "scenario.json").write_text(json.dumps(SCENARIO))


def commands(work: Path) -> list[tuple[str, list[str]]]:
    out = str(work / "out")
    io = ["--dataset", f"{out}/dataset.gshk", "--model", f"{out}/model.gshk", "--output-dir", out]
    return [
        ("ingest", ["ingest", "--units", str(work / "units.csv"), "--outages", str(work / "outages.csv"),
                    "--weather", str(work / "weather.csv"), "--dataset", f"{out}/dataset.gshk",
                    "--output-dir", out, "--slot-seconds", str(SLOT_SECONDS)]),
        ("fit", ["fit", *io, "--epochs", str(EPOCHS), "--seed", "0"]),
        ("predict", ["predict", *io, "--horizon", "1"]),
        ("simulate", ["simulate", *io, "--replications", str(REPLICATIONS), "--seed", "0"]),
        ("enhance", ["enhance", *io, "--scenario", str(work / "scenario.json"), *SWEEP,
                     "--replications", str(REPLICATIONS), "--seed", "0"]),
        ("analyze", ["analyze", *io, "--sigmoid-variable", "wind_speed"]),
    ]


def run(argv: list[str]) -> tuple[float, float, int]:
    """(wall seconds, peak RSS MiB, exit code) of one `gridshock` command."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, str(THREADS)), "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "gridshock.cli", *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return time.perf_counter() - start, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    writer = multiprocessing.get_context("spawn").Process(target=write_inputs, args=(args.out_dir, args.seed))
    writer.start()
    writer.join()
    if writer.exitcode != 0:
        print(f"writing the inputs exited {writer.exitcode}", file=sys.stderr)
        return 1
    print(f"inputs   K={K} T={T} M={M} written in {time.perf_counter() - t0:.1f} s", flush=True)
    for name, cmd in commands(args.out_dir):
        wall, rss, rc = run(cmd)
        print(f"{name:<8} wall_s {wall:8.2f}  peak_rss_mib {rss:8.1f}", flush=True)
        if rc != 0:
            print(f"{name} exited {rc}", file=sys.stderr)
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
