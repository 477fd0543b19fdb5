"""Workload sizes and the CLI commands each workload runs.

Every workload is a closed loop: one caller runs the listed `gridshock`
commands back to back, each in a fresh child process, and starts the next
iteration only when the previous one has finished. gridshock is a batch
tool, so there is no arrival rate to model.

Sizes are fixed per workload and never depend on the seed: the seed changes
the values in the inputs, not how much work they hold, so runs with
different seeds measure the same amount of work.
"""

from __future__ import annotations

from pathlib import Path

# Numeric thread pools are pinned to one thread in every process the
# benchmark starts. With two BLAS threads `analyze` ran 2.5-3.5x slower on a
# 2-core machine, so the thread count is part of the workload definition.
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SIZES = {
    # K=400 makes the O(K^2) no-loop projection a large share of each step.
    # Three epochs of 32-slot blocks; `tol` is set so small that early
    # stopping never triggers and the epoch count is fixed.
    "fit": {"K": 400, "T": 256, "M": 3, "epochs": 3, "batch_slots": 32},
    # A model of known parameters rolled out free-running; `enhance` runs one
    # scenario plus a 2x2 edges sweep. Rollout cost is R x T x (Python step).
    "whatif": {"K": 100, "T": 250, "M": 3, "R": 24, "sweep_units": [0, 10], "sweep_edges": [0, 2]},
    # Raw CSVs, one outage row and one weather row per unit per hour.
    "ingest_forecast": {"K": 100, "T": 600, "M": 3, "horizon": 6},
}

VARIABLES = ("wind_speed", "wind_gust", "precip_rate")
SLOT_SECONDS = 3600


def commands(workload: str, work: Path) -> list[tuple[str, list[str]]]:
    """(command name, argv for gridshock.cli.main) for one iteration."""
    size = SIZES[workload]
    out = str(work / "out")
    if workload == "fit":
        return [
            (
                "fit",
                [
                    "fit", "--config", str(work / "fit_config.json"),
                    "--dataset", str(work / "dataset.gshk"), "--model", str(work / "out" / "model.gshk"),
                    "--output-dir", out, "--epochs", str(size["epochs"]),
                    "--batch-slots", str(size["batch_slots"]), "--seed", "0",
                ],
            )
        ]
    if workload == "whatif":
        common = ["--dataset", str(work / "dataset.gshk"), "--model", str(work / "model.gshk"), "--seed", "0"]
        return [
            ("simulate", ["simulate", *common, "--output-dir", str(work / "out" / "simulate"),
                          "--replications", str(size["R"])]),
            ("enhance", ["enhance", *common, "--output-dir", str(work / "out" / "enhance"),
                         "--replications", str(size["R"]), "--scenario", str(work / "scenario.json"),
                         "--sweep-mode", "edges",
                         "--sweep-units", ",".join(map(str, size["sweep_units"])),
                         "--sweep-edges", ",".join(map(str, size["sweep_edges"]))]),
        ]
    if workload == "ingest_forecast":
        ds = str(work / "out" / "dataset.gshk")
        model = ["--dataset", ds, "--model", str(work / "model.gshk"), "--output-dir", out]
        return [
            ("ingest", ["ingest", "--units", str(work / "units.csv"), "--outages", str(work / "outages.csv"),
                        "--weather", str(work / "weather.csv"), "--dataset", ds, "--output-dir", out,
                        "--slot-seconds", str(SLOT_SECONDS), "--grid-start", "auto", "--num-slots", "auto"]),
            ("predict", ["predict", *model, "--horizon", str(size["horizon"])]),
            ("analyze", ["analyze", *model, "--sigmoid-variable", VARIABLES[0]]),
            ("export-map", ["export-map", *model]),
        ]
    raise KeyError(workload)


WORKLOADS = tuple(SIZES)
