#!/usr/bin/env python3
"""Show that the benchmark's output checks catch corrupted artifacts.

    python3 perfbench/selftest.py

For each workload: generate inputs (seed 0), run one iteration of its CLI
commands, and check the artifacts (every check must pass). Then corrupt one
artifact at a time and check again: every corruption must make at least one
check fail, so fail_ratio turns nonzero. Exits 0 only if all of that holds.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import time

import run
from checks import content_checks, run_checks


def rewrite_csv(path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def bump_count(work) -> None:
    from gridshock import ingest

    ds = ingest.load_dataset(work / "out" / "dataset.gshk")
    ds.outages.counts[3, 7] += 1
    ingest.save_dataset(ds, work / "out" / "dataset.gshk")


def nudge(rows, row, col, factor) -> None:
    rows[row][col] = repr(float(rows[row][col]) * factor)


CORRUPTIONS = {
    "fit": [
        ("final loglik in fit_report.csv off by 1e-9",
         lambda w: rewrite_csv(w / "out" / "fit_report.csv", lambda r: nudge(r, -1, 1, 1 + 1e-9))),
    ],
    "whatif": [
        ("identity sweep cell reads 0.5%",
         lambda w: rewrite_csv(w / "out" / "enhance" / "sweep.csv", lambda r: r[1].__setitem__(2, "0.5"))),
        ("simulated mean total off by 1e-12",
         lambda w: rewrite_csv(w / "out" / "simulate" / "simulation_totals.csv", lambda r: nudge(r, 1, 1, 1 + 1e-12))),
    ],
    "ingest_forecast": [
        ("one ingested count cell off by one", bump_count),
        ("every in-sample prediction scaled by 1 + 1e-6",
         lambda w: rewrite_csv(w / "out" / "predictions_insample.csv",
                               lambda r: [nudge(r, i, 2, 1 + 1e-6) for i in range(1, len(r))])),
    ],
}


def main() -> int:
    ok = True
    for workload, corruptions in CORRUPTIONS.items():
        work = run.WORK_ROOT / f"selftest-{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            deadline = time.monotonic() + run.RUN_LIMIT_S
            run.setup(workload, 0, work, deadline)
            it = run.run_iteration(workload, work, traced=False, deadline=deadline)
            clean = run.Tally()
            reference = run.check_iteration(workload, work, it, None, clean, deadline)
            print(f"{workload}: clean fail_ratio {clean.failed}/{clean.attempted}")
            for failure in clean.failures:
                print(f"  unexpected failure: {failure}")
            ok &= clean.failed == 0
            saved = work / "out.clean"
            shutil.copytree(work / "out", saved)
            for description, corrupt in corruptions:
                shutil.rmtree(work / "out")
                shutil.copytree(saved, work / "out")
                corrupt(work)
                tally = run.Tally()
                for name, passed, detail in run_checks(content_checks(workload, work)):
                    tally.add(name, passed, detail)
                changed = run.digest(work / "out") != reference
                tally.add("artifacts.byte_identical", not changed, "artifacts differ from the clean run")
                caught = tally.failed > 0
                ok &= caught
                print(f"  corrupted ({description}): fail_ratio {tally.failed}/{tally.attempted} "
                      f"-> {'caught' if caught else 'NOT CAUGHT'}")
                for failure in tally.failures:
                    print(f"    {failure[:160]}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
