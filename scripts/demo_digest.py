#!/usr/bin/env python3
"""Run the README's CLI walkthrough in-process and print a digest of every artifact.

Writes the demo inputs to OUT_DIR, runs the seven `gridshock` commands of the
walkthrough on them with `--threads 1` (artifacts in OUT_DIR/out), then
prints one `sha256  name` line per artifact on stdout (the commands' own
output goes to stderr). Comparing the output of two
checkouts shows whether a change moved any byte of any result. Use the same
OUT_DIR for both: `effective_config.json` records the paths it was given.

This is a record, not a gate: it exits 0 whenever every command does.

Usage: python3 scripts/demo_digest.py OUT_DIR
"""

import argparse
import contextlib
import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gridshock import cli  # noqa: E402  (numpy-free, so --threads still acts)

SCENARIO = '{"edge_reweights": [[0, 1, 0.0]], "gamma_top_units": 2}\n'


def walkthrough(demo: Path) -> list[list[str]]:
    """The README's seven commands, with demo/ replaced by `demo`."""
    out = str(demo / "out")
    io = ["--dataset", f"{out}/dataset.gshk", "--model", f"{out}/model.gshk", "--output-dir", out]
    return [
        ["ingest", "--units", f"{demo}/units.csv", "--outages", f"{demo}/outages.csv",
         "--weather", f"{demo}/weather.csv", "--output-dir", out, "--slot-seconds", "3600"],
        ["fit", *io, "--epochs", "120", "--seed", "1"],
        ["predict", *io, "--horizon", "1"],
        ["simulate", *io, "--replications", "500", "--seed", "7"],
        ["enhance", *io, "--scenario", f"{demo}/scenario.json", "--replications", "300",
         "--seed", "7", "--sweep-units", "0,2,4", "--sweep-edges", "0,1,2"],
        ["analyze", *io, "--sigmoid-variable", "wind_speed"],
        ["export-map", *io],
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path, help="directory for the demo inputs and artifacts")
    demo = ap.parse_args(argv).out_dir.resolve()
    # The generator imports numpy, so it runs in its own process and this one
    # stays numpy-free until the first command has pinned the thread pools.
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_data.py"), "--out", str(demo)],
                   check=True, stdout=subprocess.DEVNULL)
    (demo / "scenario.json").write_text(SCENARIO, encoding="utf-8")
    for argv_cmd in walkthrough(demo):
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the digest
            rc = cli.main([*argv_cmd, "--threads", "1"])
        if rc != cli.EXIT_OK:
            print(f"gridshock {argv_cmd[0]} exited {rc}", file=sys.stderr)
            return rc
    for path in sorted((demo / "out").iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
