#!/usr/bin/env python3
"""Benchmark of the gridshock ingest -> fit -> what-if pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of fit, whatif, ingest_forecast, or `all` to run the three in
turn. Run from the repository root; the program is run from `src/`.

One run:
  1. generates the workload's inputs from the seed, SETUP_REPS times, each in
     its own process (setup_s is their median);
  2. runs the workload's `gridshock` commands in a closed loop for S seconds,
     each command in a fresh child process with numeric thread pools pinned
     to one thread;
  3. checks every artifact (checks.py) and that every iteration wrote the
     same bytes;
  4. prints the metrics, a `record` line with the environment, and as the
     last line one JSON object {correct, attempted, failed, metrics}.

Before every set-up repetition and every iteration it times calibrate.py, a
fixed piece of reference work that never touches gridshock. wall_s and
setup_s are reported at the reference speed: the measured seconds times
CALIBRATION_REF_S over the median calibration time of the same phase. On a
shared machine whose speed drifts by tens of percent over minutes, this
keeps a slower machine from reading as a slower program; the seconds as
measured are printed and recorded as wall_raw_s and setup_raw_s.

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json, all
from untraced iterations. With --trace 1 untraced and traced iterations
alternate; traced ones run each command under tracer.py and give the
per-layer metrics, and the difference of the two medians is the tracing
overhead. An operation is one CLI command or one output check; a failure is
a nonzero exit or a failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from workloads import SIZES, THREAD_VARS, THREADS, WORKLOADS, commands  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

WORK_ROOT = HERE / "_work"
SETUP_REPS = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
CALIBRATION_REF_S = 0.5  # calibrate.py's time at the reference speed
CLI_MAIN = "import sys; from gridshock.cli import main; sys.exit(main(sys.argv[1:]))"
COMMAND_METRIC = {"ingest": "ingest_s", "fit": "fit_s", "predict": "predict_s", "simulate": "simulate_s",
                  "enhance": "enhance_s", "analyze": "analyze_s", "export-map": "export_map_s"}


# -- child processes -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    """One finished child process: start and end on CLOCK_MONOTONIC, peak RSS, exit code."""

    start: float
    end: float
    rss_mib: float
    rc: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_child(argv: list[str], log: Path, deadline: float) -> Child:
    """Run argv to completion (killed at `deadline`), timed on CLOCK_MONOTONIC.

    A child's peak RSS starts from this process's RSS when it is spawned, so
    this process never loads numpy or the checked arrays: checks.py and the
    version probe run in children of their own.
    """
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, end, usage.ru_maxrss / 1024.0, proc.returncode)


def digest(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


# -- statistics ------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> float:
    """Highest percentile with at least 10 samples beyond it (median when n < 21)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    return float(ordered[max(n - 11, (n - 1) // 2)])


# -- one iteration -----------------------------------------------------------------


class Iteration:
    """One pass over the workload's commands, with the calibration timed just before it."""

    def __init__(self, calibration: float):
        self.calibration = calibration
        self.children: dict[str, Child] = {}
        self.traces: dict[str, dict] = {}

    @property
    def wall(self) -> float:
        return sum(c.seconds for c in self.children.values())

    @property
    def rss_mib(self) -> float:
        return max(c.rss_mib for c in self.children.values())


def run_iteration(workload: str, work: Path, traced: bool, deadline: float) -> Iteration:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    it = Iteration(calibrate(work, deadline))
    for name, cli_args in commands(workload, work):
        log = work / f"{name}.log"
        if traced:
            spans_path = work / f"{name}.spans.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *cli_args]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, *cli_args]
        it.children[name] = run_child(argv, log, deadline)
        if traced and it.children[name].rc == 0:
            it.traces[name] = json.loads(spans_path.read_text())
    return it


# -- per-layer aggregation -------------------------------------------------------------

# Span label -> metric reporting that span's self time.
SELF_TIME = {
    "topology.enforce_no_loops": "topology.enforce_no_loops_s",
    "train.project": "train.project_s",
    "model.mlp_forward": "model.mlp_forward_s",
    "model.mlp_backward": "model.mlp_backward_s",
    "weather_effect.accumulate_with_grad": "weather_effect.accumulate_with_grad_s",
    "model.kernel_matrix_with_grad": "model.kernel_matrix_with_grad_s",
    "train.block_step": "train.block_self_s",
    "train.update": "train.update_s",
    "train.full_pass": "train.full_pass_s",
    "simulate.simulate_paths": "simulate.simulate_paths_s",
    "simulate.apply_scenario": "simulate.apply_scenario_s",
    "weather_effect.accumulate": "weather_effect.accumulate_s",
    "ingest.aggregate_outages": "ingest.aggregate_outages_s",
    "ingest.aggregate_weather": "ingest.aggregate_weather_s",
    "ingest.save_dataset": "ingest.save_dataset_s",
    "ingest.load_dataset": "ingest.load_dataset_s",
    "analyze.predict_ahead": "analyze.predict_ahead_s",
    "analyze.lambda_at": "analyze.lambda_at_s",
    "analyze.predict_in_sample": "analyze.predict_in_sample_s",
    "analyze.write_predictions_csv": "analyze.write_predictions_csv_s",
    "analyze.decompose": "analyze.decompose_s",
    "analyze.fit_sigmoid": "analyze.fit_sigmoid_s",
    "model.kernel_matrix": "model.kernel_matrix_s",
    "model.intensity_field": "model.intensity_field_s",
    "model.indirect_field": "model.indirect_field_s",
    "cli.import": "cli.import_s",
    **{f"cli.{c.replace('-', '_')}": f"cli.{c.replace('-', '_')}_self_s" for c in COMMAND_METRIC},
}
# Counters the tracer keeps; each is reported under its own name.
COUNTERS = (
    "topology.enforce_no_loops.calls",
    "model.mlp_flops",
    "simulate.rollouts",
    "simulate.slot_steps",
    "weather_effect.accumulate.calls",
    "ingest.rows_parsed",
    "container.bytes_written",
    "container.bytes_read",
    "analyze.lambda_at.calls",
    "analyze.predictions_rows",
)
# Span label -> (median metric, tail metric) over per-call durations in ms.
PER_CALL = {
    "train.block_step": ("train.block_step_ms", "train.block_step_tail_ms"),
    "topology.enforce_no_loops": ("topology.enforce_no_loops_ms", "topology.enforce_no_loops_tail_ms"),
    "analyze.lambda_at": ("analyze.lambda_at_ms", "analyze.lambda_at_tail_ms"),
}


def trace_values(it: Iteration) -> tuple[dict, dict]:
    """(per-iteration metrics, per-call samples in ms) from one traced iteration."""
    values: dict[str, float] = {}
    calls: dict[str, list] = {}
    startup = 0.0
    for name, trace in it.traces.items():
        spans = trace["spans"]
        self_time = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                self_time[parent] -= end - start
        for (label, start, end, _), own in zip(spans, self_time):
            metric = SELF_TIME.get(label)
            if metric:
                values[metric] = values.get(metric, 0.0) + own
            calls.setdefault(label, []).append(1e3 * (end - start))
        child = it.children[name]
        root_start, root_end = spans[0][1], spans[0][2]
        startup += (root_start - child.start) + (child.end - root_end)
        for counter in COUNTERS:
            values[counter] = values.get(counter, 0) + trace["counters"].get(counter, 0)
    values["cli.startup_s"] = startup
    values["train.blocks"] = len(calls.get("train.block_step", []))
    values["train.full_pass_incl_s"] = sum(calls.get("train.full_pass", [])) / 1e3
    values["trace.wall_s"] = it.wall
    return values, calls


def layer_metrics(untraced: list[Iteration], traced: list[Iteration], rows_in: int, R: int) -> tuple[dict, dict]:
    """(every per-layer metric this benchmark knows, calls per span label).

    A layer the workload does not run reads 0.
    """
    per_it = []
    calls: dict[str, list] = {}
    for it in traced:
        values, c = trace_values(it)
        per_it.append(values)
        for label, samples in c.items():
            calls.setdefault(label, []).extend(samples)
    names = {*SELF_TIME.values(), *COUNTERS, "cli.startup_s", "train.blocks", "train.full_pass_incl_s", "trace.wall_s"}
    out = {name: median([v.get(name, 0.0) for v in per_it]) for name in names}
    for label, (med, tl) in PER_CALL.items():
        out[med] = median(calls.get(label, []))
        out[tl] = tail(calls.get(label, []))
    reps = [ms / R for ms in calls.get("simulate.simulate_paths", [])] if R else []
    out["simulate.rep_ms"] = median(reps)
    out["simulate.rep_tail_ms"] = tail(reps)
    out["ingest.rows_in"] = rows_in
    for name, metric in COMMAND_METRIC.items():
        out[f"cli.{metric}"] = median([it.children[name].seconds for it in untraced if name in it.children])
    out["trace.overhead_s"] = median([it.wall for it in traced]) - median([it.wall for it in untraced])
    return out, {label: len(samples) for label, samples in calls.items()}


# -- set-up ---------------------------------------------------------------------------


def calibrate(work: Path, deadline: float) -> float:
    """Seconds the fixed reference work (calibrate.py) takes right now."""
    child = run_child([sys.executable, str(HERE / "calibrate.py")], work / "calibrate.log", deadline)
    if child.rc != 0:
        raise RuntimeError(f"calibration failed (exit {child.rc}):\n{(work / 'calibrate.log').read_text()}")
    return child.seconds


def setup(workload: str, seed: int, work: Path, deadline: float) -> tuple[list[float], list[float], dict]:
    """Generate the inputs SETUP_REPS times, each in its own process, each after a calibration."""
    times, calibrations = [], []
    log = work / "setup.log"
    for rep in range(SETUP_REPS):
        calibrations.append(calibrate(work, deadline))
        argv = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)]
        child = run_child(argv, log, deadline)
        if child.rc != 0:
            raise RuntimeError(f"input generation failed (exit {child.rc}):\n{log.read_text()}")
        times.append(child.seconds)
    summary = json.loads(log.read_text().strip().splitlines()[-1])
    return times, calibrations, summary


VERSIONS = """import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))"""


def environment(workload: str, seed: int) -> dict:
    # Asked of a child process, so numpy never loads into this one (see checks.py).
    versions = subprocess.run([sys.executable, "-c", VERSIONS], env=child_env(), capture_output=True, text=True,
                              check=True, timeout=60)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **json.loads(versions.stdout),
        "threads": THREADS,
        "workload": workload,
        "sizes": SIZES[workload],
        "seed": seed,
    }


# -- one run of one workload ------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first failures kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


def content_checks(workload: str, work: Path, deadline: float) -> list:
    """[(name, passed, detail)] from checks.py, run in a process of its own."""
    log = work / "checks.log"
    child = run_child([sys.executable, str(HERE / "checks.py"), workload, str(work)], log, deadline)
    if child.rc != 0:
        return [("checks.process", False, f"exit {child.rc}: {log.read_text()[-2000:]}")]
    return json.loads(log.read_text().splitlines()[-1])


def check_iteration(workload: str, work: Path, it: Iteration, reference: dict | None, tally: Tally,
                    deadline: float) -> dict:
    """Exit codes, content checks (first clean iteration) and byte identity."""
    for name, child in it.children.items():
        log = work / f"{name}.log"
        tally.add(f"{name}.exit", child.rc == 0, f"exit {child.rc}: {log.read_text()[-2000:]}")
    if any(c.rc != 0 for c in it.children.values()):
        return reference
    artifacts = digest(work / "out")
    if reference is None:
        for name, ok, detail in content_checks(workload, work, deadline):
            tally.add(name, ok, detail)
        return artifacts
    changed = sorted(k for k in set(artifacts) | set(reference) if artifacts.get(k) != reference.get(k))
    tally.add("artifacts.byte_identical", not changed, f"differ from the first iteration: {changed}")
    return reference


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, setup_calibrations, summary = setup(workload, seed, work, deadline)
        tally = Tally()
        untraced: list[Iteration] = []
        traced: list[Iteration] = []
        reference = None
        loop_start = time.monotonic()
        durations = []
        while True:
            want_traced = trace and len(traced) < len(untraced)
            it_start = time.monotonic()
            it = run_iteration(workload, work, want_traced, deadline)
            (traced if want_traced else untraced).append(it)
            reference = check_iteration(workload, work, it, reference, tally, deadline)
            now = time.monotonic()
            durations.append(now - it_start)
            if trace and not traced:
                continue  # a traced run needs at least one traced iteration
            typical = median(durations)
            if now - loop_start + typical > seconds or now + 2 * typical > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "setup_times": setup_times,
        "setup_calibrations": setup_calibrations,
        "summary": summary,
        "tally": tally,
        "untraced": untraced,
        "traced": traced,
        "elapsed": time.monotonic() - start,
    }


def end_to_end_metrics(res: dict) -> dict:
    untraced = res["untraced"]
    commands = {}
    for name, metric in COMMAND_METRIC.items():
        times = [it.children[name].seconds for it in untraced if name in it.children]
        if times:
            commands[metric] = median(times)
    setup_raw, wall_raw = median(res["setup_times"]), sum(commands.values())
    setup_cal, wall_cal = median(res["setup_calibrations"]), median([it.calibration for it in untraced])
    return {
        "setup_s": setup_raw * CALIBRATION_REF_S / setup_cal,
        "wall_s": wall_raw * CALIBRATION_REF_S / wall_cal,
        "peak_rss_mib": median([it.rss_mib for it in untraced]),
        "fail_ratio": res["tally"].failed / res["tally"].attempted,
        "setup_raw_s": setup_raw,
        "wall_raw_s": wall_raw,
        "calibration_s": wall_cal,
        **commands,
    }


def summarise(res: dict, spec: dict, seed: int, trace: bool) -> tuple[dict, list[str], dict]:
    """(metrics for the result line, human-readable lines, environment record)."""
    workload, tally = res["workload"], res["tally"]
    untraced, traced = res["untraced"], res["traced"]
    e2e = end_to_end_metrics(res)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"workload {workload}: {len(untraced)} untraced" + (f" + {len(traced)} traced" if trace else "") +
             f" iterations, closed loop, 1 caller, {res['elapsed']:.1f} s"]
    notes = {
        "setup_s": f"median of {len(res['setup_times'])}, at the reference speed",
        "wall_s": f"sum of per-command medians of {len(untraced)}, at the reference speed",
        "fail_ratio": f"{tally.failed} failed / {tally.attempted} attempted",
        "setup_raw_s": "as measured",
        "wall_raw_s": "as measured",
        "calibration_s": f"median of {len(untraced)}; the reference speed is {CALIBRATION_REF_S} s",
    }
    for name, value in e2e.items():
        unit = "ratio" if name == "fail_ratio" else units.get(name, "s")
        lines.append(f"  {name:<16} {value:12.6g} {unit:<6} {notes.get(name, f'median of {len(untraced)}')}")
    rec = environment(workload, seed)
    rec["iterations"] = {"untraced": len(untraced), "traced": len(traced)}
    rec["setup_reps"] = len(res["setup_times"])
    rec["command_samples_s"] = {name: [it.children[name].seconds for it in untraced]
                                for name in COMMAND_METRIC if name in untraced[0].children}
    rec["end_to_end"] = e2e
    if trace:
        layers, calls = layer_metrics(untraced, traced, res["summary"].get("rows_in", 0), SIZES[workload].get("R", 0))
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        lines += [f"  {name:<42} {value:14.6g} {units[name]}" for name, value in metrics.items()]
        rec["tracing_overhead_s"] = layers["trace.overhead_s"]
        rec["tail_percentile"] = {label: 100.0 * (n - 10) / n if n >= 21 else None
                                  for label, n in calls.items() if label in PER_CALL}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    lines += [f"  FAILED {failure}" for failure in tally.failures[:10]]
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, lines, rec


# -- entry point ----------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gridshock" / "cli.py").is_file():
        print(f"error: no gridshock sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True, env=child_env())

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, trace)
        metrics, lines, rec = summarise(res, spec, args.seed, trace)
        print("\n".join(lines))
        print("record " + json.dumps(rec, sort_keys=True))
        results[workload] = (res["tally"], metrics)
    if len(results) == 1:
        (tally, metrics), = results.values()
    else:
        tally = Tally()
        metrics = {}
        for workload, (t, m) in results.items():
            tally.attempted += t.attempted
            tally.failed += t.failed
            metrics.update({f"{workload}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
