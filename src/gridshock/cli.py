"""Command-line front end: ingest -> fit -> predict/simulate/enhance/analyze.

One JSON config file drives everything; command-line flags override config
values, which override built-in defaults. The effective (merged) config is
echoed into the output directory next to the artifacts it produced, so any
result directory is self-describing and reruns are reproducible.

Exit codes: 0 ok, 2 validation/config problem, 3 numeric failure
(divergence, undefined statistic), 4 file/format problem.

`--validate-only` reads the command's settings and inputs as the command
would (`ingest`'s CSVs and grid, whole dataset and model containers, `fit`'s
candidate graph, `analyze`'s variable names), then stops before computing:
it exits with the code and message the run would give. A config value of
the wrong type or out of its range, NaN and infinities included, exits 2.

`--threads N` pins the numeric thread pools; it must act before numpy is
first imported, which is why this module and the package root import the
numeric stack lazily. Artifacts are byte-stable at a fixed thread count;
a few BLAS reductions (the response-curve fit in `analyze`) round
differently across thread counts, so pinning is what makes reruns on
machines with different core counts reproduce them.

Each flag's argparse `dest` is the (dotted) config key it overrides, so the
parser is the one table of flag -> key; `--seed` (two keys) and the sweep
flags are the only flags applied by hand.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

from .errors import COUNT, INTEGER, INTEGERS, NUMBER, OBJECT, POSITIVE, TEXT, TEXTS, at_least, checked, one_of
from .errors import AGGREGATIONS, BASELINES, OPTIMIZERS, SWEEP_MODES
from .errors import FileFormatError, InsufficientDataError, NumericError, ValidationError, read_json_object

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DEFAULTS = {
    "units_csv": None,
    "outages_csv": None,
    "weather_csv": None,
    "dataset": None,  # dataset file path (output of ingest, input elsewhere)
    "model": None,  # model file path (output of fit, input elsewhere)
    "output_dir": "out",
    "grid": {"start": "auto", "slot_seconds": 10800, "num_slots": "auto"},
    "aggregation": "mean",
    "graph": {"k_neighbors": 8, "max_km": 100.0},
    "fit": {
        "step_size": 0.01,
        "batch_slots": 32,
        "max_epochs": 200,
        "tol": 1e-6,
        "seed": 0,
        "optimizer": "adaptive-moments",
        "hidden_sizes": [32, 16],
        "window_slots": 24,
        "trig_window": 40,
        "eps": 1e-3,
    },
    "sim": {
        "replications": 1000,
        "seed": 0,
        "teacher_forced_until": 0,
        "baseline": "simulated_total",
    },
    "predict": {"horizon": 1},
    "analyze": {"sigmoid_variables": [], "zero_run_threshold": 2},
    "scenario": None,  # scenario JSON path for `enhance`
    "sweep": None,  # {"mode": "edges"|"margins", "axis1": [...], "axis2": [...]}
}


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")  # what `--threads N` sets to N


def _deep_merge(base: dict, override: dict, path="") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            out[key] = _deep_merge(base[key], checked(value, OBJECT, f"config section {where!r}"), where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def effective_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if args.config:
        cfg = _deep_merge(cfg, read_json_object(args.config, "config"))
    overrides = {}

    def put(dotted, value):
        node = overrides
        keys = dotted.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value

    for dest, value in vars(args).items():
        if value is not None and ("." in dest or dest in DEFAULTS):
            put(dest, value)
    if args.seed is not None:
        put("fit.seed", args.seed)
        put("sim.seed", args.seed)
    cfg = _deep_merge(cfg, overrides)
    sweep = {key: getattr(args, f"sweep_{key}", None) for key in ("mode", "axis1", "axis2")}
    if any(value is not None for value in sweep.values()):
        base = cfg["sweep"] or {"mode": "edges", "axis1": [], "axis2": []}
        cfg["sweep"] = {**base, **{key: value for key, value in sweep.items() if value is not None}}
    return cfg


WIDTHS = (lambda x: INTEGERS[0](x) and min(x, default=1) >= 1, "a list of integers >= 1")
TIMESTAMP = (TEXT[0], "an ISO timestamp")
SWEEP = (lambda x: isinstance(x, dict) and set(x) <= {"mode", "axis1", "axis2"},
         "an object with keys mode, axis1 and axis2")

# The kinds (see gridshock.errors) of each config key `_setting` reads, checked
# in order: its type, then its range. WORDS are the words a key takes
# besides, returned as they are.
SETTING_TYPES = {
    "aggregation": (one_of(AGGREGATIONS),),
    "grid.start": (TIMESTAMP,),
    "grid.slot_seconds": (INTEGER, at_least(1)),
    "grid.num_slots": (INTEGER, at_least(2)),
    "graph.k_neighbors": (INTEGER, at_least(1)),
    "graph.max_km": (NUMBER, POSITIVE),
    "fit.step_size": (NUMBER, POSITIVE),
    "fit.batch_slots": (INTEGER, at_least(1)),
    "fit.max_epochs": (INTEGER, COUNT),
    "fit.tol": (NUMBER, POSITIVE),
    "fit.seed": (INTEGER, COUNT),
    "fit.optimizer": (one_of(OPTIMIZERS),),
    "fit.hidden_sizes": (INTEGERS, WIDTHS),
    "fit.window_slots": (INTEGER, at_least(1)),
    "fit.trig_window": (INTEGER, at_least(1)),
    "fit.eps": (NUMBER, POSITIVE),
    "sim.replications": (INTEGER, at_least(1)),
    "sim.seed": (INTEGER, COUNT),
    "sim.teacher_forced_until": (INTEGER, COUNT),
    "sim.baseline": (one_of(BASELINES),),
    "predict.horizon": (INTEGER, at_least(1)),
    "analyze.sigmoid_variables": (TEXTS,),
    "analyze.zero_run_threshold": (INTEGER, at_least(1)),
}
WORDS = {"grid.start": ("auto",), "grid.num_slots": ("auto",), "fit.batch_slots": ("full", None)}
CASTS = {INTEGER: int, NUMBER: float, INTEGERS: lambda v: tuple(map(int, v))}  # by type; other values as they are
# The settings each command reads: `main` reads them, through `_setting`,
# before the command or `--validate-only` reads anything else.
COMMAND_SETTINGS = {
    "ingest": ("grid.start", "grid.slot_seconds", "grid.num_slots", "aggregation"),
    "fit": ("fit.step_size", "fit.batch_slots", "fit.max_epochs", "fit.tol", "fit.seed", "fit.optimizer",
            "fit.hidden_sizes", "fit.window_slots", "fit.trig_window", "fit.eps", "graph.k_neighbors", "graph.max_km"),
    "predict": ("predict.horizon",),
    "simulate": ("sim.replications", "sim.seed", "sim.teacher_forced_until"),
    "enhance": ("sim.replications", "sim.seed", "sim.baseline"),
    "analyze": ("analyze.zero_run_threshold", "analyze.sigmoid_variables"),
    "export-map": (),
}


def _setting(cfg: dict, key: str):
    """The value of the dotted config `key`, of each of its SETTING_TYPES
    kinds, or one of its WORDS. A value of another type, bools included, is a
    ValidationError, never a cast, so 2.7 replications is an error, not 2; so
    is a value out of range, such as 0 replications."""
    kinds = SETTING_TYPES[key]
    value = cfg
    for part in key.split("."):
        value = value[part]
    if value in WORDS.get(key, ()):
        return value
    if key == "grid.num_slots" and isinstance(value, str) and value.isascii() and value.isdigit():
        value = int(value)  # `--num-slots` hands over text
    for kind in kinds:
        checked(value, kind, f"config key {key!r}")
    if kinds[0] is TIMESTAMP:
        from .ingest import parse_timestamp

        return parse_timestamp(value)
    return CASTS.get(kinds[0], lambda v: v)(value)


def _output_dir(cfg: dict) -> Path:
    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _echo_config(cfg: dict, command: str) -> None:
    payload = {"command": command, "config": cfg}
    with open(_output_dir(cfg) / "effective_config.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(cfg: dict, key: str, hint: str):
    value = cfg.get(key)
    if not value:
        raise ValidationError(f"config key {key!r} is required for this command ({hint})")
    return value


def _require_file(path, kind: str):
    if not Path(path).is_file():
        raise ValidationError(f"{kind} file not found: {path}")
    return Path(path)


def _raw_csvs(cfg: dict) -> dict:
    """The units, outages and weather CSV paths `ingest` reads, by kind."""
    return {kind: _require_file(_require(cfg, f"{kind}_csv", f"--{kind}"), f"{kind} CSV")
            for kind in ("units", "outages", "weather")}


def _load_dataset(cfg: dict):
    from .ingest import load_dataset

    return load_dataset(_require_file(_require(cfg, "dataset", "--dataset"), "dataset"))


def _load_inputs(cfg: dict):
    """The dataset and the fitted model every command after `fit` reads."""
    from .model import deserialize

    return _load_dataset(cfg), deserialize(_require_file(_require(cfg, "model", "--model"), "model"))


# -- ingest -------------------------------------------------------------------


def _resolve_grid(s: dict, *feeds):
    """Build the TimeGrid, deriving span from the feeds' timestamps when set to "auto"."""
    from .ingest import TimeGrid

    slot_seconds, start, num_slots = s["grid.slot_seconds"], s["grid.start"], s["grid.num_slots"]
    if start == "auto" or num_slots == "auto":
        stamps = [ts for feed in feeds for ts in feed.stamps]
        if not stamps:
            raise InsufficientDataError("cannot derive the time grid: no data rows")
        ts_min, ts_max = min(stamps), max(stamps)
        if start == "auto":
            start = ts_min.replace(hour=0, minute=0, second=0, microsecond=0)
        if num_slots == "auto":
            span = (ts_max - start).total_seconds()
            num_slots = max(int(span // slot_seconds) + 1, 2)
    return TimeGrid(start=start, slot_seconds=slot_seconds, num_slots=num_slots)


def _read_feeds(cfg: dict, s: dict):
    """The units, the weather variable names, the outage and weather feeds as
    columns (by kind), and the grid: everything `ingest` reads, each file
    parsed once."""
    from .ingest import FeedColumns, load_outage_rows, load_units, load_weather_rows

    paths = _raw_csvs(cfg)
    units = load_units(paths["units"])
    variables, weather_rows = load_weather_rows(paths["weather"], units)
    outages = FeedColumns.from_rows(load_outage_rows(paths["outages"], units))
    weather = FeedColumns.from_rows(weather_rows, width=len(variables))
    return units, variables, {"outages": outages, "weather": weather}, _resolve_grid(s, outages, weather)


def cmd_ingest(cfg: dict, s: dict, args) -> int:
    from . import ingest

    units, variables, feeds, grid = _read_feeds(cfg, s)
    # popped, so that each feed's columns are freed once aggregated
    outages = ingest.aggregate_outages(feeds.pop("outages"), units, grid, method=s["aggregation"])
    weather = ingest.aggregate_weather(feeds.pop("weather"), units, grid, variables)
    ds = ingest.Dataset(units=units, grid=grid, outages=outages, weather=weather)
    out_dir = _output_dir(cfg)
    ds_path = Path(cfg["dataset"] or out_dir / "dataset.gshk")
    ingest.save_dataset(ds, ds_path)
    gaps = ingest.gap_report(ds)
    print(f"K={ds.num_units} T={ds.num_slots} M={ds.num_variables}")
    print(
        f"gap cells: outages {gaps['outage_gap_cells']}/{gaps['total_cells']}, "
        f"weather {gaps['weather_gap_cells']}/{gaps['total_cells']}"
    )
    skipped = getattr(outages, "skipped_rows", 0) + getattr(weather, "skipped_rows", 0)
    if skipped:
        print(f"skipped {skipped} rows outside the grid span")
    print(f"wrote {ds_path}")
    return EXIT_OK


# -- fit ----------------------------------------------------------------------


def _fit_config(s: dict):
    """The FitConfig of the settings: each `fit.` key is the field of that name."""
    from .train import FitConfig

    fit = {key.removeprefix("fit."): value for key, value in s.items() if key.startswith("fit.")}
    return FitConfig(**{**fit, "batch_slots": None if fit["batch_slots"] == "full" else fit["batch_slots"]})


def _candidate_graph(ds, s: dict):
    from .topology import build_candidate_graph

    return build_candidate_graph(ds.units, k_neighbors=s["graph.k_neighbors"], max_km=s["graph.max_km"])


def cmd_fit(cfg: dict, s: dict, args) -> int:
    import numpy as np

    from . import model, train
    from .analyze import write_csv

    fit_cfg = _fit_config(s)
    ds = _load_dataset(cfg)
    graph = _candidate_graph(ds, s)
    if args.check_gradients:
        params0 = train.initialize(ds, graph, seed=fit_cfg.seed, cfg=fit_cfg)
        worst = train.fd_audit(params0, ds, max_coords=40)
        print(f"gradient audit: max rel. err {worst:.3e} over 40 sampled coordinates")
    params, report = train.fit(ds, graph, fit_cfg)
    out_dir = _output_dir(cfg)
    model_path = Path(cfg["model"] or out_dir / "model.gshk")
    model.serialize(params, model_path)
    write_csv(out_dir / "fit_report.csv", ["epoch", "loglik", "grad_norm", "projections"], report.records())
    params.check_invariants()
    w = params.alpha.w
    kept = w[w > 0]  # the no-loop projection stores the losing direction of a pair as 0
    print(
        f"fit done: epochs={report.epochs_run} final_loglik={report.final_loglik:.6f} "
        f"converged={report.converged} seconds={report.seconds:.1f}"
    )
    print(
        "constraints ok: "
        f"min_alpha={kept.min(initial=np.inf):.3g} min_beta={params.beta.min():.3g} "
        f"min_gamma={params.gamma.min():.3g} min_omega={params.decay.omega.min():.3g} "
        f"loops={int(params.alpha.loops().sum())} active_edges={kept.size}"
    )
    print(f"wrote {model_path}")
    return EXIT_OK


# -- predict ------------------------------------------------------------------


def cmd_predict(cfg: dict, s: dict, args) -> int:
    from . import analyze, model

    ds, params = _load_inputs(cfg)
    out_dir = _output_dir(cfg)
    direct = model.direct_from_weather(params, ds.weather)  # one weather term for both predictions
    in_sample = analyze.predict_in_sample(params, ds, direct=direct)
    analyze.write_predictions_csv(out_dir / "predictions_insample.csv", in_sample)
    horizon = s["predict.horizon"]
    ahead = analyze.predict_ahead(params, ds, horizon_slots=horizon, direct=direct)
    analyze.write_predictions_csv(out_dir / "predictions_ahead.csv", ahead)
    print(f"in-sample: MAE={in_sample.mae:.4f} RMSE={in_sample.rmse:.4f}")
    print(
        f"{horizon}-slot ahead: MAE={ahead.mae:.4f} RMSE={ahead.rmse:.4f} "
        f"persistence_MAE={ahead.persistence_mae:.4f} beats_persistence={ahead.beats_persistence}"
    )
    return EXIT_OK


# -- simulate -----------------------------------------------------------------


def cmd_simulate(cfg: dict, s: dict, args) -> int:
    from . import simulate
    from .analyze import write_csv

    ds, params = _load_inputs(cfg)
    cutoff = s["sim.teacher_forced_until"]
    result = simulate.simulate_paths(
        params,
        ds.weather,
        ds.grid,
        R=s["sim.replications"],
        seed=s["sim.seed"],
        teacher_forced_until=cutoff,
        observed=ds.outages if cutoff > 0 else None,
    )
    out_dir = _output_dir(cfg)
    write_csv(out_dir / "simulation_units.csv", ["unit", "total_mean"], enumerate(result.unit_total_mean))
    quantiles = result.total_quantiles()
    write_csv(
        out_dir / "simulation_totals.csv",
        ["metric", "value"],
        [
            ["mean_total", result.mean_total],
            ["std_err", result.total_std_err],
            *([f"q{int(q * 100):02d}", quantiles[q]] for q in sorted(quantiles)),
            ["replications", result.replications],
            ["seed", result.seed],
        ],
    )
    print(
        f"simulated R={result.replications}: mean_total={result.mean_total:.2f} "
        f"(se {result.total_std_err:.2f}), observed_total={int(ds.outages.counts.sum())}"
    )
    return EXIT_OK


# -- enhance ------------------------------------------------------------------


def _enhance_plan(cfg: dict):
    """The scenario file's Scenario (if any), the sweep mode (default "edges")
    and the sweep's cells: `enhance` and `enhance --validate-only` check them here."""
    from .simulate import load_scenario, sweep_scenarios

    scenarios = [load_scenario(_require_file(cfg["scenario"], "scenario"))] if cfg["scenario"] else []
    sw = cfg["sweep"]
    if sw is not None:
        checked(sw, SWEEP, "sweep")
    mode = (sw or {}).get("mode", "edges")
    cells = [] if sw is None else sweep_scenarios(sw.get("axis1"), sw.get("axis2"), mode)
    if not scenarios and not cells:
        raise ValidationError("enhance needs a scenario file (--scenario) and/or a sweep grid in the config")
    return scenarios, mode, cells


def cmd_enhance(cfg: dict, s: dict, args) -> int:
    from . import analyze, simulate

    ds, params = _load_inputs(cfg)
    R = s["sim.replications"]
    scenarios, mode, cells = _enhance_plan(cfg)
    # One call, so the baseline and every repeated parameter set are simulated once.
    results = simulate.outage_reductions(
        params,
        scenarios + [scen for _, _, scen in cells],
        ds.weather,
        ds.grid,
        R,
        s["sim.seed"],
        baseline=s["sim.baseline"],
        observed=ds.outages,
    )
    out_dir = _output_dir(cfg)
    if scenarios:
        res = results[0]
        analyze.write_csv(
            out_dir / "enhancement.csv",
            ["reduction_pct", "std_err_pct", "baseline_total", "scenario_total", "replications", "seed"],
            [[res.reduction_pct, res.std_err_pct, res.baseline_total, res.scenario_total, res.replications, res.seed]],
        )
        print(f"scenario reduction: {res.reduction_pct:.2f}% +- {res.std_err_pct:.2f}% (R={R})")
    if cells:
        rows = [
            (a1, a2, res.reduction_pct, res.std_err_pct) for (a1, a2, _), res in zip(cells, results[len(scenarios) :])
        ]
        names = ("top_units", "edges_per_unit") if mode == "edges" else ("margin_units", "recovery_units")
        analyze.write_sweep_csv(out_dir / "sweep.csv", rows, axis1_name=names[0], axis2_name=names[1])
        print(f"sweep: {len(rows)} cells written")
    return EXIT_OK


# -- analyze ------------------------------------------------------------------


def _sigmoid_variables(ds, s: dict) -> list:
    """The index of each weather variable `analyze` fits a response curve to."""
    from .analyze import variable_index

    return [variable_index(ds.weather, var) for var in s["analyze.sigmoid_variables"]]


def cmd_analyze(cfg: dict, s: dict, args) -> int:
    from . import analyze

    ds, params = _load_inputs(cfg)
    variables = _sigmoid_variables(ds, s)
    out_dir = _output_dir(cfg)
    decomp = analyze.decompose(params, ds)
    analyze.write_decomposition_csv(out_dir / "decomposition.csv", decomp)
    episodes = analyze.restoration_durations(ds, zero_run_threshold=s["analyze.zero_run_threshold"])
    analyze.write_episodes_csv(out_dir / "episodes.csv", episodes)
    summary = analyze.episode_duration_summary(episodes)
    fits = [analyze.fit_sigmoid(ds, m, cfg=params.decay, population=None) for m in variables]
    if fits:
        analyze.write_sigmoid_csv(out_dir / "sigmoid.csv", fits)
    print(
        f"decomposition: direct share {decomp.direct_share:.3f}, "
        f"cascade share {decomp.indirect_share:.3f}"
    )
    print(
        f"episodes: {summary['episodes']} total, {summary['within_share'] * 100 if summary['episodes'] else 0:.1f}% "
        f"within {2 * ds.grid.slot_seconds // 3600} h"
    )
    for f in fits:
        print(f"sigmoid {f.variable}: a={f.a:.4g} c={f.c:.4g} L={f.L:.4g} rmse={f.rmse:.4g} (dtc={f.c:.4g})")
    return EXIT_OK


# -- export-map ---------------------------------------------------------------


def cmd_export_map(cfg: dict, s: dict, args) -> int:
    from . import topology

    ds, params = _load_inputs(cfg)
    path = _output_dir(cfg) / "propagation_map.csv"
    mass = topology.triggering_totals(params.alpha, ds.outages, params)
    n = topology.export_propagation_map(params.alpha, ds.outages, params, path, mass=mass)
    scores = topology.criticality_scores(params.alpha, ds.outages, params, mass=mass)
    top = sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:5]
    print(f"wrote {n} edges to {path}")
    for j in top:
        if scores[j] > 0:
            print(f"critical unit {j} ({ds.units[j].unit_id}): exported intensity {scores[j]:.2f}")
    return EXIT_OK


# -- validate-only ------------------------------------------------------------


def validate_only(cfg: dict, s: dict, command: str) -> int:
    """Read `command`'s inputs as the command would, `main` having read its
    settings `s`, and stop before computing or writing anything."""
    if command == "ingest":
        _read_feeds(cfg, s)
    elif command == "fit":
        _fit_config(s)
        _candidate_graph(_load_dataset(cfg), s)
    else:
        ds, _ = _load_inputs(cfg)
        if command == "analyze":
            _sigmoid_variables(ds, s)
    if command == "enhance":
        _enhance_plan(cfg)
    print("validation ok")
    return EXIT_OK


# -- parser / dispatch --------------------------------------------------------


def int_list(text: str) -> list:
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    """Each flag that overrides a config value has that key as its `dest`."""
    parser = argparse.ArgumentParser(
        prog="gridshock",
        description="Estimate and analyze a graph-coupled Poisson model of weather-driven power outages.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--output-dir", help="directory for artifacts and reports")
    common.add_argument("--threads", metavar="N", help="pin numeric thread pools to N >= 1 (default: all cores)")
    common.add_argument("--seed", type=int, help="seed for fitting and simulation")
    common.add_argument(
        "--validate-only",
        action="store_true",
        help="read the settings and inputs as the command would (whole files), then exit without computing",
    )
    # the inputs of every command after fit
    fitted = argparse.ArgumentParser(add_help=False, parents=[common])
    fitted.add_argument("--dataset")
    fitted.add_argument("--model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="aggregate raw CSVs onto the slot grid")
    p.add_argument("--units", dest="units_csv", help="units CSV (unit_id,lat,lon,total_customers)")
    p.add_argument("--outages", dest="outages_csv", help="outage samples CSV (unit_id,timestamp,customers_out)")
    p.add_argument("--weather", dest="weather_csv", help="weather samples CSV (unit_id,timestamp,<variables...>)")
    p.add_argument("--dataset", help="output dataset file")
    p.add_argument("--slot-seconds", type=int, dest="grid.slot_seconds")
    p.add_argument("--grid-start", dest="grid.start", help="ISO timestamp or 'auto'")
    p.add_argument("--num-slots", dest="grid.num_slots", help="slot count or 'auto'")
    p.add_argument("--aggregation", choices=AGGREGATIONS)

    p = sub.add_parser("fit", parents=[common], help="estimate model parameters")
    p.add_argument("--dataset", help="dataset file from ingest")
    p.add_argument("--model", help="output model file")
    p.add_argument("--epochs", type=int, dest="fit.max_epochs")
    p.add_argument("--step-size", type=float, dest="fit.step_size")
    p.add_argument("--batch-slots", type=int, dest="fit.batch_slots")
    p.add_argument("--optimizer", choices=OPTIMIZERS, dest="fit.optimizer")
    p.add_argument("--k-neighbors", type=int, dest="graph.k_neighbors")
    p.add_argument("--max-km", type=float, dest="graph.max_km")
    p.add_argument(
        "--check-gradients",
        action="store_true",
        help="audit analytic gradients against finite differences before fitting",
    )

    p = sub.add_parser("predict", parents=[fitted], help="teacher-forced and h-slot-ahead prediction")
    p.add_argument("--horizon", type=int, dest="predict.horizon")

    p = sub.add_parser("simulate", parents=[fitted], help="Monte Carlo rollout of the fitted process")
    p.add_argument("--replications", type=int, dest="sim.replications")
    p.add_argument("--teacher-forced-until", type=int, dest="sim.teacher_forced_until")

    p = sub.add_parser("enhance", parents=[fitted], help="what-if scenario evaluation / sweep")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--replications", type=int, dest="sim.replications")
    p.add_argument("--baseline", choices=BASELINES, dest="sim.baseline")
    p.add_argument("--sweep-mode", choices=SWEEP_MODES)
    p.add_argument("--sweep-units", type=int_list, dest="sweep_axis1", metavar="LIST", help="comma list for axis 1")
    p.add_argument("--sweep-edges", type=int_list, dest="sweep_axis2", metavar="LIST", help="comma list for axis 2")

    p = sub.add_parser("analyze", parents=[fitted], help="decomposition, episodes, sigmoid thresholds")
    p.add_argument("--sigmoid-variable", action="append", dest="analyze.sigmoid_variables", help="repeatable")
    p.add_argument("--zero-run-threshold", type=int, dest="analyze.zero_run_threshold")

    sub.add_parser("export-map", parents=[fitted], help="edge-level propagation table")
    return parser


COMMANDS = {
    "ingest": cmd_ingest,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "enhance": cmd_enhance,
    "analyze": cmd_analyze,
    "export-map": cmd_export_map,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --threads must act before numpy is imported anywhere in the process;
    # parsing imports none, and argparse reads `--threads N` and `--threads=N` alike.
    if args.threads is not None:
        if not args.threads.isdigit() or int(args.threads) < 1:
            print(f"error: --threads expects an integer >= 1, got {args.threads!r}", file=sys.stderr)
            return EXIT_VALIDATION
        os.environ.update(dict.fromkeys(THREAD_VARS, str(int(args.threads))))

    try:
        cfg = effective_config(args)
        settings = {key: _setting(cfg, key) for key in COMMAND_SETTINGS[args.command]}
        if args.validate_only:
            return validate_only(cfg, settings, args.command)
        rc = COMMANDS[args.command](cfg, settings, args)
        _echo_config(cfg, args.command)  # only a finished command's directory describes its run
        return rc
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileFormatError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
