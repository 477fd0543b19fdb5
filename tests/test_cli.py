import argparse
import csv
import dataclasses
import gc
import inspect
import json
import math
import os
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from oracles import dense_alpha
from synth import make_weather, random_small_params, rewrite_container_header, wrap_dataset
from gridshock import analyze, cli, ingest, model, simulate, topology, train
from gridshock.container import read_container, write_container
from gridshock.errors import INTEGER, INTEGERS, NUMBER
from gridshock.ingest import load_dataset
from gridshock.model import deserialize
from gridshock.train import FitConfig
from gridshock.weather_effect import CHUNK_SLOTS

HOURS = 24
UNITS = 4
EDGES = UNITS * (UNITS - 1)  # the demo fit's candidate graph: 3 neighbours of each of the 4 units


def _write_demo_csvs(root, rng):
    """Four towns, one storm day at hourly resolution, integer outage counts."""
    units = root / "units.csv"
    with open(units, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["unit_id", "lat", "lon", "total_customers"])
        for i in range(UNITS):
            wr.writerow([f"town{i}", 42.30 + 0.05 * i, -71.10 - 0.03 * i, 15000 + 1000 * i])

    wind = np.full((UNITS, HOURS), 3.0)
    for i in range(UNITS):
        wind[i, 8 + i : 16 + i] = 18.0  # storm passes through each town in turn
    wind += rng.normal(0.0, 0.4, wind.shape)
    precip = rng.uniform(0.0, 5.0, (UNITS, HOURS))

    weather = root / "weather.csv"
    with open(weather, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["unit_id", "timestamp", "wind_speed", "precip_rate"])
        for i in range(UNITS):
            for h in range(HOURS):
                if i == 2 and h == 5:
                    continue  # sensor gap; the loader carries the last value forward
                wr.writerow([f"town{i}", f"2023-06-01T{h:02d}:00:00Z", f"{wind[i, h]:.3f}", f"{precip[i, h]:.3f}"])

    outages = root / "outages.csv"
    with open(outages, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["unit_id", "timestamp", "customers_out"])
        for i in range(UNITS):
            for h in range(HOURS):
                lam = 0.2 + (2.5 if wind[i, h] > 10 else 0.0)
                n = int(rng.poisson(lam))
                wr.writerow([f"town{i}", f"2023-06-01T{h:02d}:30:00Z", n])
                if h == 10:  # second sample inside one slot exercises averaging
                    wr.writerow([f"town{i}", f"2023-06-01T{h:02d}:40:00Z", n])
    return units, outages, weather


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_demo")
    units, outages, weather = _write_demo_csvs(root, np.random.default_rng(42))
    out = root / "out"
    dataset = out / "dataset.gshk"
    model = out / "model.gshk"
    rc = cli.main(
        [
            "ingest",
            "--units", str(units),
            "--outages", str(outages),
            "--weather", str(weather),
            "--dataset", str(dataset),
            "--output-dir", str(out),
            "--slot-seconds", "3600",
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "fit",
            "--dataset", str(dataset),
            "--model", str(model),
            "--output-dir", str(out),
            "--epochs", "30",
            "--seed", "3",
            "--k-neighbors", "3",
        ]
    )
    assert rc == 0
    return {"root": root, "out": out, "dataset": dataset, "model": model,
            "units": units, "outages": outages, "weather": weather}


def test_ingest_artifacts(pipeline):
    ds = load_dataset(pipeline["dataset"])
    assert ds.num_units == UNITS
    assert ds.num_slots == HOURS
    assert ds.weather.variable_names == ["wind_speed", "precip_rate"]
    assert ds.outages.counts.max() > 0
    # the doubled sample at hour 10 averages to itself, so integer counts all ~ Poisson draws
    assert ds.outages.counts.dtype.kind == "i"


def test_fit_artifacts(pipeline):
    params = deserialize(pipeline["model"])
    params.check_invariants()
    with open(pipeline["out"] / "fit_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loglik", "minibatch_grad_norm", "projections"]
    assert len(rows) == 31  # header + one record per epoch
    lls = [float(r[1]) for r in rows[1:]]
    assert lls[-1] > lls[0]


def test_effective_config_echo(pipeline):
    payload = json.loads((pipeline["out"] / "effective_config.json").read_text())
    assert payload["command"] == "fit"
    cfg = payload["config"]
    assert cfg["fit"]["max_epochs"] == 30
    assert cfg["fit"]["seed"] == 3
    assert cfg["graph"]["k_neighbors"] == 3
    assert cfg["graph"]["max_km"] == 100.0  # untouched default survives the merge
    assert cfg["output_dir"] == str(pipeline["out"])


def test_predict_command(pipeline):
    out = pipeline["root"] / "pred"
    rc = cli.main(
        [
            "predict",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(out),
            "--horizon", "2",
        ]
    )
    assert rc == 0
    with open(out / "predictions_ahead.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert min(int(r[1]) for r in rows) == 2  # nothing predicted before the horizon
    assert (out / "predictions_insample.csv").is_file()


def test_simulate_command(pipeline):
    out = pipeline["root"] / "sim"
    rc = cli.main(
        [
            "simulate",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(out),
            "--replications", "50",
            "--seed", "11",
        ]
    )
    assert rc == 0
    with open(out / "simulation_units.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + UNITS
    with open(out / "simulation_totals.csv", newline="") as fh:
        metrics = dict((r[0], r[1]) for r in list(csv.reader(fh))[1:])
    assert float(metrics["mean_total"]) > 0
    assert metrics["replications"] == "50"
    assert set(metrics) >= {"mean_total", "std_err", "q05", "q50", "q95", "seed"}


def test_enhance_scenario_and_sweep(pipeline):
    params = deserialize(pipeline["model"])
    s, t = params.graph.edges[0]
    scen_path = pipeline["root"] / "scenario.json"
    scen_path.write_text(json.dumps({"edge_reweights": [[s, t, 0.0]]}))
    out = pipeline["root"] / "enh"
    rc = cli.main(
        [
            "enhance",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(out),
            "--scenario", str(scen_path),
            "--replications", "40",
            "--seed", "2",
            "--sweep-units", "0,1",
            "--sweep-edges", "0,1",
        ]
    )
    assert rc == 0
    with open(out / "enhancement.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "reduction_pct" and len(rows) == 2
    with open(out / "sweep.csv", newline="") as fh:
        sweep_rows = list(csv.reader(fh))
    assert sweep_rows[0] == ["top_units", "edges_per_unit", "reduction_pct", "std_err"]
    assert len(sweep_rows) == 5
    identity = [r for r in sweep_rows[1:] if r[0] == "0" and r[1] == "0"]
    assert identity and float(identity[0][2]) == 0.0


def test_enhance_simulates_each_distinct_parameter_set_once(pipeline, monkeypatch):
    params = deserialize(pipeline["model"])
    ds = load_dataset(pipeline["dataset"])
    s, t = next((s, t) for s, t in params.graph.edges if params.alpha.w[params.graph.index[s, t]] > 0)
    scen_path = pipeline["root"] / "scenario_once.json"
    scen_path.write_text(json.dumps({"edge_reweights": [[s, t, 0.0]]}))
    calls, rollout = [], simulate._rollout_totals

    def recording(sets, *args, **kwargs):
        calls.append((list(sets), rollout(sets, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(simulate, "_rollout_totals", recording)
    rc = cli.main(
        [
            "enhance",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(pipeline["root"] / "enh_once"),
            "--scenario", str(scen_path),
            "--replications", "10",
            "--seed", "2",
            "--sweep-units", "0,1,2",
            "--sweep-edges", "0,1",
        ]
    )
    assert rc == 0
    # one stacked rollout, stepping each distinct parameter set among the baseline,
    # the scenario and the six cells once; a baseline-plus-scenario pair per cell
    # would take 2 + 6 * 2
    applied = [params, simulate.apply_scenario(params, simulate.load_scenario(scen_path))]
    applied += [
        simulate.apply_scenario(params, scen, reference_history=ds.outages.counts)
        for _, _, scen in simulate.sweep_scenarios([0, 1, 2], [0, 1])
    ]
    distinct = {tuple(p.alpha.w.tolist() + p.gamma.tolist() + p.beta.tolist()) for p in applied}
    [(sets, totals)] = calls  # one stacked rollout
    assert len(sets) == len(distinct) < 2 + 6 * 2
    assert sets[0].alpha.w.tobytes() == params.alpha.w.tobytes()  # the baseline comes first
    for p, row in zip(sets, totals):  # each set's totals are those of its own fresh rollout
        fresh = simulate.simulate_paths(p, ds.weather, ds.grid, 10, 2)
        assert row.tobytes() == fresh.rep_totals.tobytes()


def test_enhance_needs_a_scenario_or_sweep(pipeline):
    rc = cli.main(
        [
            "enhance",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(pipeline["root"] / "enh_empty"),
        ]
    )
    assert rc == 2


def test_analyze_command(pipeline):
    out = pipeline["root"] / "ana"
    rc = cli.main(
        [
            "analyze",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(out),
            "--sigmoid-variable", "wind_speed",
        ]
    )
    assert rc == 0
    assert (out / "decomposition.csv").is_file()
    assert (out / "episodes.csv").is_file()
    with open(out / "sigmoid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "wind_speed"


@pytest.mark.parametrize("slot_seconds, hours", [(900, "0.5"), (2700, "1.5")])
def test_analyze_prints_the_episode_window_in_exact_hours(pipeline, tmp_path, capsys, slot_seconds, hours):
    dataset = tmp_path / "dataset.gshk"
    feeds = ["--units", str(pipeline["units"]), "--outages", str(pipeline["outages"]),
             "--weather", str(pipeline["weather"])]
    io = ["--dataset", str(dataset), "--output-dir", str(tmp_path)]
    assert cli.main(["ingest", *feeds, *io, "--slot-seconds", str(slot_seconds)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", *io, "--model", str(pipeline["model"])]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("episodes:"))
    assert line.endswith(f"within {hours} h")


def test_export_map_command(pipeline):
    out = pipeline["root"] / "map"
    rc = cli.main(
        [
            "export-map",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(out),
        ]
    )
    assert rc == 0
    with open(out / "propagation_map.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "target", "alpha", "attributed_outages"]
    assert len(rows) > 1


def test_export_map_runs_the_kernel_once(pipeline, monkeypatch, capsys):
    params = deserialize(pipeline["model"])
    ds = load_dataset(pipeline["dataset"])
    out = pipeline["root"] / "map_once"
    calls = []
    kernel_matrix = analyze.kernel_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel_matrix(*args, **kwargs)

    monkeypatch.setattr(analyze, "kernel_matrix", counting)
    rc = cli.main(
        [
            "export-map",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(out),
        ]
    )
    assert rc == 0
    assert len(calls) == 1
    printed = capsys.readouterr().out
    # the command writes the library's table and prints its scores
    reference = pipeline["root"] / "map_reference.csv"
    scores, edges = analyze.propagation(params, ds.outages.counts)
    analyze.write_propagation_csv(reference, edges)
    assert (out / "propagation_map.csv").read_bytes() == reference.read_bytes()
    for line in printed.splitlines()[1:]:
        j = int(line.split()[2])
        assert line.endswith(f"exported intensity {scores[j]:.2f}")


def test_predict_builds_the_weather_term_once(pipeline, monkeypatch):
    from gridshock import analyze

    params = deserialize(pipeline["model"])
    ds = load_dataset(pipeline["dataset"])
    out = pipeline["root"] / "pred_once"
    calls = []
    accumulate = model.accumulate

    def counting(*args, **kwargs):
        calls.append(1)
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(model, "accumulate", counting)
    rc = cli.main(
        [
            "predict",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(out),
            "--horizon", "3",
        ]
    )
    assert rc == 0
    assert len(calls) == 1
    # the shared weather term gives the files each prediction writes on its own
    analyze.write_predictions_csv(out / "insample_ref.csv", analyze.predict_in_sample(params, ds))
    analyze.write_predictions_csv(out / "ahead_ref.csv", analyze.predict_ahead(params, ds, horizon_slots=3))
    assert (out / "predictions_insample.csv").read_bytes() == (out / "insample_ref.csv").read_bytes()
    assert (out / "predictions_ahead.csv").read_bytes() == (out / "ahead_ref.csv").read_bytes()


def test_fit_constraints_line_matches_the_saved_model(pipeline, tmp_path, capsys):
    path = tmp_path / "model.gshk"
    rc = cli.main(
        [
            "fit",
            "--dataset", str(pipeline["dataset"]),
            "--model", str(path),
            "--output-dir", str(tmp_path),
            "--epochs", "3",
            "--seed", "3",
            "--k-neighbors", "3",
        ]
    )
    assert rc == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("constraints ok: "))
    printed = dict(field.split("=") for field in line.removeprefix("constraints ok: ").split())
    params = deserialize(path)
    alpha = dense_alpha(params.alpha)
    candidates = [alpha[t, s] for s, t in params.graph.edges]
    assert printed == {
        "min_alpha": f"{min(a for a in candidates if a > 0):.3g}",  # the weakest kept coupling
        "min_beta": f"{params.beta.min():.3g}",
        "min_gamma": f"{params.gamma.min():.3g}",
        "min_omega": f"{params.decay.omega.min():.3g}",
        "loops": str(sum(alpha[t, s] != 0 and alpha[s, t] != 0 for s, t in params.graph.edges)),
        "active_edges": str(sum(a > 0 for a in candidates)),
    }
    assert int(printed["active_edges"]) > 0
    assert float(printed["min_alpha"]) > 0


def test_fit_rerun_is_byte_identical(pipeline):
    out_a = pipeline["root"] / "fit_a"
    out_b = pipeline["root"] / "fit_b"
    for out in (out_a, out_b):
        rc = cli.main(
            [
                "fit",
                "--dataset", str(pipeline["dataset"]),
                "--model", str(out / "model.gshk"),
                "--output-dir", str(out),
                "--epochs", "12",
                "--seed", "3",
                "--k-neighbors", "3",
            ]
        )
        assert rc == 0
    assert (out_a / "model.gshk").read_bytes() == (out_b / "model.gshk").read_bytes()
    assert (out_a / "fit_report.csv").read_bytes() == (out_b / "fit_report.csv").read_bytes()


def test_commands_write_the_same_artifacts_over_many_blocks(tmp_path, monkeypatch):
    # five one-chunk blocks once BLOCK_CELLS is cut to K x 32 cells; one block otherwise
    K, T = 4, 4 * CHUNK_SLOTS + 11
    weather = make_weather(K, T, 2, seed=5, storm_plan={0: [(30, 70)], 1: [(90, 120)]})
    counts = np.random.default_rng(5).poisson(0.5, (K, T))
    dataset = tmp_path / "dataset.gshk"
    ingest.save_dataset(wrap_dataset(counts, weather, variable_names=["wind_speed", "precip_rate"]), dataset)
    (tmp_path / "scenario.json").write_text('{"gamma_top_units": 2}\n', encoding="utf-8")
    shared = tmp_path / "model.gshk"
    fit = ["fit", "--dataset", str(dataset), "--epochs", "6", "--seed", "2", "--k-neighbors", "2"]
    assert cli.main([*fit, "--model", str(shared), "--output-dir", str(tmp_path)]) == 0
    commands = {
        "predict": ["--horizon", "3"],
        "simulate": ["--replications", "40", "--seed", "7", "--teacher-forced-until", "50"],
        "enhance": ["--scenario", str(tmp_path / "scenario.json"), "--replications", "30", "--seed", "7"],
        "analyze": ["--sigmoid-variable", "wind_speed"],
    }

    def run_all(out):
        for command, extra in commands.items():
            assert cli.main([command, "--dataset", str(dataset), "--model", str(shared), "--output-dir", str(out),
                             *extra]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}

    one_block = run_all(tmp_path / "one")
    assert model.time_blocks(K, T) == [(0, T)]
    monkeypatch.setattr(model, "BLOCK_CELLS", K * CHUNK_SLOTS)
    assert len(model.time_blocks(K, T)) == 5
    assert run_all(tmp_path / "many") == one_block
    assert {"predictions_insample.csv", "predictions_ahead.csv", "simulation_units.csv", "enhancement.csv",
            "decomposition.csv", "sigmoid.csv"} <= set(one_block)
    # a many-block fit reports, for its best epoch, the log-likelihood its saved model scores
    out = tmp_path / "fit_many"
    assert cli.main([*fit, "--model", str(out / "model.gshk"), "--output-dir", str(out)]) == 0
    with open(out / "fit_report.csv", newline="") as fh:
        reported = [float(row["loglik"]) for row in csv.DictReader(fh)]
    saved = deserialize(out / "model.gshk")
    assert train.log_likelihood(saved, load_dataset(dataset)) == max(reported)


def test_config_file_with_flag_override(pipeline):
    out = pipeline["root"] / "cfg_run"
    cfg_path = pipeline["root"] / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "fit": {"max_epochs": 5, "hidden_sizes": [8]},
                "graph": {"k_neighbors": 3},
                "dataset": str(pipeline["dataset"]),
            }
        )
    )
    rc = cli.main(
        [
            "fit",
            "--config", str(cfg_path),
            "--output-dir", str(out),
            "--epochs", "7",
        ]
    )
    assert rc == 0
    payload = json.loads((out / "effective_config.json").read_text())
    assert payload["config"]["fit"]["max_epochs"] == 7  # flag beats config file
    assert payload["config"]["fit"]["hidden_sizes"] == [8]  # config beats default


def test_sweep_mode_flag_overrides_the_config_sweep(pipeline):
    out = pipeline["root"] / "sweep_mode"
    cfg_path = pipeline["root"] / "sweep.json"
    cfg_path.write_text(json.dumps({"sweep": {"mode": "edges", "axis1": [0, 1], "axis2": [0]}}))
    rc = cli.main(
        [
            "enhance",
            "--config", str(cfg_path),
            "--dataset", str(pipeline["dataset"]),
            "--model", str(pipeline["model"]),
            "--output-dir", str(out),
            "--replications", "5",
            "--sweep-mode", "margins",
        ]
    )
    assert rc == 0
    payload = json.loads((out / "effective_config.json").read_text())
    assert payload["config"]["sweep"] == {"mode": "margins", "axis1": [0, 1], "axis2": [0]}
    assert (out / "sweep.csv").read_text().startswith("margin_units,recovery_units,reduction_pct,std_err\n")


# (command line, dotted config key, value it sets): every flag that overrides a config value
FLAG_KEYS = [
    (["ingest", "--output-dir", "o"], "output_dir", "o"),
    (["ingest", "--units", "u.csv"], "units_csv", "u.csv"),
    (["ingest", "--outages", "n.csv"], "outages_csv", "n.csv"),
    (["ingest", "--weather", "w.csv"], "weather_csv", "w.csv"),
    (["ingest", "--dataset", "d"], "dataset", "d"),
    (["ingest", "--slot-seconds", "600"], "grid.slot_seconds", 600),
    (["ingest", "--grid-start", "2023-01-01T00:00:00Z"], "grid.start", "2023-01-01T00:00:00Z"),
    (["ingest", "--num-slots", "9"], "grid.num_slots", "9"),
    (["ingest", "--aggregation", "max"], "aggregation", "max"),
    (["fit", "--model", "m"], "model", "m"),
    (["fit", "--epochs", "4"], "fit.max_epochs", 4),
    (["fit", "--step-size", "0.5"], "fit.step_size", 0.5),
    (["fit", "--batch-slots", "8"], "fit.batch_slots", 8),
    (["fit", "--optimizer", "plain-sgd"], "fit.optimizer", "plain-sgd"),
    (["fit", "--k-neighbors", "3"], "graph.k_neighbors", 3),
    (["fit", "--max-km", "20"], "graph.max_km", 20.0),
    (["fit", "--seed", "5"], "fit.seed", 5),
    (["simulate", "--seed", "5"], "sim.seed", 5),
    (["predict", "--horizon", "3"], "predict.horizon", 3),
    (["simulate", "--replications", "7"], "sim.replications", 7),
    (["simulate", "--teacher-forced-until", "2"], "sim.teacher_forced_until", 2),
    (["enhance", "--replications", "7"], "sim.replications", 7),
    (["enhance", "--baseline", "observed_total"], "sim.baseline", "observed_total"),
    (["enhance", "--scenario", "s.json"], "scenario", "s.json"),
    (["enhance", "--sweep-units", "1,2"], "sweep", {"mode": "edges", "axis1": [1, 2], "axis2": []}),
    (["enhance", "--sweep-edges", "3"], "sweep", {"mode": "edges", "axis1": [], "axis2": [3]}),
    (["enhance", "--sweep-mode", "margins"], "sweep", {"mode": "margins", "axis1": [], "axis2": []}),
    (["analyze", "--sigmoid-variable", "a", "--sigmoid-variable", "b"], "analyze.sigmoid_variables", ["a", "b"]),
    (["analyze", "--zero-run-threshold", "4"], "analyze.zero_run_threshold", 4),
    (["export-map", "--model", "m"], "model", "m"),
]


@pytest.mark.parametrize("argv,key,value", FLAG_KEYS, ids=[" ".join(a[:2]) + f" {k}" for a, k, _ in FLAG_KEYS])
def test_each_flag_overrides_its_config_key(argv, key, value):
    cfg = cli.effective_config(cli.build_parser().parse_args(argv))
    node, expected = cfg, json.loads(json.dumps(cli.DEFAULTS))
    *parents, leaf = key.split(".")
    for k in parents:
        node, expected = node[k], expected[k]
    assert node[leaf] == value
    expected[leaf] = value
    assert node == expected  # nothing else moved


def test_every_flag_is_a_config_key_or_handled_by_name():
    """A flag's dest is the config key it sets; a misspelt top-level key would
    otherwise be dropped without an error."""
    by_name = {"help", "command", "config", "threads", "seed", "validate_only", "check_gradients"}
    by_name |= {"sweep_mode", "sweep_axis1", "sweep_axis2"}
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, command in sub.choices.items():
        for action in command._actions:
            if action.dest in by_name:
                continue
            node = cli.DEFAULTS
            for k in action.dest.split("."):
                assert isinstance(node, dict) and k in node, f"{name} {action.option_strings}: {action.dest}"
                node = node[k]


def test_validate_only_passes_without_computing(pipeline):
    out = pipeline["root"] / "vo"
    rc = cli.main(
        [
            "fit",
            "--dataset", str(pipeline["dataset"]),
            "--k-neighbors", "3",  # the default 8 is more than the 4 units have
            "--output-dir", str(out),
            "--validate-only",
        ]
    )
    assert rc == 0
    assert not out.exists()  # nothing written
    rc = cli.main(
        [
            "ingest",
            "--units", str(pipeline["units"]),
            "--outages", str(pipeline["outages"]),
            "--weather", str(pipeline["weather"]),
            "--output-dir", str(out),
            "--validate-only",
        ]
    )
    assert rc == 0


def test_validate_only_catches_bad_headers(pipeline, tmp_path):
    bad = tmp_path / "units.csv"
    bad.write_text("name,latitude\nx,1\n")
    rc = cli.main(
        [
            "ingest",
            "--units", str(bad),
            "--outages", str(pipeline["outages"]),
            "--weather", str(pipeline["weather"]),
            "--validate-only",
        ]
    )
    assert rc == 2


def test_validate_only_checks_container_schema(pipeline):
    rc = cli.main(
        [
            "predict",
            "--dataset", str(pipeline["model"]),  # a model file is not a dataset
            "--model", str(pipeline["model"]),
            "--validate-only",
        ]
    )
    assert rc == 4


def test_ingest_closes_every_file(pipeline, tmp_path):
    inputs = ["--units", str(pipeline["units"]), "--outages", str(pipeline["outages"]),
              "--weather", str(pipeline["weather"]), "--slot-seconds", "3600"]
    explicit_grid = ["--grid-start", "2023-06-01T00:00:00Z", "--num-slots", str(HOURS)]
    for n, grid in enumerate(([], explicit_grid)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["ingest", *inputs, *grid, "--output-dir", str(tmp_path / str(n))]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_ingest_reports_the_row_of_a_bad_count(pipeline, tmp_path, capsys):
    outages = tmp_path / "outages.csv"
    outages.write_text("unit_id,timestamp,customers_out\ntown0,2023-06-01T00:30:00Z,nan\n")
    rc = cli.main(["ingest", "--units", str(pipeline["units"]), "--outages", str(outages),
                   "--weather", str(pipeline["weather"]), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"{outages}:2: customers_out must be a finite count" in capsys.readouterr().err
    assert not (tmp_path / "out" / "dataset.gshk").exists()


@pytest.mark.parametrize("quoted", [False, True])
def test_ingest_parses_each_file_once(pipeline, tmp_path, monkeypatch, quoted):
    """Clean feeds are read once each through numpy's parser and never by the
    row loaders; a quoted field sends its file, and only it, through the row
    loader, once. Either way every data row lands in the columns once."""
    feeds = dict(outages=pipeline["outages"], weather=pipeline["weather"])
    if quoted:  # csv.reader reads `"town0"` as town0, so the dataset is the same
        feeds["outages"] = tmp_path / "outages.csv"
        feeds["outages"].write_text(pipeline["outages"].read_text().replace("town0,", '"town0",', 1))
    reads, loads, columns = [], {"outages": 0, "weather": 0}, {}
    read_feed, load_outage_rows, load_weather_rows = ingest.read_feed, ingest.load_outage_rows, ingest.load_weather_rows

    def counted_read(path, units, kind):
        reads.append(kind)
        variables, columns[kind] = read_feed(path, units, kind)
        return variables, columns[kind]

    def outage_rows(path, units):
        loads["outages"] += 1
        return load_outage_rows(path, units)

    def weather_rows(path, units):
        loads["weather"] += 1
        return load_weather_rows(path, units)

    monkeypatch.setattr(ingest, "read_feed", counted_read)
    monkeypatch.setattr(ingest, "load_outage_rows", outage_rows)
    monkeypatch.setattr(ingest, "load_weather_rows", weather_rows)
    out = tmp_path / "out"
    rc = cli.main(["ingest", "--units", str(pipeline["units"]), "--outages", str(feeds["outages"]),
                   "--weather", str(feeds["weather"]), "--output-dir", str(out), "--slot-seconds", "3600",
                   "--grid-start", "auto", "--num-slots", "auto"])
    assert rc == 0
    assert sorted(reads) == ["outages", "weather"]
    assert loads == {"outages": int(quoted), "weather": 0}
    data_rows = {kind: len(path.read_text().splitlines()) - 1 for kind, path in feeds.items()}
    assert {kind: cols.unit.size for kind, cols in columns.items()} == data_rows
    assert (out / "dataset.gshk").read_bytes() == pipeline["dataset"].read_bytes()


def _write_feeds(root, stamps, K=25, hours=12):
    """Raw CSVs of K units, each with `stamps` outage and weather samples
    spread evenly over `hours` hourly slots from 2023-06-01."""
    start = datetime(2023, 6, 1, tzinfo=timezone.utc)
    (root / "units.csv").write_text("unit_id,lat,lon,total_customers\n"
                                    + "".join(f"u{i},{42 + i / 100},-71,1000\n" for i in range(K)))
    times = [(start + timedelta(seconds=3600 * hours * j / stamps)).isoformat() for j in range(stamps)]
    with open(root / "outages.csv", "w") as out, open(root / "weather.csv", "w") as wx:
        out.write("unit_id,timestamp,customers_out\n")
        wx.write("unit_id,timestamp,wind_speed,precip_rate\n")
        for j, ts in enumerate(times):
            for i in range(K):
                out.write(f"u{i},{ts},{(i * j) % 7}\n")
                wx.write(f"u{i},{ts},{(i + j) % 11 / 2},{j % 5 / 4}\n")
    return 2 * K * stamps


def test_ingest_memory_grows_by_at_most_128_bytes_per_row(tmp_path):
    def traced_peak(stamps):
        root = tmp_path / str(stamps)
        root.mkdir()
        rows = _write_feeds(root, stamps)
        argv = ["ingest", *(f"--{kind}={root / f'{kind}.csv'}" for kind in ("units", "outages", "weather")),
                "--output-dir", str(root), "--slot-seconds", "3600", "--grid-start", "2023-06-01T00:00:00Z",
                "--num-slots", "12"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(50)  # the first run imports what ingest needs
    (rows, peak), (rows4, peak4) = traced_peak(200), traced_peak(800)
    assert rows4 == 4 * rows
    assert (peak4 - peak) / (rows4 - rows) <= 128


@pytest.mark.parametrize("kind", ["outages", "weather"])
def test_ingest_reports_the_row_of_a_short_or_long_row(pipeline, tmp_path, capsys, kind):
    lines = pipeline[kind].read_text().splitlines()
    inputs = {"outages": pipeline["outages"], "weather": pipeline["weather"]}

    def run(text):
        inputs[kind] = tmp_path / f"{kind}.csv"
        inputs[kind].write_text(text)
        return cli.main(["ingest", "--units", str(pipeline["units"]), "--outages", str(inputs["outages"]),
                         "--weather", str(inputs["weather"]), "--output-dir", str(tmp_path / "out"),
                         "--slot-seconds", "3600"])

    # blank lines are skipped; the row numbers count every line of the file
    assert run("\n".join([lines[0], "", *lines[1:], ""]) + "\n") == 0
    capsys.readouterr()
    width = len(lines[0].split(","))
    short = lines[1].rsplit(",", 1)[0]
    for bad, n in ((short, width - 1), (lines[1] + ",7", width + 1)):
        assert run("\n".join([lines[0], lines[1], "", bad, *lines[2:]]) + "\n") == 2
        assert f"{inputs[kind]}:4: {n} fields, the header has {width}" in capsys.readouterr().err


def test_validate_only_runs_the_loaders_header_checks(pipeline, tmp_path, capsys):
    weather = tmp_path / "weather.csv"
    weather.write_text("unit_id,timestamp\ntown0,2023-06-01T00:00:00Z\n")
    args = ["ingest", "--units", str(pipeline["units"]), "--outages", str(pipeline["outages"]),
            "--weather", str(weather), "--output-dir", str(tmp_path / "out")]
    assert cli.main(args) == 2
    ingest_err = capsys.readouterr().err
    assert cli.main([*args, "--validate-only"]) == 2
    assert capsys.readouterr().err == ingest_err == f"error: {weather}: no weather variable columns\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("outages", lambda f: [f[0], f[1], "nan"], "customers_out must be a finite count in [0, 2**63), got 'nan'"),
        ("weather", lambda f: [*f[:-1], "nan"], "non-finite {var} value 'nan'"),
        ("outages", lambda f: f[:-1], "2 fields, the header has 3"),
        ("weather", lambda f: f[:-1], "{short} fields, the header has {width}"),
        ("outages", lambda f: ["zzz", *f[1:]], "unknown unit_id 'zzz'"),
        ("weather", lambda f: ["zzz", *f[1:]], "unknown unit_id 'zzz'"),
        ("units", lambda f: [*f[:3], "inf"], "total_customers must be a finite whole number, got 'inf'"),
        ("units", lambda f: [*f[:3], "1.5"], "total_customers must be a finite whole number, got '1.5'"),
        ("units", lambda f: [*f[:3], "0"], "unit 'town2': total_customers must be an integer >= 1, got 0"),
        ("units", lambda f: [f[0], "95", *f[2:]], "unit 'town2': latitude 95.0 out of range"),
    ],
    ids=["nan-count", "nan-weather", "short-outage-row", "short-weather-row", "unknown-unit-outages",
         "unknown-unit-weather", "infinite-customers", "fractional-customers", "no-customers",
         "latitude-out-of-range"],
)
def test_validate_only_reads_every_row_as_ingest_does(pipeline, tmp_path, capsys, kind, edit, message):
    lines = pipeline[kind].read_text().splitlines()
    header = lines[0].split(",")
    lines[3] = ",".join(edit(lines[3].split(",")))
    inputs = {"units": pipeline["units"], "outages": pipeline["outages"], "weather": pipeline["weather"]}
    inputs[kind] = tmp_path / f"{kind}.csv"
    inputs[kind].write_text("\n".join(lines) + "\n")
    message = message.format(var=header[-1], short=len(header) - 1, width=len(header))
    out = tmp_path / "out"
    results = []
    for validate in ([], ["--validate-only"]):
        rc = cli.main(["ingest", "--units", str(inputs["units"]), "--outages", str(inputs["outages"]),
                       "--weather", str(inputs["weather"]), "--output-dir", str(out), "--slot-seconds", "3600",
                       *validate])
        results.append((rc, capsys.readouterr().err))
    assert results[0] == results[1] == (2, f"error: {inputs[kind]}:4: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00"])
@pytest.mark.parametrize("validate", [[], ["--validate-only"]], ids=["run", "validate-only"])
def test_a_timestamp_whose_utc_instant_leaves_datetimes_range_exits_2(pipeline, tmp_path, capsys, stamp, validate):
    """Valid ISO text whose UTC conversion overflows is a bad timestamp, in a
    CSV row (with its file and line) and in `--grid-start`."""
    lines = pipeline["outages"].read_text().splitlines()
    fields = lines[3].split(",")
    fields[lines[0].split(",").index("timestamp")] = stamp
    lines[3] = ",".join(fields)
    outages = tmp_path / "outages.csv"
    outages.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    inputs = ["--units", str(pipeline["units"]), "--weather", str(pipeline["weather"]), "--output-dir", str(out)]
    bad = f"bad timestamp {stamp!r}: date value out of range"
    assert cli.main(["ingest", *inputs, "--outages", str(outages), *validate]) == 2
    assert capsys.readouterr().err == f"error: {outages}:4: {bad}\n"
    assert cli.main(["ingest", *inputs, "--outages", str(pipeline["outages"]), "--grid-start", stamp, *validate]) == 2
    err = capsys.readouterr().err
    assert bad in err and "Traceback" not in err
    assert not out.exists()


def test_exit_code_validation_errors(pipeline, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops")
    assert cli.main(["fit", "--config", str(bad_json), "--dataset", str(pipeline["dataset"])]) == 2

    unknown_key = tmp_path / "unk.json"
    unknown_key.write_text(json.dumps({"nope": 1}))
    assert cli.main(["fit", "--config", str(unknown_key), "--dataset", str(pipeline["dataset"])]) == 2

    assert cli.main(["fit", "--dataset", str(tmp_path / "missing.gshk")]) == 2
    assert cli.main(["fit", "--dataset", str(pipeline["dataset"]), "--threads", "abc"]) == 2

    rc = cli.main(["predict", "--dataset", str(pipeline["dataset"]), "--model", str(pipeline["dataset"]),
                   "--output-dir", str(tmp_path / "x")])
    assert rc == 4  # dataset container where a model was expected

    rc = cli.main(["predict", "--dataset", str(pipeline["dataset"]), "--model", str(pipeline["model"]),
                   "--output-dir", str(tmp_path / "y"), "--horizon", "0", "--validate-only"])
    assert rc == 2


@pytest.mark.parametrize("optimizer", ["plain-sgd", "adaptive-moments"])
def test_a_step_that_overflows_theta_exits_3_as_a_divergence(pipeline, tmp_path, capsys, optimizer):
    rc = cli.main(["fit", "--dataset", str(pipeline["dataset"]), "--output-dir", str(tmp_path),
                   "--step-size", "1.7e308", "--optimizer", optimizer, "--epochs", "2", "--k-neighbors", "3"])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert "optimizer left the finite region at epoch 1 (non-finite parameter update at theta[" in err
    assert not (tmp_path / "model.gshk").exists()


def _drop_array(name):
    def edit(header):
        header["arrays"] = [e for e in header["arrays"] if e["name"] != name]
        return header

    return edit


def _lengthen_edge_weight(header):
    (entry,) = (e for e in header["arrays"] if e["name"] == "edge_weight")
    entry["shape"] = [entry["shape"][0] + 1]
    return header


def _rewrite_arrays(change):
    """A corruption of the stored arrays: `change(arrays)` edits them in place, and
    the container is written again with its meta."""
    return "arrays", change


def _float_edges(arrays):
    for name in ("edge_source", "edge_target"):
        arrays[name] = arrays[name].astype(np.float64)


def _reverse_edges(arrays):
    for name in ("edge_source", "edge_target", "edge_weight"):
        arrays[name] = arrays[name][::-1]


def _float_counts(arrays):
    arrays["counts"] = arrays["counts"].astype(np.float64)
    arrays["counts"][0, 0] = 2.7


def _v1_schema(header):
    header["schema"] = "gridshock-model-v1"
    return header


def _drop_grid(header):
    del header["meta"]["grid"]
    return header


def _set_meta(path, value):
    """Replace the meta value at `path` (a list of keys and indices) by `value`."""

    def edit(header):
        node = header["meta"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header

    return edit


@pytest.mark.parametrize(
    "corrupt, edit, match",
    [
        ("model", _lengthen_edge_weight, f"array 'edge_weight': {8 * EDGES} bytes do not hold shape [{EDGES + 1}]"),
        ("model", _drop_array("beta"), "container has no entry 'beta'"),
        ("dataset", _drop_array("counts"), "container has no entry 'counts'"),
        ("dataset", _drop_grid, "container has no entry 'grid'"),
        ("model", _set_meta(["num_layers"], "3"), "meta key 'num_layers' must be an integer >= 0, got '3'"),
        ("model", _rewrite_arrays(_float_edges), "array 'edge_source' must hold integers, got dtype float64"),
        ("model", _rewrite_arrays(_reverse_edges),
         "edge_source and edge_target must be vectors of one length in (target, source) order"),
        ("model", _v1_schema, "schema 'gridshock-model-v1' is not compatible with expected 'gridshock-model-v2'"),
        ("dataset", _rewrite_arrays(_float_counts), "array 'counts' must hold integers, got dtype float64"),
        ("model", _set_meta(["eps"], None), "meta key 'eps' must be a number, got None"),
        ("dataset", _set_meta(["grid", "slot_seconds"], 3600.0), "meta key 'grid.slot_seconds' must be an integer"),
        ("dataset", _set_meta(["units", 1, "lat"], "42.1"), "meta key 'units[1].lat' must be a number, got '42.1'"),
        ("dataset", _set_meta(["units"], {}), "meta key 'units' must be a list of objects, got {}"),
    ],
)
def test_a_corrupt_container_exits_4(pipeline, tmp_path, capsys, corrupt, edit, match):
    files = {"dataset": tmp_path / "dataset.gshk", "model": tmp_path / "model.gshk"}
    for name, path in files.items():
        path.write_bytes(pipeline[name].read_bytes())
    if isinstance(edit, tuple):
        schema = model.MODEL_SCHEMA if corrupt == "model" else ingest.DATASET_SCHEMA
        meta, arrays = read_container(files[corrupt], schema)
        edit[1](arrays)
        write_container(files[corrupt], schema, meta, arrays)
    else:
        rewrite_container_header(files[corrupt], edit)
    for validate in ([], ["--validate-only"]):  # both read the containers whole
        rc = cli.main(["simulate", "--dataset", str(files["dataset"]), "--model", str(files["model"]),
                       "--output-dir", str(tmp_path / "out"), "--replications", "2", *validate])
        err = capsys.readouterr().err
        assert rc == 4 and "Traceback" not in err
        assert f"file error: {files[corrupt]}: {match}" in err


@pytest.mark.parametrize("mask", ["outage_gap_mask", "weather_gap_mask"])
@pytest.mark.parametrize("validate", [[], ["--validate-only"]], ids=["run", "validate-only"])
def test_a_gap_mask_that_is_not_k_by_t_exits_4(pipeline, tmp_path, capsys, mask, validate):
    # one slot short of the grid, a mask that `predict` used to read without a word
    bad = tmp_path / "dataset.gshk"
    meta, arrays = read_container(pipeline["dataset"], ingest.DATASET_SCHEMA)
    arrays[mask] = arrays[mask][:, :-1]
    write_container(bad, ingest.DATASET_SCHEMA, meta, arrays)
    rc = cli.main(["predict", "--dataset", str(bad), "--model", str(pipeline["model"]),
                   "--output-dir", str(tmp_path / "out"), *validate])
    err = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in err
    assert (f"file error: {bad}: array '{mask}' must be K x T = {UNITS} x {HOURS}, "
            f"got shape [{UNITS}, {HOURS - 1}]") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, payload, match",
    [
        ("simulate", {"sim": {"replications": "abc"}}, "'sim.replications' must be an integer, got 'abc'"),
        ("simulate", {"sim": {"replications": 2.7}}, "'sim.replications' must be an integer, got 2.7"),
        ("simulate", {"sim": {"teacher_forced_until": True}}, "'sim.teacher_forced_until' must be an integer, got True"),
        ("simulate", {"sim": {"teacher_forced_until": -3}}, "'sim.teacher_forced_until' must be an integer >= 0, got -3"),
        ("enhance", {"sim": {"seed": "7"}}, "'sim.seed' must be an integer, got '7'"),
        ("fit", {"fit": {"hidden_sizes": 5}}, "'fit.hidden_sizes' must be a list of integers, got 5"),
        ("fit", {"fit": {"hidden_sizes": [8, 2.5]}}, "'fit.hidden_sizes' must be a list of integers, got [8, 2.5]"),
        ("fit", {"fit": {"step_size": "fast"}}, "'fit.step_size' must be a number, got 'fast'"),
        ("fit", {"fit": {"eps": False}}, "'fit.eps' must be a number, got False"),
        ("fit", {"graph": {"k_neighbors": 3.5}}, "'graph.k_neighbors' must be an integer, got 3.5"),
        ("predict", {"predict": {"horizon": "2"}}, "'predict.horizon' must be an integer, got '2'"),
        ("ingest", {"grid": {"num_slots": "many"}}, "'grid.num_slots' must be an integer, got 'many'"),
        ("simulate", {"sim": {"seed": -1}}, "'sim.seed' must be an integer >= 0, got -1"),
        ("fit", {"fit": {"hidden_sizes": [-1]}}, "'fit.hidden_sizes' must be a list of integers >= 1, got [-1]"),
        ("fit", {"fit": {"step_size": float("nan")}}, "'fit.step_size' must be a finite number > 0, got nan"),
        ("fit", {"graph": {"max_km": 0}}, "'graph.max_km' must be a finite number > 0, got 0"),
        ("fit", {"fit": {"window_slots": 0}}, "'fit.window_slots' must be an integer >= 1, got 0"),
        ("analyze", {"analyze": {"zero_run_threshold": 0}}, "'analyze.zero_run_threshold' must be an integer >= 1, got 0"),
        ("ingest", {"grid": {"slot_seconds": 0}}, "'grid.slot_seconds' must be an integer >= 1, got 0"),
    ],
    ids=["string", "non-integral-float", "bool", "negative-cutoff", "string-seed", "scalar-list", "float-in-list", "string-number",
         "bool-number", "float-count", "string-horizon", "string-slots", "negative-seed", "negative-width", "nan-number",
         "zero-number", "zero-window", "zero-threshold", "zero-slot-seconds"],
)
@pytest.mark.parametrize("validate", [[], ["--validate-only"]], ids=["run", "validate-only"])
def test_a_config_value_of_the_wrong_type_exits_2(pipeline, tmp_path, capsys, command, payload, match, validate):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    if command == "ingest":
        inputs = ["--units", str(pipeline["units"]), "--outages", str(pipeline["outages"]),
                  "--weather", str(pipeline["weather"]), "--grid-start", "2023-06-01T00:00:00Z",
                  "--dataset", str(out / "dataset.gshk")]
    else:
        inputs = ["--dataset", str(pipeline["dataset"]), "--model", str(pipeline["model"])]
    extra = ["--sweep-units", "1", "--sweep-edges", "1"] if command == "enhance" else []
    rc = cli.main([command, "--config", str(cfg_path), *inputs, "--output-dir", str(out), *extra, *validate])
    err = capsys.readouterr().err
    assert rc == 2 and f"error: config key {match}" in err and "Traceback" not in err
    assert not (out / "effective_config.json").exists()


def _out_of_range(kinds):
    """A value of a setting's type that its range refuses, for every setting of cli.SETTINGS."""
    if kinds[0] is INTEGER:
        return max(n for n in (-1, 0, 1) if not kinds[1][0](n))
    return {NUMBER: 0.0, INTEGERS: [8, 0], cli.TIMESTAMP: "not-a-time"}.get(kinds[0], "bogus")


@pytest.mark.parametrize("key", sorted(cli.SETTINGS))
def test_validate_only_rejects_an_out_of_range_value_of_every_setting(pipeline, tmp_path, capsys, key):
    commands = [c for c, keys in cli.COMMAND_SETTINGS.items() if key in keys]
    assert commands, f"no command reads {key!r}"
    command = commands[0]
    section, _, leaf = key.rpartition(".")
    out = tmp_path / "out"
    if command == "ingest":
        inputs = ["--units", str(pipeline["units"]), "--outages", str(pipeline["outages"]),
                  "--weather", str(pipeline["weather"])]
    else:
        inputs = ["--dataset", str(pipeline["dataset"]), "--model", str(pipeline["model"])]
    for value in (_out_of_range(cli.SETTINGS[key][1:]), math.nan, True):
        cfg_path = tmp_path / "range.json"
        cfg_path.write_text(json.dumps({section: {leaf: value}} if section else {key: value}))
        rc = cli.main([command, "--config", str(cfg_path), *inputs, "--output-dir", str(out), "--validate-only"])
        err = capsys.readouterr().err
        assert rc == 2 and repr(value) in err and "Traceback" not in err, (value, err)
        assert not out.exists()


def test_every_config_leaf_is_a_path_or_a_checked_setting():
    """A config value that is neither an input/output path nor part of the
    `enhance` plan is read through `_setting`, so it is type- and range-checked."""
    paths = {"units_csv", "outages_csv", "weather_csv", "dataset", "model", "output_dir", "scenario", "sweep"}

    def leaves(node, prefix=""):
        for key, value in node.items():
            yield from leaves(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key]

    assert set(leaves(cli.DEFAULTS)) - paths == set(cli.SETTINGS)


def test_every_setting_default_is_the_library_default():
    """The numpy-free CLI states its defaults itself; each must be the default
    the library takes when the caller passes nothing."""

    def default_of(fn, name):
        return inspect.signature(fn).parameters[name].default

    fit = {f"fit.{field.name}": field.default for field in dataclasses.fields(FitConfig)}
    library = {
        **fit,
        "fit.hidden_sizes": list(fit["fit.hidden_sizes"]),
        "graph.k_neighbors": topology.DEFAULT_K_NEIGHBORS,
        "graph.max_km": topology.DEFAULT_MAX_KM,
        "grid.slot_seconds": ingest.DEFAULT_SLOT_SECONDS,
        "analyze.zero_run_threshold": analyze.DEFAULT_ZERO_RUN,
        "predict.horizon": default_of(analyze.predict_ahead, "horizon_slots"),
        "sim.teacher_forced_until": default_of(simulate.simulate_paths, "teacher_forced_until"),
        "sim.baseline": default_of(simulate.outage_reductions, "baseline"),
        "aggregation": default_of(ingest.aggregate_outages, "method"),
    }
    # the library has no default for these: the grid's span, the replication
    # count and seed of a simulation, the variables of the response curves
    cli_only = {"grid.start", "grid.num_slots", "sim.replications", "sim.seed", "analyze.sigmoid_variables"}
    assert set(library) | cli_only == set(cli.SETTINGS) and not set(library) & cli_only
    assert {key: cli.SETTINGS[key][0] for key in library} == library


@pytest.mark.parametrize(
    "argv, match",
    [
        (["analyze", "--sigmoid-variable", "bogus"], "error: unknown weather variable 'bogus'"),
        (["fit", "--k-neighbors", str(UNITS)], f"error: k_neighbors must be in [1, {UNITS - 1}], got {UNITS}"),
    ],
    ids=["unknown-variable", "too-many-neighbors"],
)
def test_validate_only_makes_the_checks_that_need_the_data(pipeline, tmp_path, capsys, argv, match):
    out = tmp_path / "out"
    model_path = out / "model.gshk" if argv[0] == "fit" else pipeline["model"]  # fit writes its --model
    results = []
    for validate in ([], ["--validate-only"]):
        rc = cli.main([*argv, "--dataset", str(pipeline["dataset"]), "--model", str(model_path),
                       "--output-dir", str(out), *validate])
        results.append((rc, capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] == 2 and match in results[0][1]
    assert not out.exists()


def _enhance(pipeline, tmp_path, scenario, *validate):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return cli.main(["enhance", "--dataset", str(pipeline["dataset"]), "--model", str(pipeline["model"]),
                     "--scenario", str(path), "--replications", "3", "--output-dir", str(tmp_path / "out"), *validate])


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"gamma_overrides": [[99, 0.5]]}, "scenario overrides gamma of unknown unit 99"),
        ({"edge_reweights": [[0, 11, 0.0]]}, "scenario re-weights edge (0, 11) which is not in the graph"),
        ({"omega_overrides": [[0, "mean"]]},
         "omega_overrides value must be a finite number >= 0 (explicit values only), got 'mean'"),
    ],
    ids=["unknown-unit", "not-a-candidate-edge", "mean-omega"],
)
def test_validate_only_refuses_the_scenarios_the_run_refuses(pipeline, tmp_path, capsys, scenario, message):
    results = []
    for validate in ([], ["--validate-only"]):
        rc = _enhance(pipeline, tmp_path, scenario, *validate)
        results.append((rc, capsys.readouterr().err))
    assert results[0] == results[1] == (2, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_a_beta_near_the_float_maximum_runs_without_a_numpy_warning(pipeline, tmp_path, capsys):
    # the kernel's drop factor e^-(beta (window + 1)) overflows to e^-inf = 0, which is its value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = _enhance(pipeline, tmp_path, {"beta_overrides": [[0, 1e308]]})
    assert rc == 0 and capsys.readouterr().err == ""
    assert (tmp_path / "out" / "enhancement.csv").is_file()


@pytest.mark.parametrize("command, section", [("simulate", "sim"), ("fit", "graph")])
@pytest.mark.parametrize("validate", [[], ["--validate-only"]], ids=["run", "validate-only"])
def test_a_scalar_config_section_exits_2(pipeline, tmp_path, capsys, command, section, validate):
    cfg_path = tmp_path / "scalar.json"
    cfg_path.write_text(json.dumps({section: 5}))
    out = tmp_path / "out"
    model_path = out / "model.gshk" if command == "fit" else pipeline["model"]  # fit writes its --model
    rc = cli.main([command, "--config", str(cfg_path), "--dataset", str(pipeline["dataset"]),
                   "--model", str(model_path), "--output-dir", str(out), *validate])
    err = capsys.readouterr().err
    assert rc == 2 and f"error: config section '{section}' must be an object, got 5" in err
    assert "Traceback" not in err and not out.exists()


def test_config_file_rejects_the_removed_projection_cadence_key(pipeline, tmp_path, capsys):
    # Every optimizer step is projected: the kernel and weather filters need rates >= 0.
    cfg_path = tmp_path / "cadence.json"
    cfg_path.write_text(json.dumps({"fit": {"projection_cadence": 2}}))
    rc = cli.main(["fit", "--config", str(cfg_path), "--dataset", str(pipeline["dataset"]),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown config key 'fit.projection_cadence'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, index", [("beta", 0), ("gamma", 1), ("omega", 0)])
def test_model_file_with_a_negative_rate_is_rejected_at_load(pipeline, tmp_path, capsys, field, index):
    params = deserialize(pipeline["model"])
    arr = params.decay.omega if field == "omega" else getattr(params, field)
    if field == "beta":
        params.decay.omega[0] = -0.2  # the first bad field is the one named
    # a non-finite omega is refused when the model is built, before this check
    for value in (-0.5, math.nan, math.inf) if field != "omega" else (-0.5,):
        arr[index] = value
        bad = tmp_path / "bad_model.gshk"
        model.serialize(params, bad)
        for validate in ([], ["--validate-only"]):
            rc = cli.main(["predict", "--dataset", str(pipeline["dataset"]), "--model", str(bad),
                           "--output-dir", str(tmp_path / "pred"), *validate])
            assert rc == 2
            assert f"{field}[{index}] must be a finite number >= 0, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize(
    "field, index, value, match",
    [
        ("scale", 1, -2.0, "scaler_scale[1] must be a finite number > 0, got -2.0"),
        ("scale", 0, 0.0, "scaler_scale[0] must be a finite number > 0, got 0.0"),
        ("scale", 1, math.nan, "scaler_scale[1] must be a finite number > 0, got nan"),
        ("mean", 0, math.inf, "scaler_mean[0] must be a finite number, got inf"),
        ("scale", None, None, "scaler mean/scale shapes (2,) and (1,) must match the 2 weather variables"),
    ],
)
def test_model_file_with_a_bad_weather_scaler_is_rejected_at_load(pipeline, tmp_path, capsys, field, index, value,
                                                                   match):
    params = deserialize(pipeline["model"])
    if index is None:  # one entry for two variables would broadcast
        params.scaler.scale = params.scaler.scale[:1]
    else:
        getattr(params.scaler, field)[index] = value
    bad = tmp_path / "bad_model.gshk"
    model.serialize(params, bad)
    for validate in ([], ["--validate-only"]):
        rc = cli.main(["predict", "--dataset", str(pipeline["dataset"]), "--model", str(bad),
                       "--output-dir", str(tmp_path / "pred"), *validate])
        err = capsys.readouterr().err
        assert rc == 2 and match in err and "weather input" not in err
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
def test_model_file_with_a_bad_intensity_floor_is_rejected_at_load(pipeline, tmp_path, capsys, eps):
    bad = tmp_path / "bad_model.gshk"
    bad.write_bytes(pipeline["model"].read_bytes())
    rewrite_container_header(bad, _set_meta(["eps"], eps))
    for validate in ([], ["--validate-only"]):
        rc = cli.main(["predict", "--dataset", str(pipeline["dataset"]), "--model", str(bad),
                       "--output-dir", str(tmp_path / "pred"), *validate])
        assert rc == 2
        assert f"error: intensity floor eps must be a finite number > 0, got {eps!r}" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists()


def test_config_file_rejects_the_removed_step_decay_key(pipeline, tmp_path, capsys):
    # The step size is fixed for a whole fit; the per-epoch decay it had was always 1.0.
    cfg_path = tmp_path / "decay.json"
    cfg_path.write_text(json.dumps({"fit": {"step_decay": 0.9}}))
    rc = cli.main(["fit", "--config", str(cfg_path), "--dataset", str(pipeline["dataset"]),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown config key 'fit.step_decay'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


@pytest.mark.parametrize("flag", [["--threads", "3"], ["--threads=3"]], ids=["separate", "equals"])
def test_threads_flag_pins_the_pools_in_either_spelling(pipeline, monkeypatch, flag):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "untouched")
    assert cli.main(["fit", "--dataset", str(pipeline["dataset"]), "--k-neighbors", "3", "--validate-only", *flag]) == 0
    assert {var: os.environ[var] for var in THREAD_VARS} == dict.fromkeys(THREAD_VARS, "3")


@pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads=0"], ["--threads=-2"], ["--threads", "abc"]])
def test_threads_below_one_is_a_validation_error(pipeline, monkeypatch, capsys, flag):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "untouched")
    assert cli.main(["fit", "--dataset", str(pipeline["dataset"]), "--validate-only", *flag]) == 2
    assert "--threads expects an integer >= 1" in capsys.readouterr().err
    assert {var: os.environ[var] for var in THREAD_VARS} == dict.fromkeys(THREAD_VARS, "untouched")


def _enhance_exit_and_error(pipeline, out, extra, capsys):
    """(exit code, stderr) of `enhance`, and of the same command with --validate-only."""
    argv = ["enhance", "--dataset", str(pipeline["dataset"]), "--model", str(pipeline["model"]),
            "--output-dir", str(out), "--replications", "5", *extra]
    results = []
    for validate in ([], ["--validate-only"]):
        rc = cli.main([*argv, *validate])
        results.append((rc, capsys.readouterr().err))
    return results


@pytest.mark.parametrize("command, extra", [
    ("predict", []), ("simulate", ["--replications", "2"]), ("enhance", ["--sweep-units", "0", "--sweep-edges", "0"]),
    ("analyze", []), ("export-map", []),
])
@pytest.mark.parametrize("validate", [[], ["--validate-only"]], ids=["run", "validate-only"])
@pytest.mark.parametrize("K, M", [(UNITS + 1, 2), (UNITS, 3)], ids=["units", "variables"])
def test_a_model_of_another_size_than_the_dataset_exits_2(pipeline, tmp_path, capsys, command, extra, validate, K, M):
    model_path = tmp_path / "model.gshk"
    model.serialize(random_small_params(np.random.default_rng(K * M), K=K, M=M), model_path)
    out = tmp_path / "out"
    rc = cli.main([command, "--dataset", str(pipeline["dataset"]), "--model", str(model_path),
                   "--output-dir", str(out), *extra, *validate])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"the model has K={K} units and M={M} weather variables, the dataset K={UNITS} and M=2" in err
    assert not out.exists()


def test_a_malformed_scenario_file_exits_2(pipeline, tmp_path, capsys):
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps({"gamma_top_units": -2}))
    out = tmp_path / "out"
    run, validate = _enhance_exit_and_error(pipeline, out, ["--scenario", str(scen_path)], capsys)
    assert run == validate == (2, "error: gamma_top_units must be an integer >= 0, got -2\n")
    assert not out.exists()


AXES_ERROR = "must be a nonempty list of integers >= 0"


@pytest.mark.parametrize(
    "sweep, flags, match",
    [
        ({"mode": "edges"}, [], f"sweep axis1 {AXES_ERROR}, got None"),
        ({"mode": "edges", "axis1": [1], "axis2": []}, [], f"sweep axis2 {AXES_ERROR}, got []"),
        ({"mode": "edges", "axis1": [1], "axis2": [0.5]}, [], f"sweep axis2 {AXES_ERROR}, got [0.5]"),
        ({"mode": "edges", "axis1": [True], "axis2": [1]}, [], f"sweep axis1 {AXES_ERROR}, got [True]"),
        ({"mode": "edges", "axis1": 2, "axis2": [1]}, [], f"sweep axis1 {AXES_ERROR}, got 2"),
        ({"mode": "diagonal", "axis1": [1], "axis2": [1]}, [], "sweep mode must be one of 'edges', 'margins'"),
        ({"mode": "edges", "axis1": [1], "axis2": [1], "axis3": [1]}, [], "sweep must be an object with keys"),
        ([1, 2], [], "sweep must be an object with keys"),
        (None, ["--sweep-units=-1,2", "--sweep-edges", "1"], f"sweep axis1 {AXES_ERROR}, got [-1, 2]"),
        (None, ["--sweep-mode", "margins", "--sweep-units", "1"], f"sweep axis2 {AXES_ERROR}, got []"),
    ],
    ids=["no-axes", "empty-axis", "float", "bool", "not-a-list", "mode", "extra-key", "not-an-object",
         "negative-flag", "one-axis-flag"],
)
def test_a_malformed_sweep_exits_2(pipeline, tmp_path, capsys, sweep, flags, match):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"sweep": sweep}))
    out = tmp_path / "out"
    run, validate = _enhance_exit_and_error(pipeline, out, ["--config", str(cfg_path), *flags], capsys)
    assert run == validate
    assert run[0] == 2 and match in run[1]
    assert not out.exists()
