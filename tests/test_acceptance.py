"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the package at a pinned
tolerance and prints a one-line PASS/FAIL verdict with the measured value,
so `pytest tests/test_acceptance.py -v -rA` doubles as a scorecard. The
expensive fixtures (the reference fit, the held-out storm) live in
conftest.py and are shared with the unit suite.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import expit

from oracles import (
    brute_criticality,
    naive_intensity_field,
    naive_loglik,
)
from synth import (
    make_cascade_instance,
    random_small_instance,
    random_small_params,
    wrap_dataset,
)
from test_cli import _write_demo_csvs
from conftest import SUPPORT_THRESHOLD
from gridshock import cli
from gridshock.analyze import decompose_counts, fit_sigmoid_points, predict_ahead
from gridshock.model import intensity_field
from gridshock.simulate import Scenario, outage_reductions, simulate_paths
from gridshock.topology import criticality_scores
from gridshock.train import gradients, log_likelihood
from synth import standard_fit_config


def _verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid} failed: {detail}"


# -- criterion 1: analytic gradients vs finite differences --------------------


def _audit_instance(seed: int):
    """Worst relative / tiny-coordinate absolute gradient error on one draw."""
    rng = np.random.default_rng(2000 + seed)
    K = int(rng.integers(2, 6))
    T = int(rng.integers(4, 11))
    M = int(rng.integers(1, 4))
    params, counts, weather = random_small_instance(rng, K=K, T=T, M=M, n_edges=K, hidden=(3,))
    ds = wrap_dataset(counts, weather, seed=seed)

    ll_pkg = log_likelihood(params, ds)
    ll_naive = naive_loglik(params, counts, weather)
    assert abs(ll_pkg - ll_naive) <= 1e-9 * max(1.0, abs(ll_naive))

    grads = gradients(params, ds)
    h = 1e-5

    def fd(setter):
        def value(delta):
            p = params.copy()
            setter(p, delta)
            return naive_loglik(p, counts, weather)

        return (value(h) - value(-h)) / (2 * h)

    coords = []
    for s, t in params.graph.edges:
        e = params.graph.index[s, t]
        coords.append((grads.alpha[e], fd(lambda p, d, e=e: p.alpha.w.__setitem__(e, p.alpha.w[e] + d))))
    for i in range(K):
        coords.append((grads.beta[i], fd(lambda p, d, i=i: p.beta.__setitem__(i, p.beta[i] + d))))
        coords.append((grads.gamma[i], fd(lambda p, d, i=i: p.gamma.__setitem__(i, p.gamma[i] + d))))
    for m in range(M):
        coords.append((grads.omega[m], fd(lambda p, d, m=m: p.decay.omega.__setitem__(m, p.decay.omega[m] + d))))

    def bump_mlp(p, d, k):
        flat = p.mlp.flatten()
        flat[k] += d
        p.mlp = p.mlp.unflatten_like(flat)

    mlp_grad = grads.mlp.flatten()
    for k in range(mlp_grad.size):
        coords.append((mlp_grad[k], fd(lambda p, d, k=k: bump_mlp(p, d, k))))

    worst_rel, worst_abs = 0.0, 0.0
    for analytic, numeric in coords:
        scale = max(abs(analytic), abs(numeric))
        if scale < 1e-8:
            worst_abs = max(worst_abs, abs(analytic - numeric))
        else:
            worst_rel = max(worst_rel, abs(analytic - numeric) / scale)
    return worst_rel, worst_abs, len(coords)


def test_criterion_01_gradient_audit():
    t0 = time.perf_counter()
    worst_rel, worst_abs, n = 0.0, 0.0, 0
    for seed in range(20):
        rel, ab, k = _audit_instance(seed)
        worst_rel, worst_abs, n = max(worst_rel, rel), max(worst_abs, ab), n + k
    took = time.perf_counter() - t0
    ok = worst_rel < 1e-4 and worst_abs < 1e-7 and took < 60.0
    _verdict(
        "C01",
        ok,
        f"gradient audit over 20 instances / {n} coordinates: worst rel err {worst_rel:.2e} "
        f"(tol 1e-4), worst near-zero abs err {worst_abs:.2e} (tol 1e-7), {took:.1f}s (budget 60s)",
    )


# -- criterion 2: vectorized intensity == reference sum ------------------------


def test_criterion_02_intensity_equality():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        K = int(rng.integers(2, 6))
        T = int(rng.integers(4, 11))
        M = int(rng.integers(1, 4))
        params, counts, weather = random_small_instance(rng, K=K, T=T, M=M, n_edges=K, hidden=(3,))
        fld = intensity_field(params, counts, weather)
        lam, direct, indirect = naive_intensity_field(params, counts, weather)
        worst = max(
            worst,
            float(np.abs(fld.lam - lam).max()),
            float(np.abs(fld.direct - direct).max()),
            float(np.abs(fld.indirect - indirect).max()),
        )
    ok = worst < 1e-12
    _verdict("C02", ok, f"intensity field vs per-cell reference over 10 instances: max abs diff {worst:.2e} (tol 1e-12)")


# -- criterion 3: constraints hold after a real fit -----------------------------


def test_criterion_03_constraints_after_fit(standard_fit):
    params, report = standard_fit
    alpha = params.alpha.alpha
    off = params.alpha.off_diagonal()
    checks = {
        "epochs >= 50": report.epochs_run >= 50,
        "alpha >= 0": bool((alpha >= 0).all()),
        "diag(alpha) == 1": bool((np.diag(alpha) == 1.0).all()),
        "no 2-cycles": bool((off * off.T == 0).all()),
        "beta >= 0": bool((params.beta >= 0).all()),
        "gamma >= 0": bool((params.gamma >= 0).all()),
        "omega >= 0": bool((params.decay.omega >= 0).all()),
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _verdict(
        "C03",
        ok,
        f"constraint set after a {report.epochs_run}-epoch fit: "
        + ("all held" if ok else f"violated: {failed}"),
    )


# -- criterion 4: full-batch plain-gradient ascent is monotone -------------------


def test_criterion_04_monotone_ascent(standard_instance):
    from gridshock.train import fit

    cfg = standard_fit_config(
        step_size=1e-3, batch_slots=None, max_epochs=100, tol=1e-18, optimizer="plain-sgd"
    )
    _, report = fit(standard_instance.dataset, standard_instance.graph, cfg)
    diffs = np.diff(report.loglik_trace)
    decreases = int((diffs < -1e-9).sum())
    ok = decreases == 0 and len(report.loglik_trace) == 100
    _verdict(
        "C04",
        ok,
        f"fixed-step full-batch ascent over {len(report.loglik_trace)} epochs: "
        f"{decreases} decreases (slack 1e-9), min step {diffs.min():+.5f}",
    )


# -- criterion 5: parameter recovery on synthetic ground truth --------------------


def test_criterion_05_recovery(standard_instance, standard_fit):
    fitted, _ = standard_fit
    true = standard_instance.true_params

    true_edges = {(s, t) for s, t, _ in true.alpha.nonzero_edges()}
    est_edges = {(s, t) for s, t, a in fitted.alpha.nonzero_edges() if a >= SUPPORT_THRESHOLD}
    jaccard = len(true_edges & est_edges) / len(true_edges | est_edges)

    counts = standard_instance.dataset.outages.counts
    active = (counts != 0).sum(axis=1) >= 20
    beta_err = np.abs(fitted.beta - true.beta) / true.beta
    beta_med = float(np.median(beta_err[active]))

    om = fitted.decay.omega
    omega_ordered = om[0] < om[1]

    ok = jaccard >= 0.6 and beta_med <= 0.25 and omega_ordered
    _verdict(
        "C05",
        ok,
        f"recovery: edge-support Jaccard {jaccard:.3f} (>= 0.6), "
        f"median beta rel err {beta_med:.3f} on {int(active.sum())} active units (<= 0.25), "
        f"slow/fast decay order kept: {om[0]:.3f} < {om[1]:.3f} = {omega_ordered}",
    )


# -- criterion 6: teacher-forced simulation matches the intensity ------------------


def test_criterion_06_teacher_forced_simulation():
    rng = np.random.default_rng(101)
    params = random_small_params(rng, K=3, M=2, n_edges=2, hidden=(4,))
    T = 20
    weather = rng.normal(0.0, 1.0, (3, T, 2))
    observed = rng.poisson(1.5, (3, T))
    ds = wrap_dataset(observed, weather)
    lam = intensity_field(params, observed, weather).lam
    R = 100_000
    res = simulate_paths(params, ds.weather, ds.grid, R=R, seed=2024, teacher_forced_until=T, observed=observed)
    z = (res.cell_mean - lam) / np.sqrt(lam / R)
    worst = float(np.abs(z).max())
    ok = worst <= 4.0
    _verdict(
        "C06",
        ok,
        f"teacher-forced Monte Carlo (R={R}): max |z| {worst:.3f} over {lam.size} cells (<= 4.0)",
    )


# -- criterion 7: scenario engine consistency ---------------------------------------


def test_criterion_07_scenario_consistency(cascade_instance):
    p = cascade_instance.true_params
    ds = cascade_instance.dataset

    identity = outage_reductions(p, [Scenario()], ds.weather, ds.grid, R=50, seed=7)[0]
    exact_zero = identity.reduction_pct == 0.0

    base = simulate_paths(p, ds.weather, ds.grid, R=400, seed=11)
    dec = decompose_counts(p, base.cell_mean, ds.weather)
    d_sum, i_sum = dec.direct.sum(), dec.indirect.sum()
    cascade_share = 100.0 * i_sum / (d_sum + i_sum + p.eps * dec.direct.size)

    cut_all = Scenario(edge_reweights=[(s, t, 0.0) for s, t, _ in p.alpha.nonzero_edges()])
    res = outage_reductions(p, [cut_all], ds.weather, ds.grid, R=400, seed=11)[0]
    gap = abs(res.reduction_pct - cascade_share)
    ok = exact_zero and gap <= 3.0 * res.std_err_pct
    _verdict(
        "C07",
        ok,
        f"identity scenario reduction {identity.reduction_pct:+.1f}% (exactly 0), "
        f"cut-all-couplings reduction {res.reduction_pct:.3f}% vs cascade share {cascade_share:.3f}% "
        f"(gap {gap:.3f} <= 3 SE = {3 * res.std_err_pct:.3f})",
    )


# -- criterion 8: criticality ranking matches brute force -----------------------------


def test_criterion_08_criticality():
    worst = 0.0
    top_agree = 0
    trials = 50
    for seed in range(trials):
        rng = np.random.default_rng(3000 + seed)
        K = int(rng.integers(3, 7))
        T = int(rng.integers(5, 15))
        p, counts, _ = random_small_instance(rng, K=K, T=T, M=2, n_edges=K, max_count=6)
        scores = criticality_scores(p.alpha, counts, p)
        brute = brute_criticality(p.alpha.alpha, p.beta, counts, [(s, t) for s, t, _ in p.alpha.nonzero_edges()])
        rel = np.abs(scores - brute) / np.maximum(1.0, np.abs(brute))
        worst = max(worst, float(rel.max()))
        top_agree += int(np.argmax(scores) == np.argmax(brute))
    ok = worst < 1e-12 and top_agree == trials
    _verdict(
        "C08",
        ok,
        f"criticality vs brute force over {trials} instances: worst rel diff {worst:.2e} (tol 1e-12), "
        f"top-unit agreement {top_agree}/{trials}",
    )


# -- criterion 9: sigmoid response recovery ---------------------------------------------


def test_criterion_09_sigmoid_recovery():
    a_true, c_true, L_true = 2.0, 5.0, 0.9
    hits = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(5000 + trial)
        v = rng.uniform(0.0, 10.0, 200)
        r = L_true * expit(a_true * (v - c_true)) + rng.normal(0.0, 0.01, 200)
        fit = fit_sigmoid_points(v, r)
        close = (
            abs(fit.a - a_true) <= 0.1 * a_true
            and abs(fit.c - c_true) <= 0.1 * c_true
            and abs(fit.L - L_true) <= 0.1 * L_true
        )
        hits += int(close)
    ok = hits >= 95
    _verdict("C09", ok, f"sigmoid recovery within 10% on all of (a, c, L): {hits}/{trials} trials (need >= 95)")


# -- criterion 10: forecasts beat persistence on a held-out storm -------------------------


def test_criterion_10_predictive_skill(standard_fit, held_out_event):
    fitted, _ = standard_fit
    rep = predict_ahead(fitted, held_out_event, horizon_slots=1)
    ok = rep.beats_persistence
    _verdict(
        "C10",
        ok,
        f"one-slot-ahead on a fresh storm: model MAE {rep.mae:.4f} vs persistence {rep.persistence_mae:.4f} "
        f"(beats: {rep.beats_persistence})",
    )


# -- criterion 11: CLI pipeline reruns byte-identically -------------------------------------


def _run_cli_pipeline(base, monkeypatch):
    data = base / "data"
    data.mkdir(parents=True)
    _write_demo_csvs(data, np.random.default_rng(42))
    (data / "scenario.json").write_text(json.dumps({"edge_reweights": [[0, 1, 0.0]]}))
    monkeypatch.chdir(base)
    steps = [
        ["ingest", "--units", "data/units.csv", "--outages", "data/outages.csv",
         "--weather", "data/weather.csv", "--dataset", "out/dataset.gshk",
         "--output-dir", "out", "--slot-seconds", "3600"],
        ["fit", "--dataset", "out/dataset.gshk", "--model", "out/model.gshk",
         "--output-dir", "out", "--epochs", "15", "--seed", "3", "--k-neighbors", "3"],
        ["predict", "--dataset", "out/dataset.gshk", "--model", "out/model.gshk",
         "--output-dir", "out", "--horizon", "1"],
        ["simulate", "--dataset", "out/dataset.gshk", "--model", "out/model.gshk",
         "--output-dir", "out", "--replications", "40", "--seed", "11"],
        ["enhance", "--dataset", "out/dataset.gshk", "--model", "out/model.gshk",
         "--output-dir", "out", "--scenario", "data/scenario.json",
         "--replications", "40", "--seed", "11", "--sweep-units", "0,1", "--sweep-edges", "0,1"],
        ["analyze", "--dataset", "out/dataset.gshk", "--model", "out/model.gshk",
         "--output-dir", "out", "--sigmoid-variable", "wind_speed"],
        ["export-map", "--dataset", "out/dataset.gshk", "--model", "out/model.gshk",
         "--output-dir", "out"],
    ]
    for argv in steps:
        rc = cli.main(argv)
        assert rc == 0, f"command {argv[0]} exited {rc}"
    out = base / "out"
    return {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()}


def test_criterion_11_cli_rerun_identical(tmp_path, monkeypatch):
    first = _run_cli_pipeline(tmp_path / "run1", monkeypatch)
    second = _run_cli_pipeline(tmp_path / "run2", monkeypatch)
    same_names = set(first) == set(second)
    diff = [name for name in first if same_names and first[name] != second[name]]
    ok = same_names and not diff
    _verdict(
        "C11",
        ok,
        f"pipeline rerun in a fresh directory: {len(first)} artifacts, "
        + ("all byte-identical" if ok else f"mismatch: {diff or 'file sets differ'}"),
    )
