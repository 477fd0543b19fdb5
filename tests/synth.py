"""Synthetic instances shared across the test suite.

All generators are deterministic in their seed. The "standard" instance is a
K=10, T=500, M=3 configuration whose data is one simulated path from a known
parameter set; the "cascade" instance uses very fast recovery rates so that
self-excitation mass is negligible and cross-unit coupling dominates.

The paths are drawn by `numpy_poisson_path`, the suite's own rollout, not by
`gridshock.simulate`, so a change to the package's sampler cannot change the
data its tests fit and score.
"""

import json
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from gridshock.container import MAGIC
from gridshock.ingest import Dataset, OutageSeries, TimeGrid, UnitMeta, WeatherTensor
from gridshock.model import Coupling, Kernel, MlpParams, ModelParams, direct_from_weather, kernel_mass_closed_form
from gridshock.topology import EdgeWeights, Graph, build_candidate_graph, enforce_no_loops
from gridshock.weather_effect import DecayConfig, WeatherScaler

GRID_START = datetime(2023, 3, 1, tzinfo=timezone.utc)
VARIABLE_NAMES = ["wind_speed", "wind_gust", "precip_rate"]

# Shape constants of the standard instance, shared by the fits run on it.
# The accumulation window is shorter than the 24-slot default so the
# weather-effect magnitudes keep the fixed-step ascent benchmark inside its
# stable region; the base rate is large enough that the default starting
# point already explains calm periods (no residual spikes at tiny lambda).
STANDARD_WINDOW = 8
STANDARD_EPS = 0.05


def standard_fit_config(**overrides):
    """FitConfig matched to the standard instance's window and base rate."""
    from gridshock.train import FitConfig

    kwargs = dict(window_slots=STANDARD_WINDOW, eps=STANDARD_EPS, seed=7)
    kwargs.update(overrides)
    return FitConfig(**kwargs)


@dataclass
class SynthInstance:
    dataset: Dataset
    graph: Graph
    true_params: ModelParams
    true_edges: list  # (source, target) pairs with nonzero true coupling
    seed: int


def make_units(K, seed=0, spacing_deg=0.12, base=(42.30, -71.10)):
    """K units on a jittered grid; spacing ~13 km so k-NN graphs are stable."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(K)))
    units = []
    for i in range(K):
        row, col = divmod(i, side)
        lat = base[0] + row * spacing_deg + rng.uniform(-0.015, 0.015)
        lon = base[1] + col * spacing_deg + rng.uniform(-0.015, 0.015)
        units.append(
            UnitMeta(
                unit_id=f"u{i:03d}",
                centroid_lat=float(lat),
                centroid_lon=float(lon),
                total_customers=int(rng.integers(8_000, 60_000)),
            )
        )
    return units


def make_weather(K, T, M, seed=0, storm_plan=None, storm_gain=2.5):
    """Mean-reverting AR(1) per variable plus half-sine storm bumps.

    storm_plan maps a variable index to its own list of (start, end) slot
    windows, so the variables' time courses stay decorrelated and each decay
    rate is separately identifiable from its variable's bursts. storm_gain
    may be a scalar or a per-variable mapping.
    """
    rng = np.random.default_rng(seed)
    base = np.array([6.0, 3.0, 1.0])[:M]
    x = np.zeros((K, T, M))
    state = base + rng.normal(0.0, 0.5, (K, M))
    for t in range(T):
        state = base + 0.85 * (state - base) + rng.normal(0.0, 0.6, (K, M))
        x[:, t, :] = state
    for m, windows in (storm_plan or {}).items():
        gain = storm_gain[m] if isinstance(storm_gain, dict) else storm_gain
        for s0, s1 in windows:
            shape = np.sin(np.linspace(0.0, np.pi, s1 - s0))
            bump = rng.uniform(0.8, 1.2, K)[:, None] * gain * base[m]
            x[:, s0:s1, m] += bump * shape[None, :]
    return np.clip(x, 0.0, None)


def pick_loop_free_edges(graph: Graph, rng, max_out_degree=1):
    """Thin a candidate graph to a loop-free support with small out-degree."""
    by_source = {}
    for s, t in graph.edges:
        by_source.setdefault(s, []).append(t)
    chosen = []
    taken_pairs = set()
    for s in rng.permutation(graph.num_nodes):
        s = int(s)
        targets = by_source.get(s, [])
        rng.shuffle(targets)
        out = 0
        for t in targets:
            if out >= max_out_degree:
                break
            if (min(s, t), max(s, t)) in taken_pairs:
                continue
            chosen.append((s, t))
            taken_pairs.add((min(s, t), max(s, t)))
            out += 1
    return sorted(chosen)


def _boosted_network(M, hidden, seed, gain=1.6):
    mlp = MlpParams.init_random(M, hidden=hidden, seed=seed)
    mlp.weights = [w * gain for w in mlp.weights]
    return mlp


def _channel_network(slopes, thresholds, gains, out_bias, hidden=(32, 16)):
    """Network with one smooth threshold channel per weather variable.

    mu = softplus(sum_m gains[m] * tanh(tanh(slopes[m] * (v_m - thresholds[m])))
    + out_bias). Channel m only sees variable m, so each variable drives the
    intensity at its own cumulative-effect scale. Only the first M hidden
    units are active; the layer widths match the default fitting architecture
    so a fit can represent the same function.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    gains = np.asarray(gains, dtype=np.float64)
    M = slopes.shape[0]
    mlp = MlpParams.zeros(M, hidden=hidden)
    for m in range(M):
        mlp.weights[0][m, m] = slopes[m]
        mlp.biases[0][m] = -slopes[m] * thresholds[m]
        mlp.weights[1][m, m] = 1.0
        mlp.weights[2][m, 0] = gains[m]
    mlp.biases[2][0] = out_bias
    return mlp


def numpy_poisson_path(params, weather, seed):
    """One free-running path (K x T counts) of the model over `weather`,
    drawing slot t's K counts with numpy's Generator.poisson from
    default_rng(seed), one slot after another; the intensity is summed by
    model.py's kernel state and coupling, as in a rollout."""
    x = np.asarray(weather, dtype=np.float64)
    K, T = x.shape[:2]
    rng = np.random.default_rng(seed)
    mu_direct = direct_from_weather(params, x)
    kern = Kernel(params.beta, params.trig_window)
    coupling = Coupling(params.alpha)
    path = np.zeros((K, T))
    P = np.zeros(K)
    for t in range(T):
        lam_t = mu_direct[:, t] + coupling.apply(params.beta * P) + params.eps
        path[:, t] = rng.poisson(lam_t)
        P = kern.step(P, path[:, t], path[:, t - kern.window] if t >= kern.window else None)
    return path.astype(np.int64)


def make_standard_instance(seed=7, K=10, T=500, M=3):
    """The K=10, T=500, M=3 instance: one simulated path from known truth.

    Design notes: recovery rates in [1.0, 1.5] and couplings in [0.25, 0.45]
    with out-degree <= 1 keep total branching safely below 1; the first decay
    rate (0.05) and the second (1.0) are far apart so their ordering is an
    identifiable target.
    """
    rng = np.random.default_rng(seed)
    units = make_units(K, seed=seed)
    grid = TimeGrid(start=GRID_START, slot_seconds=3600, num_slots=T)
    # Each variable bursts on its own schedule, at a duration matched to its
    # true decay rate (long fronts for the slow rate, sharp pulses for the
    # fast one) so all three rates leave separate fingerprints.
    storm_plan = {
        0: [(60, 100), (210, 260), (380, 430)],
        1: [(110, 116), (150, 156), (270, 276), (300, 306), (340, 346), (450, 456)],
        2: [(130, 145), (320, 335), (460, 475)],
    }
    x = make_weather(
        K, T, M, seed=seed + 1, storm_plan=storm_plan,
        storm_gain={0: 2.5, 1: 1.8, 2: 2.2},
    )
    graph = build_candidate_graph(units, k_neighbors=3, max_km=60.0)

    true_edges = pick_loop_free_edges(graph, rng, max_out_degree=1)
    alpha = np.zeros((K, K))
    for s, t in true_edges:
        alpha[t, s] = rng.uniform(0.25, 0.45)
    np.fill_diagonal(alpha, 1.0)
    weights = enforce_no_loops(EdgeWeights(graph=graph, alpha=alpha))

    params = ModelParams(
        alpha=weights,
        beta=rng.uniform(1.0, 1.5, K),
        gamma=rng.uniform(0.2, 0.4, K),
        decay=DecayConfig(omega=np.array([0.05, 1.0, 0.3])[:M], window_slots=STANDARD_WINDOW),
        mlp=_channel_network(
            slopes=(0.22, 0.32, 0.28),
            thresholds=(2.5, 3.0, 5.0),
            gains=(2.08, 1.10, 1.20),
            out_bias=0.87,
        ),
        scaler=WeatherScaler.fit(x),
        eps=STANDARD_EPS,
    )
    params.check_invariants()

    dataset = Dataset(
        units=units,
        grid=grid,
        outages=OutageSeries(counts=numpy_poisson_path(params, x, seed + 2)),
        weather=WeatherTensor(values=x, variable_names=list(VARIABLE_NAMES[:M])),
    )
    return SynthInstance(
        dataset=dataset, graph=graph, true_params=params, true_edges=true_edges, seed=seed
    )


def make_cascade_instance(seed=21, K=6, T=240, cross_branching=0.25):
    """Chain-coupled instance with near-instant recovery (beta = 10).

    With beta that fast the self-excitation mass per event is ~4.5e-4, so
    essentially all triggered intensity flows across the chain edges; the
    expected fraction of outages removed by cutting every edge then equals
    the triggered share of the intensity to well inside Monte Carlo noise.
    """
    rng = np.random.default_rng(seed)
    units = []
    for i in range(K):
        units.append(
            UnitMeta(
                unit_id=f"c{i:02d}",
                centroid_lat=42.0 + 0.1 * i,
                centroid_lon=-71.5 + rng.uniform(-0.01, 0.01),
                total_customers=int(rng.integers(10_000, 40_000)),
            )
        )
    grid = TimeGrid(start=GRID_START, slot_seconds=3600, num_slots=T)
    M = 2
    x = make_weather(K, T, M, seed=seed + 1)

    graph = build_candidate_graph(units, k_neighbors=2, max_km=30.0)
    beta_val = 10.0
    mass = kernel_mass_closed_form(beta_val, 40)
    chain = [(i, i + 1) for i in range(K - 1)]
    alpha = np.zeros((K, K))
    for s, t in chain:
        alpha[t, s] = cross_branching / mass
    np.fill_diagonal(alpha, 1.0)
    weights = enforce_no_loops(EdgeWeights(graph=graph, alpha=alpha))

    params = ModelParams(
        alpha=weights,
        beta=np.full(K, beta_val),
        gamma=np.full(K, 0.9),
        decay=DecayConfig(omega=np.array([0.2, 0.2])),
        mlp=MlpParams.zeros(M),
        scaler=WeatherScaler.fit(x),
    )
    params.check_invariants()

    dataset = Dataset(
        units=units,
        grid=grid,
        outages=OutageSeries(counts=numpy_poisson_path(params, x, seed + 2)),
        weather=WeatherTensor(values=x, variable_names=["wind_speed", "precip_rate"]),
    )
    return SynthInstance(
        dataset=dataset, graph=graph, true_params=params, true_edges=chain, seed=seed
    )


def random_small_params(rng, K=4, M=2, n_edges=4, hidden=(3,), eps=1e-3, trig_window=40):
    """Random constraint-satisfying parameters on a random small graph."""
    pairs = [(s, t) for s in range(K) for t in range(K) if s != t]
    idx = rng.permutation(len(pairs))[: max(n_edges, 1)]
    edges = set()
    for k in idx:
        s, t = pairs[int(k)]
        edges.add((s, t))
        edges.add((t, s))
    graph = Graph(num_nodes=K, edges=tuple(sorted(edges)))
    alpha = np.zeros((K, K))
    for s, t in graph.edges:
        alpha[t, s] = rng.uniform(0.05, 0.6)
    np.fill_diagonal(alpha, 1.0)
    weights = enforce_no_loops(EdgeWeights(graph=graph, alpha=alpha))
    mlp = MlpParams.init_random(M, hidden=hidden, seed=int(rng.integers(0, 2**31)))
    return ModelParams(
        alpha=weights,
        beta=rng.uniform(0.3, 2.0, K),
        gamma=rng.uniform(0.1, 1.5, K),
        decay=DecayConfig(omega=rng.uniform(0.0, 1.2, M)),
        mlp=mlp,
        scaler=WeatherScaler(mean=np.zeros(M), scale=np.ones(M)),
        eps=eps,
        trig_window=trig_window,
    )


def random_small_instance(rng, K=4, T=8, M=2, n_edges=4, hidden=(3,), max_count=4):
    """Random params plus random counts/weather (not drawn from the model)."""
    params = random_small_params(rng, K=K, M=M, n_edges=n_edges, hidden=hidden)
    counts = rng.integers(0, max_count + 1, (K, T))
    weather = rng.normal(0.0, 1.0, (K, T, M))
    return params, counts, weather


def wrap_dataset(counts, weather, variable_names=None, seed=0):
    """Package raw count/weather arrays as a Dataset on an hourly grid."""
    counts = np.asarray(counts)
    K, T = counts.shape
    M = weather.shape[2]
    names = variable_names or [f"var{m}" for m in range(M)]
    return Dataset(
        units=make_units(K, seed=seed),
        grid=TimeGrid(start=GRID_START, slot_seconds=3600, num_slots=T),
        outages=OutageSeries(counts=counts),
        weather=WeatherTensor(values=np.asarray(weather, dtype=np.float64), variable_names=names),
    )


def rewrite_container_header(path, edit):
    """Replace the header of the container at `path` by `edit(header)`, keeping its payload."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    hb = json.dumps(edit(json.loads(blob[start : start + hlen]))).encode()
    path.write_bytes(MAGIC + len(hb).to_bytes(8, "little") + hb + blob[start + hlen :])
