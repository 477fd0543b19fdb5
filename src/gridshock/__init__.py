"""Spatio-temporal Poisson modeling of weather-driven customer power outages.

The package estimates a graph-coupled, self-exciting Poisson process for
per-unit outage counts on a uniform time grid, then answers the downstream
questions: how much of the damage is weather-direct vs cascading, which units
spread outages, where the disruption tolerance thresholds sit, and how much
what-if grid enhancements would help.

Submodules are imported lazily so the command-line front end can configure
threading before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "analyze",
    "cli",
    "container",
    "errors",
    "ingest",
    "model",
    "simulate",
    "topology",
    "train",
    "weather_effect",
)

_EXPORTS = {
    # errors
    "GridshockError": "errors",
    "ValidationError": "errors",
    "SchemaError": "errors",
    "InsufficientDataError": "errors",
    "NumericError": "errors",
    "DivergenceError": "errors",
    "FileFormatError": "errors",
    # ingest
    "UnitMeta": "ingest",
    "TimeGrid": "ingest",
    "OutageSeries": "ingest",
    "WeatherTensor": "ingest",
    "Dataset": "ingest",
    "load_units": "ingest",
    "aggregate_outages": "ingest",
    "aggregate_weather": "ingest",
    "save_dataset": "ingest",
    "load_dataset": "ingest",
    # weather_effect
    "DecayConfig": "weather_effect",
    "WeatherScaler": "weather_effect",
    "accumulate": "weather_effect",
    "accumulate_with_grad": "weather_effect",
    # topology
    "Graph": "topology",
    "EdgeWeights": "topology",
    "build_candidate_graph": "topology",
    "enforce_no_loops": "topology",
    "criticality_scores": "topology",
    "export_propagation_map": "topology",
    # model
    "MlpParams": "model",
    "ModelParams": "model",
    "IntensityField": "model",
    "intensity": "model",
    "intensity_field": "model",
    "serialize": "model",
    "deserialize": "model",
    # train
    "FitConfig": "train",
    "FitReport": "train",
    "log_likelihood": "train",
    "gradients": "train",
    "project": "train",
    "initialize": "train",
    "fit": "train",
    # simulate
    "Scenario": "simulate",
    "SimResult": "simulate",
    "simulate_paths": "simulate",
    "apply_scenario": "simulate",
    "outage_reductions": "simulate",
    "sweep_scenarios": "simulate",
    # analyze
    "decompose": "analyze",
    "predict_in_sample": "analyze",
    "predict_ahead": "analyze",
    "fit_sigmoid": "analyze",
    "fit_sigmoid_points": "analyze",
    "restoration_durations": "analyze",
}

__all__ = ["__version__", *sorted(_SUBMODULES), *sorted(_EXPORTS)]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
