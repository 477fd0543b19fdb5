"""Shared fixtures. The expensive pieces (instances, the reference fit, the
held-out event) are session-scoped so the whole suite pays for them once."""

import numpy as np
import pytest
from hypothesis import settings

from synth import (
    VARIABLE_NAMES,
    make_cascade_instance,
    make_standard_instance,
    make_weather,
    numpy_poisson_path,
    standard_fit_config,
    wrap_dataset,
)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic and leaves no files behind.
settings.register_profile("gridshock", derandomize=True, database=None, deadline=None)
settings.load_profile("gridshock")

# Estimation settings used for every test that needs a fitted model. The
# single hidden layer is deliberate: the wide default memorizes the one
# training path and transfers poorly to fresh weather.
RECOVERY_FIT = dict(step_size=0.01, batch_slots=32, max_epochs=400, tol=1e-9, hidden_sizes=(8,))

# An estimated coupling at or above this counts as a recovered edge (the
# initializer starts every candidate at 0.01; true couplings are >= 0.25).
SUPPORT_THRESHOLD = 0.1


@pytest.fixture(scope="session")
def standard_instance():
    return make_standard_instance()


@pytest.fixture(scope="session")
def cascade_instance():
    return make_cascade_instance()


@pytest.fixture(scope="session")
def standard_fit(standard_instance):
    """One reference fit of the standard instance, shared across tests."""
    from gridshock.train import fit

    cfg = standard_fit_config(**RECOVERY_FIT)
    params, report = fit(standard_instance.dataset, standard_instance.graph, cfg)
    return params, report


@pytest.fixture(scope="session")
def held_out_event(standard_instance):
    """A fresh storm sequence from the same ground truth: new weather draw,
    new simulation seed, same units/graph/parameters."""
    T2 = 200
    plan = {0: [(40, 80), (140, 180)], 1: [(60, 66), (100, 106), (160, 166)], 2: [(90, 105)]}
    weather = make_weather(10, T2, 3, seed=81, storm_plan=plan, storm_gain={0: 2.5, 1: 1.8, 2: 2.2})
    counts = numpy_poisson_path(standard_instance.true_params, weather, seed=82)
    return wrap_dataset(counts, weather, variable_names=VARIABLE_NAMES, seed=7)
