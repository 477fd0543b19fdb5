"""The benchmark tracer patches functions at the names their callers bind;
every such name must exist, and every argument its callbacks read must be
where they read it, or a traced benchmark run fails."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The leading parameters that the tracer's span labels and counters read, by
# position, from each call of the function bound under that name.
TRACED_ARGUMENTS = {
    "_block_loglik_and_grads": ["params", "counts", "weather", "t0", "t1"],
    "mlp_forward": ["mlp", "v"],
    "mlp_backward": ["mlp", "cache", "dmu"],
    "simulate_paths": ["params", "weather", "grid", "R", "seed"],
    "read_container": ["path"],
    "write_container": ["path"],
    "write_predictions_csv": ["path", "report"],
}


def _traced_bindings():
    """(module name, attribute) of every binding the tracer patches."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.install(tracer.Tracer())
    finder = sys.meta_path.pop(0)
    assert isinstance(finder, tracer.PatchOnImport)
    return [(module, attr) for module, patches in finder.patches.items() for attr, _ in patches]


def test_every_traced_binding_exists():
    bindings = _traced_bindings()
    missing = [f"{module}.{attr}" for module, attr in bindings if not hasattr(importlib.import_module(module), attr)]
    assert bindings and not missing


def test_traced_functions_take_the_arguments_the_tracer_reads():
    checked = set()
    for module, attr in _traced_bindings():
        if attr not in TRACED_ARGUMENTS:
            continue
        leading = TRACED_ARGUMENTS[attr]
        params = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters.values())
        assert [p.name for p in params[: len(leading)]] == leading, f"{module}.{attr}"
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[: len(leading)]), f"{module}.{attr}"
        checked.add(attr)
    assert checked == set(TRACED_ARGUMENTS)
