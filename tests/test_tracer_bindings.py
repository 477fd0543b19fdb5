"""The benchmark tracer patches functions at the names their callers bind;
every such name must exist, or a traced benchmark run fails."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.install(tracer.Tracer())
    finder = sys.meta_path.pop(0)
    assert isinstance(finder, tracer.PatchOnImport)
    missing = [
        f"{module}.{attr}"
        for module, patches in finder.patches.items()
        for attr, _ in patches
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert finder.patches and not missing
