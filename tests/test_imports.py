"""Only `analyze`'s response-curve fit uses scipy, so every other command,
`fit` included, must start and run without loading it."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    code += "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    path = os.pathsep.join([str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


def test_forward_only_modules_do_not_import_scipy():
    code = (
        "import gridshock.cli, gridshock.ingest, gridshock.model\n"
        "import gridshock.topology, gridshock.simulate, gridshock.analyze\n"
    )
    assert _scipy_modules_after(code) == "[]"


def test_fitting_and_the_gradient_audit_do_not_import_scipy():
    code = (
        "import numpy as np\n"
        "from synth import random_small_instance, wrap_dataset\n"
        "from gridshock import train\n"
        "params, counts, weather = random_small_instance(np.random.default_rng(0), K=3, T=12, M=2, n_edges=2)\n"
        "ds = wrap_dataset(counts, weather)\n"
        "train.fit(ds, params.graph, train.FitConfig(max_epochs=2, batch_slots=4, hidden_sizes=(3,)))\n"
        "train.fd_audit(params, ds, max_coords=5)\n"
    )
    assert _scipy_modules_after(code) == "[]"
