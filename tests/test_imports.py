"""No `gridshock` command loads scipy: the network, the fit and the
response-curve solver are numpy only. scipy is a test dependency, used as a
reference in the tests. The package root and the CLI load no numpy at all,
so `--threads` can still pin the thread pools before numpy starts them."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _modules_after(code: str, package: str = "scipy") -> str:
    """The modules of `package` loaded once `code` has run in a fresh interpreter."""
    code += f"import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    path = os.pathsep.join([str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


def test_the_package_and_the_cli_do_not_import_numpy():
    assert _modules_after("import gridshock, gridshock.cli\n", "numpy") == "[]"


def test_forward_only_modules_do_not_import_scipy():
    code = (
        "import gridshock.cli, gridshock.ingest, gridshock.model\n"
        "import gridshock.topology, gridshock.simulate, gridshock.analyze\n"
    )
    assert _modules_after(code) == "[]"


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
    assert _modules_after(code) == "[]"


def test_analyze_and_the_response_curve_do_not_import_scipy(tmp_path):
    code = (
        "import numpy as np\n"
        "from synth import random_small_instance, wrap_dataset\n"
        "from gridshock import cli, ingest, model\n"
        "params, counts, weather = random_small_instance(np.random.default_rng(1), K=3, T=12, M=2, n_edges=2)\n"
        "ds = wrap_dataset(counts, weather, variable_names=['wind_speed', 'precip_rate'])\n"
        f"out = {str(tmp_path)!r}\n"
        "ingest.save_dataset(ds, out + '/dataset.gshk')\n"
        "model.serialize(params, out + '/model.gshk')\n"
        "assert cli.main(['analyze', '--dataset', out + '/dataset.gshk', '--model', out + '/model.gshk',\n"
        "                 '--output-dir', out, '--sigmoid-variable', 'wind_speed']) == 0\n"
        "from gridshock.analyze import SigmoidFit\n"
        "SigmoidFit(variable='v', a=1.0, c=0.5, L=0.5, rmse=0.0, n_points=10).predict(np.linspace(0.0, 1.0, 5))\n"
    )
    assert _modules_after(code) == "[]"
    assert (tmp_path / "sigmoid.csv").read_text().startswith("variable,a,c,L,rmse,n_points\nwind_speed,")


def test_every_public_name_resolves_in_its_module():
    """An `_EXPORTS` entry left naming a deleted function fails here, not in a user's import."""
    import gridshock

    for name in gridshock.__all__:
        value = getattr(gridshock, name)
        if name in gridshock._EXPORTS:
            assert value.__module__ == f"gridshock.{gridshock._EXPORTS[name]}", name
