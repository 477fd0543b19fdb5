"""Only the code that fits (the network's backward pass) or fits response
curves uses scipy, so the other commands must start without loading it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_forward_only_modules_do_not_import_scipy():
    code = (
        "import sys\n"
        "import gridshock.cli, gridshock.ingest, gridshock.model\n"
        "import gridshock.topology, gridshock.simulate, gridshock.analyze\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"
