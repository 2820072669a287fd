"""Cold-start import path: ``repro.cli`` and ``repro wmin`` load no SciPy.

The pitch CDFs, the Poisson pmf and the shorts binomial import SciPy at
their call sites, so a fresh ``repro`` process that never evaluates a
renewal count distribution does not pay the ``scipy.stats`` /
``scipy.special`` import.  Both checks run in a fresh interpreter, since
this test process has long since imported SciPy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _fresh(args):
    """Run ``python <args>`` with this checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )


def test_import_repro_cli_loads_no_scipy():
    done = _fresh([
        "-c",
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    assert done.stdout.strip() == "[]"


def test_wmin_json_loads_no_scipy():
    # -X importtime lists every module the command imports on stderr.
    done = _fresh(["-X", "importtime", "-m", "repro.cli", "wmin", "--json"])
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    # ``-m`` runs repro.cli as __main__; the modules that used to import
    # scipy.stats at module scope are still imported.
    assert {"repro.growth.pitch", "repro.core.count_model"} <= imported
    assert "scipy.stats" not in imported
    assert "scipy.special" not in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
    assert "wmin_optimized_nm" in json.loads(done.stdout)
