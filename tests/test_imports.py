"""Start-up cost: what importing the package and its CLI pulls in."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import envarkit

# scipy subpackages that no command needs on every start-up; scipy.signal is
# imported by `fit --detrend` only, when it runs
_HEAVY = ("scipy.stats", "scipy.signal", "scipy.optimize", "scipy.spatial", "scipy.sparse")


def test_import_keeps_heavy_scipy_subpackages_out():
    src = str(Path(envarkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys, envarkit, envarkit.cli; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({_HEAVY!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == []
