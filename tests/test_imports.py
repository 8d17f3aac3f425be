"""What importing the package loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import survcheck

SUBPACKAGES = """
import json, sys
{imports}
print(json.dumps(sorted({{".".join(m.split(".")[:2]) for m in sys.modules
                         if m.startswith("scipy.")}})))
"""


def fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this survcheck; its stdout."""
    src = str(Path(survcheck.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env).stdout


def loaded_scipy(imports: str) -> set[str]:
    """The scipy.* subpackages a fresh interpreter holds after ``imports``."""
    return set(json.loads(fresh_python(SUBPACKAGES.format(imports=imports))))


def test_package_import_loads_no_more_of_scipy():
    # scipy.interpolate and scipy.optimize pull in scipy.linalg and
    # scipy.sparse: about 0.3 s and 26 MiB of every CLI start
    assert loaded_scipy("import survcheck, survcheck.cli") <= loaded_scipy("import scipy.special")


CALIBRATE = """
import sys
import numpy as np
import survcheck, survcheck.cli
assert "scipy.optimize" not in sys.modules
rng = np.random.default_rng(0)
p = rng.uniform(0.05, 0.95, 20)
series, inside = survcheck.calibration_check(p, (rng.random(20) < p).astype(int), n_sim=50)
assert "calibration_band" in [s.name for s in series]
assert "scipy.optimize" in sys.modules
"""


def test_isotonic_regression_loads_at_first_calibration():
    fresh_python(CALIBRATE)
