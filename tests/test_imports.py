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


def loaded_scipy(imports: str) -> set[str]:
    """The scipy.* subpackages a fresh interpreter holds after ``imports``."""
    src = str(Path(survcheck.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", SUBPACKAGES.format(imports=imports)],
                         capture_output=True, text=True, check=True, env=env)
    return set(json.loads(out.stdout))


def test_package_import_loads_no_more_of_scipy():
    # scipy.stats alone costs about 0.4 s and 19 MiB of every CLI start
    loaded = loaded_scipy("import survcheck, survcheck.cli")
    assert "scipy.stats" not in loaded
    assert loaded <= loaded_scipy("import scipy.special, scipy.optimize, scipy.interpolate")
