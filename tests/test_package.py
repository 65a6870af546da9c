import os
import subprocess
import sys
from pathlib import Path

import radsurj

# Runs in a fresh interpreter so that modules the test suite itself
# loads (pytest, sympy, hypothesis) cannot hide or fake an import.
_IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
before = set(sys.modules)
import radsurj
for info in pkgutil.iter_modules(radsurj.__path__):
    importlib.import_module("radsurj." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(n for n in loaded if n != "radsurj" and n not in sys.stdlib_module_names)
assert not foreign, foreign
missing = [n for n in radsurj.__all__ if not hasattr(radsurj, n)]
assert not missing, missing
print(len(radsurj.__all__))
"""


def test_package_imports_only_the_standard_library():
    src = str(Path(radsurj.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERYTHING],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == len(radsurj.__all__) > 0
