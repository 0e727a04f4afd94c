"""``src/`` runs on the standard library alone.

CI's tier-1 job installs only pytest and hypothesis, so every ``repro``
module must import in an interpreter where numpy — and every other
package outside the standard library — is absent.  A fresh interpreter
blocks them with a meta-path finder and imports the whole package tree.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import importlib
import importlib.abc
import pkgutil
import sys

ALLOWED = set(sys.stdlib_module_names) | {"repro"}


class ThirdPartyBlocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] not in ALLOWED:
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)",
                                      name=name)
        return None


sys.meta_path.insert(0, ThirdPartyBlocker())
for name in [name for name in sys.modules if name.split(".")[0] == "numpy"]:
    del sys.modules[name]
try:
    import numpy  # noqa: F401
except ModuleNotFoundError:
    pass
else:
    raise SystemExit("numpy was not blocked")

import repro

modules = ["repro"]
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    modules.append(info.name)
print(len(modules))
"""


def test_every_module_imports_without_third_party_packages():
    environment = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=environment,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert int(completed.stdout.split()[-1]) > 50


def test_the_pyramid_module_is_among_them():
    """The image pyramid was the last module to import numpy."""
    source = os.path.join(SRC, "repro", "loader", "imagepyramid.py")
    with open(source, encoding="utf-8") as handle:
        assert "numpy" not in handle.read()
