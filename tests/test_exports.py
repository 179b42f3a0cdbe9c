import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lincone

ROOT = Path(__file__).resolve().parent.parent

MODULES = ["lincone"] + [f"lincone.{info.name}" for info in pkgutil.iter_modules(lincone.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A deleted primitive must not linger in an export list.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)


def test_import_leaves_scipy_optimize_and_spatial_unloaded():
    # Importing lincone is part of every solver's start-up cost, so the
    # modules behind goffin_oracle load inside it, on first call.
    code = (
        "import sys, lincone; "
        "print(sorted(k for k in sys.modules if k.startswith(('scipy.optimize', 'scipy.spatial'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
