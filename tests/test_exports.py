"""The package's public names: each one in __all__ resolves, and none twice.

Engine names resolve on access (PEP 562), so these tests also pin that
resolution gives the defining module's own object and loads what it needs.
"""

import os
import subprocess
import sys
from pathlib import Path

import flagint

SRC = Path(flagint.__file__).resolve().parents[1]


def test_every_exported_name_resolves_once():
    assert len(flagint.__all__) == len(set(flagint.__all__))
    missing = [name for name in flagint.__all__ if not hasattr(flagint, name)]
    assert missing == []
    # to the very object of its defining module, and dir() lists it
    for name in flagint.__all__:
        obj = getattr(flagint, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(flagint.__all__) <= set(dir(flagint))


def test_a_submodule_resolves_after_a_bare_import():
    # the package imports no engine module itself, so the attribute loads it
    proc = subprocess.run(
        [sys.executable, "-c", "import flagint; print(flagint.quadrature.lq_mass.__name__)"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "lq_mass\n"
