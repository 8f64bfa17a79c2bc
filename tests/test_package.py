import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sartrace

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_submodule_attributes_are_modules():
    names = [m.name for m in pkgutil.iter_modules(sartrace.__path__)]
    assert "learn" in names
    for name in names:
        importlib.import_module(f"sartrace.{name}")
        assert isinstance(getattr(sartrace, name), types.ModuleType), name


def test_readme_library_use_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert namespace["image"].intensities.sum() > 0
    assert namespace["result"].iterations == 5


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_runs(script):
    """Each script imports and parses its arguments against the current package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
