import importlib
import pkgutil
import re
import types
from pathlib import Path

import sartrace

README = Path(__file__).resolve().parents[1] / "README.md"


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
