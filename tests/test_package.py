import argparse
import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sartrace
from sartrace import experiments
from sartrace.cli import _parser, parse_config
from sartrace.scene import PARAM_CHANNELS, PARAM_LOWER, PARAM_UPPER

from conftest import load_script, run_script

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


def test_readme_config_block_is_the_demo_config(tmp_path, monkeypatch):
    """The README's commented config parses to what scripts/make_demo_scene.py writes."""
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "readme.ini").write_text(block)
    run_script(monkeypatch, "make_demo_scene.py", tmp_path / "demo")
    assert parse_config(tmp_path / "readme.ini") == parse_config(tmp_path / "demo" / "run.ini")


def test_readme_lists_every_script():
    """The README's "Experiment scripts" list names exactly the files in scripts/."""
    section = README.read_text(encoding="utf-8").split("## Experiment scripts", 1)[1]
    listed = re.findall(r"^\* `scripts/([^` ]+)", section.split("\n## ", 1)[0], re.MULTILINE)
    assert sorted(listed) == sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


def test_readme_command_line_names_every_option():
    """The README's "Command line" section names exactly the options of
    the CLI's subcommands: none undocumented, none stale."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section.split("\n## ", 1)[0]))
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in commands.choices.values() for action in sub._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    assert (sorted(options - named), sorted(named - options)) == ([], [])   # undocumented, stale


def test_readme_states_the_parameter_box():
    """The README's bounds table and its sweep sentence each give every
    channel's interval as scene.PARAM_LOWER and PARAM_UPPER hold it."""
    box = {c: (lo, hi) for c, lo, hi in zip(PARAM_CHANNELS, PARAM_LOWER, PARAM_UPPER)}
    text = README.read_text(encoding="utf-8")
    table = text.split("Per-vertex parameters", 1)[1].split("\n\n", 2)[1]
    sweep = " ".join(text.split("* `sweep`", 1)[1].split("\n\n", 1)[0].split())
    for stated in (re.findall(r"^\| `(\w+)` .*\| \[([^,\]]+), ([^\]]+)\] +\|$", table, re.M),
                   re.findall(r"\b(\w+) in \[([^,\]]+), ([^\]]+)\]", sweep)):
        assert {c: tuple(sum(float(t) for t in end.split("+")) for end in ends)
                for c, *ends in stated} == box


def imports(tree, source):
    """(names bound, marked `# noqa: F401`) for each import of a module
    but `from __future__`."""
    lines = source.splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        yield [alias.asname or alias.name.split(".")[0] for alias in node.names], marked


def unused_imports(path):
    """Names a module imports and never reads, except on `# noqa: F401` lines."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    imported = {name for names, marked in imports(tree, source) if not marked for name in names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


PACKAGE = ROOT / "src" / "sartrace"


def test_noqa_imports_are_traced_boundaries():
    """A `# noqa: F401` import in the package binds only names that the
    benchmark's tracer (perfbench/tracing.py BOUNDARIES) wraps in that same
    module, so the marker hides no dead import, and the bindings go when
    the benchmark stops wrapping them."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {(module, name) for module, name, _ in tracing.BOUNDARIES}
    bound = set()
    for path in PACKAGE.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        for names, marked in imports(ast.parse(source), source):
            bound.update((f"sartrace.{path.stem}", name) for name in names if marked)
    assert sorted(bound - wrapped) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    """The package's modules, tests and scripts; __init__.py re-exports, so
    it is left out."""
    assert unused_imports(path) == []


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_runs(script):
    """Each script imports and parses its arguments against the current package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("parent, change, better, word, wins", [
    # ten wins, and the medians differ by more than the parent's quartile spread
    ([5.7, 5.8, 5.75, 5.9, 5.72, 5.78, 5.81, 5.74, 5.86, 5.77],
     [5.0, 4.9, 5.05, 5.1, 4.95, 5.02, 4.98, 5.01, 5.07, 4.97], "lower", "gain", 10),
    # higher is better: the same runs read the other way round
    ([5.0, 4.9, 5.05, 5.1, 4.95, 5.02, 4.98, 5.01, 5.07, 4.97],
     [5.7, 5.8, 5.75, 5.9, 5.72, 5.78, 5.81, 5.74, 5.86, 5.77], "higher", "gain", 10),
    # eight wins are not nine tenths
    ([2.0] * 10, [1.0] * 8 + [3.0] * 2, "lower", "within bound", 8),
    ([1.0] * 10, [1.5] * 10, "lower", "worse", 0),
    # a parent spread wider than the bound, and the sides overlap
    ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [1.5] * 10, "lower", "unresolved", 5),
    ([1.0] * 10, [1.0] * 10, "lower", "within bound", 0),
])
def test_bench_pairs_verdict(parent, change, better, word, wins):
    """scripts/bench_pairs.py: ties count for neither side, a gain needs nine
    tenths of the pairs and a median gap wider than the parent's quartiles."""
    assert load_script("bench_pairs.py").verdict(parent, change, better, 0.25) == (wins, word)


@pytest.mark.parametrize("dirty", ["parent", "change"])
def test_bench_pairs_refuses_stale_bytecode(tmp_path, dirty):
    """scripts/bench_pairs.py names a checkout's src/ __pycache__ before it
    reads anything else of the checkouts (these have no BENCHMARK.json)."""
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "sartrace").mkdir(parents=True)
    cache = tmp_path / dirty / "src" / "sartrace" / "__pycache__"
    cache.mkdir()
    with pytest.raises(SystemExit) as exit_info:
        load_script("bench_pairs.py").main([str(tmp_path / "parent"), str(tmp_path / "change")])
    assert str(exit_info.value.code).startswith(f"{cache}: bytecode under src/")


def test_op_faults_smoke(monkeypatch, capsys):
    """scripts/op_faults.py prints a header and one line of medians per operation."""
    run_script(monkeypatch, "op_faults.py", "--ops", 3)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["operation", "ops", "minflt_p50", "cpu_ms_p50"]
    rows = {name: (int(ops), float(faults), float(cpu_ms))
            for name, ops, faults, cpu_ms in (line.split() for line in lines[1:])}
    assert sorted(rows) == ["bvh_render", "bvh_render_16", "bvh_render_scanned",
                            "learn_iteration", "simulate", "terrain_learn_iteration"]
    for ops, faults, cpu_ms in rows.values():
        assert ops == 3 and faults >= 0 and cpu_ms > 0


@pytest.mark.parametrize("protocol", ["cube", "building"])
def test_recover_params_smoke(monkeypatch, capsys, protocol):
    """scripts/recover_params.py prints, per phase and per parameter, what
    run_recovery and recovered_errors give; each phase is cut to 2 iterations."""
    make = getattr(experiments, f"{protocol}_recovery_protocol")

    def truncated(**kwargs):
        proto = make(**kwargs)
        return dataclasses.replace(
            proto, phases=tuple(dataclasses.replace(p, iters=2) for p in proto.phases))

    monkeypatch.setattr(experiments, f"{protocol}_recovery_protocol", truncated)
    run_script(monkeypatch, "recover_params.py", "--protocol", protocol)
    lines = capsys.readouterr().out.splitlines()

    proto = truncated()
    params, _, used = experiments.run_recovery(proto)
    errors = experiments.recovered_errors(proto, params)
    vid = proto.target_ids[0]
    phases = len(proto.phases)
    assert [line.split(":")[0].split() for line in lines[:phases]] == [
        ["iter", str(2 * (i + 1))] for i in range(phases)]
    assert lines[phases].startswith(f"finished {used} Adam iterations in ")
    assert lines[phases + 1].split() == ["parameter", "init", "recovered", "truth", "err"]
    rows = {line[:10].strip(): line[10:].split() for line in lines[phases + 2:]}
    assert rows == {name: [f"{proto.init.values[vid, c]:.4g}", f"{params.values[vid, c]:.6g}",
                           f"{proto.truth.values[vid, c]:.4g}", f"{errors[c] * 100:.2f}%"]
                    for name, c in (("eps_r", 2), ("h (m)", 0), ("l (m)", 1))}


SRC_LINES_SAMPLE = '''"""Module docstring,
over two lines."""
# a comment line

import os  # a trailing comment


def f(x):
    """Docstring."""
    s = """a string, not a docstring,
    over two lines"""
    return (x +
            1)


class C:
    \'\'\'Class docstring.\'\'\'
    pass


def g():
    "only a docstring"
'''


def test_src_lines_counts_code_lines(tmp_path, capsys):
    """scripts/src_lines.py counts lines holding a token other than a comment
    or a docstring: import, def f, the string's two lines, return's two,
    class, pass and def g.  A module missing from a checkout counts 0."""
    script = load_script("src_lines.py")
    assert script.code_lines(SRC_LINES_SAMPLE) == 9
    for side, text in (("parent", SRC_LINES_SAMPLE), ("change", "import os\n")):
        (tmp_path / side / "src" / "sartrace").mkdir(parents=True)
        (tmp_path / side / "src" / "sartrace" / "mod.py").write_text(text)
    (tmp_path / "change" / "src" / "sartrace" / "new.py").write_text("x = 1\n\n# end\n")
    assert script.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["module", "parent", "change", "delta"], ["mod.py", "9", "1", "-8"],
        ["new.py", "0", "1", "+1"], ["total", "9", "2", "-7"]]
