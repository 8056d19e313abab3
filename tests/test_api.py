"""The package's documented surface and the names the benchmark tracer wraps."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def python_api_blocks():
    """The python code blocks of the README's Python API section, in order."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_readme_python_api_runs_as_written(capsys):
    blocks = python_api_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    # the values the README's comments give
    assert lines[0].startswith("0.0258") and lines[1].startswith("0.0223")
    assert "correspondence: PASS" in lines
    assert lines[-1].endswith(" {}")


def traced_names():
    """(module, attribute) of each entry of TARGETS in bench/spans.py, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/spans.py defines no TARGETS")


@pytest.mark.parametrize("module_name, attr", traced_names())
def test_every_traced_name_is_a_library_attribute(module_name, attr):
    # the tracer looks each name up in the module's or class's own namespace
    owner = importlib.import_module(f"blockade_lab.{module_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = vars(owner)[part]
    assert name in vars(owner), f"blockade_lab.{module_name}.{attr}"
