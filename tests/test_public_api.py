"""The exported surface: __all__ resolves, covers the README Library names,
and exports no function without a user."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import credal_cert

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("## Library")
    return text[start : text.index("\n## ", start)]


def test_all_names_resolve():
    assert len(set(credal_cert.__all__)) == len(credal_cert.__all__)
    for name in credal_cert.__all__:
        assert hasattr(credal_cert, name), name


def _library_names() -> tuple[set[str], set[str]]:
    """Names the README Library section imports, and names its prose lists."""
    section = _library_section()
    block = re.search(r"from credal_cert import \((.*?)\)", section, re.S)
    imported = {name.strip() for name in block.group(1).split(",") if name.strip()}
    prose = section[block.end() :].split("```", 1)[1]
    # `simulate` in the prose names the command, not a library object
    listed = set(re.findall(r"`(\w+)`", prose)) - {"simulate"}
    return imported, listed


def _referenced_names(path: Path) -> set[str]:
    """Identifiers a Python file uses or imports (docstrings and comments excluded)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_readme_library_names_are_exported():
    imported, listed = _library_names()
    assert {"KernelSpec", "risk_interval", "decide_adaptation"} <= imported
    assert {"ShiftScenario", "true_target_risk", "CoverageExperiment"} <= listed
    missing = sorted((imported | listed) - set(credal_cert.__all__))
    assert not missing, missing


def test_every_exported_function_has_a_user():
    # a user is another package module, a script, or the README Library section
    package = ROOT / "src" / "credal_cert"
    by_module = {
        f"credal_cert.{path.stem}": _referenced_names(path)
        for path in package.glob("*.py")
        if path.name != "__init__.py"
    }
    scripts = set().union(
        *(_referenced_names(path) for path in (ROOT / "scripts").glob("*.py"))
    )
    documented = set().union(*_library_names())
    unused = []
    for name in credal_cert.__all__:
        obj = getattr(credal_cert, name)
        if not inspect.isfunction(obj):
            continue
        elsewhere = any(
            name in names
            for module, names in by_module.items()
            if module != obj.__module__
        )
        if not (elsewhere or name in scripts or name in documented):
            unused.append(name)
    assert not unused, unused
