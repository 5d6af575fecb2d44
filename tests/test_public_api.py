"""The exported surface: __all__ resolves and covers the README Library names."""

from __future__ import annotations

import re
from pathlib import Path

import credal_cert

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("## Library")
    return text[start : text.index("\n## ", start)]


def test_all_names_resolve():
    assert len(set(credal_cert.__all__)) == len(credal_cert.__all__)
    for name in credal_cert.__all__:
        assert hasattr(credal_cert, name), name


def test_readme_library_names_are_exported():
    section = _library_section()
    block = re.search(r"from credal_cert import \((.*?)\)", section, re.S)
    imported = {name.strip() for name in block.group(1).split(",") if name.strip()}
    prose = section[block.end() :].split("```", 1)[1]
    # `simulate` in the prose names the command, not a library object
    listed = set(re.findall(r"`(\w+)`", prose)) - {"simulate"}
    assert {"KernelSpec", "risk_interval", "decide_adaptation"} <= imported
    assert {"ShiftScenario", "true_target_risk", "CoverageExperiment"} <= listed
    missing = sorted((imported | listed) - set(credal_cert.__all__))
    assert not missing, missing
