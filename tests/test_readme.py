"""The README's promises hold: it names only what the package exports, and
the package parses as the oldest Python it names."""

import ast
import re
from pathlib import Path

import degsplit

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_main_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Main entry points:"):].split("\n\n", 1)[0]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) > 10
    assert [name for name in names if name not in degsplit.__all__] == []


def test_sources_parse_as_the_oldest_promised_python():
    """Every module of the package parses with the grammar of the oldest
    Python that ``pyproject.toml`` and the README promise.  This checks
    grammar only: a stdlib function or module newer than that version still
    passes."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    oldest = (int(found[1]), int(found[2]))
    assert f"Python >= {oldest[0]}.{oldest[1]}." in README.read_text(encoding="utf-8")
    sources = sorted((ROOT / "src" / "degsplit").glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest)
