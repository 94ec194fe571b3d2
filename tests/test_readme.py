"""The README's promises hold: it names only what the package exports, its
CLI usage is the parser's, and the package parses as the oldest Python it
names."""

import argparse
import ast
import re
from pathlib import Path

import degsplit
from degsplit.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_main_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Main entry points:"):].split("\n\n", 1)[0]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) > 10
    assert [name for name in names if name not in degsplit.__all__] == []


def test_cli_usage_names_the_parsers_flags():
    """Each subcommand's usage in the README names exactly the flags the
    parser gives it, other than ``--format`` and ``--help``, and brackets
    exactly those that are not required."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## CLI"):].split("```")[1]
    usage = {}
    for line in block.strip().splitlines():
        if line.startswith("degsplit "):
            command = line.split()[1]
            usage[command] = {}
        for bracket, flag in re.findall(r"(\[?)(--[a-z-]+)", line):
            usage[command][flag] = not bracket
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsed = {
        command: {
            flag: action.required
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("--format", "--help", "-h")
        }
        for command, parser in subparsers.choices.items()
    }
    assert usage == parsed


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
