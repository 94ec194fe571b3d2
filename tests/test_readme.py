"""The README names only what the package exports."""

import re
from pathlib import Path

import degsplit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_main_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Main entry points:"):].split("\n\n", 1)[0]
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) > 10
    assert [name for name in names if name not in degsplit.__all__] == []
