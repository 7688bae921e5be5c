"""README stays in step with the package and the command line."""

import re
from pathlib import Path

import pytest

import circlepack
from circlepack.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("solve", "improve", "verify", "render", "bench")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def test_readme_code_names_exist():
    text = README.read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.S))
    names = set(re.findall(r"\bcp\.(\w+)", code))
    assert names
    assert sorted(name for name in names if not hasattr(circlepack, name)) == []


def test_readme_flags_exist(capsys):
    parts = README.read_text(encoding="utf-8").split("\n## ")
    section = next(part for part in parts if part.startswith("Command line\n"))
    flags = set(FLAG.findall(section))
    assert flags
    known = set()
    for command in COMMANDS:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        known.update(FLAG.findall(capsys.readouterr().out))
    assert sorted(flags - known) == []
