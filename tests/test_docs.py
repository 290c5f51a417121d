"""The help text and the README agree with the command line."""

import re
import shlex
from pathlib import Path

import pytest

from crchern import cli
from crchern.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _help(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per item: no wrapped names
    code = main([*argv, "--help"])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    out = _help([], capsys, monkeypatch)
    assert "{" + ",".join(cli._COMMANDS) + "}" in out


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_has_help(capsys, monkeypatch, command):
    assert f"usage: crchern {command}" in _help([command], capsys, monkeypatch)


def test_verify_help_lists_exactly_the_targets(capsys, monkeypatch):
    out = _help(["verify"], capsys, monkeypatch)
    (listed,) = re.findall(r"one of: (.*)", out)
    assert listed.split(", ") == list(cli.TARGETS)


def _examples():
    """(command line, expected exit code, expected first output line or
    None) for each line of the README's "Examples:" block."""
    block = README.split("\nExamples:\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        match = re.fullmatch(r"\s*exit (\d+)(?: -> (.*?))?(?:, .*)?", comment)
        assert match, f"no exit code in the comment of {line!r}"
        yield command.strip(), int(match[1]), match[2]


@pytest.mark.parametrize("command,code,first_line", list(_examples()))
def test_readme_examples_exit_as_stated(capsys, monkeypatch, command, code, first_line):
    monkeypatch.chdir(ROOT)  # the examples name files under docs/
    program, *argv = shlex.split(command)
    assert program == "crchern"
    assert main(argv) == code
    if first_line is not None:
        assert capsys.readouterr().out.splitlines()[0] == first_line


def test_readme_target_tables_name_exactly_the_targets():
    section = README.split("\n### Verification targets\n", 1)[1].split("\n#", 1)[0]
    tables = [b for b in section.split("\n\n") if b.startswith("| target |")]
    assert len(tables) == 2
    for table in tables:
        rows = table.splitlines()[2:]
        names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert names == list(cli.TARGETS)
