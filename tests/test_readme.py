"""The README's examples run as written: its Python block, and each quasinv line of its shell blocks."""

import io
import shlex
import sys
from pathlib import Path

import pytest

import quasinv.cli as cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    """The bodies of the README's fenced blocks in one language, in order."""
    return [chunk.split("```", 1)[0] for chunk in README.split("```" + language + "\n")[1:]]


# each shell line that runs quasinv, alone or fed a document by echo
COMMAND_LINES = [
    line for block in _blocks("sh") for line in block.splitlines()
    if line.split(" | ")[-1].startswith("quasinv ")
]


def test_python_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_shell_lines_show_every_subcommand():
    shown = {shlex.split(line.split(" | ")[-1])[1] for line in COMMAND_LINES}
    assert shown == {"analyze", "mstd", "zoo", "random", "verify"}


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_shell_line_exits_zero(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["zoo", "pauli", "0.1", "0.6", "0.2", "0.1"]) == 0
    (tmp_path / "channel.json").write_text(capsys.readouterr().out)
    *feed, command = line.split(" | ")
    if feed:  # echo '<document>' | quasinv ...
        monkeypatch.setattr(sys, "stdin", io.StringIO(shlex.split(feed[0])[1]))
    argv = shlex.split(command, comments=True)
    assert cli.main(argv[1:]) == 0
