"""The README's examples run as written: the library block and each command line."""

import shlex
from pathlib import Path

from raagout.cli import main

ROOT = Path(__file__).resolve().parent.parent


def block(heading, lang):
	"""The first ```lang block under a level-2 heading of the README."""
	text = (ROOT / "README.md").read_text()
	section = text.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]
	return section.split("```%s\n" % lang, 1)[1].split("```", 1)[0]


def test_library_example_runs(capsys):
	exec(compile(block("Library", "python"), "README.md", "exec"), {})
	out = capsys.readouterr().out.splitlines()
	assert "inv a" in out and "trv a^c" in out


def test_command_examples_exit_0(capsys, monkeypatch):
	monkeypatch.chdir(ROOT)
	lines = block("Command line", "sh").strip().splitlines()
	assert lines
	for line in lines:
		argv = shlex.split(line)
		assert argv[0] == "raagout"
		assert main(argv[1:]) == 0, line
		assert capsys.readouterr().out
