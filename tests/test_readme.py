"""The README's command-line walkthrough and library example run as written."""

import pathlib
import re
import shlex

from click.testing import CliRunner

from mbqcflow.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading, lang):
    """The first `lang` code block of the section titled `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_line_walkthrough_exits_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in code_block("Command line", "sh").splitlines()
                if line.startswith("mbqcflow ")]
    assert len(commands) >= 9
    runner = CliRunner()
    for argv in commands:
        res = runner.invoke(main, argv[1:])
        assert res.exit_code == 0, (argv, res.output)


def test_library_example_runs():
    exec(code_block("Library example", "python"), {})
