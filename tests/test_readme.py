import doctest
import shlex
from pathlib import Path

import derivpoly.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    """The README's library sketch runs as written."""
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_commands(capsys):
    """Every ``derivpoly`` line of the README's command-line block runs as
    written: exit 0 and some output."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.startswith("derivpoly ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert cli.main(argv[1:]) == 0, line
        assert capsys.readouterr().out, line
