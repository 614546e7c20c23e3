import doctest
import shlex
from pathlib import Path

import derivpoly.cli as cli
from derivpoly.verify import SUITE_NAMES, run_suite

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


def test_readme_suite_table():
    """The suite table names each suite's identities and its verdict count
    at the defaults, as ``run_suite`` prints them; ``all`` prints every
    identity of the rows below it."""
    section = README.read_text().split("| suite | identities |", 1)[1]
    rows = [line.split(" | ") for line in section.splitlines()[2:]
            if line.startswith("| `")]
    table = {suite.strip("| `"): (identities, int(count))
             for suite, identities, count, _ in rows}
    assert list(table) == list(SUITE_NAMES)
    union = set()
    for suite, (identities, count) in table.items():
        verdicts = run_suite(suite)
        assert len(verdicts) == count, suite
        if suite != "all":
            named = {name.strip("`") for name in identities.split(", ")}
            assert {v.identity for v in verdicts} == named, suite
            union |= named
    assert {v.identity for v in run_suite("all")} == union
    assert table["all"][1] == sum(count for suite, (_, count) in table.items()
                                  if suite != "all")
