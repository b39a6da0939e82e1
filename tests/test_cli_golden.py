"""Golden files for the ``repro`` command line.

``tests/golden/cli_help.txt`` holds the ``--help`` text of the top-level
parser and of every verb and sub-verb; ``tests/golden/cli_solve.json``
holds the ``--json --digest`` output of one small solve. A flag that is
added, renamed, re-defaulted or re-worded changes one of them, so every
change to the command line shows up as a diff of these files.

Help is rendered at a fixed width and compared with whitespace removed,
so the interpreter versions CI runs, which may wrap lines (and split
hyphenated words) at other places, read the same file. Regenerate both files after an
intended change with::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Iterator

import pytest

from repro.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"
HELP_FILE = GOLDEN / "cli_help.txt"
SOLVE_FILE = GOLDEN / "cli_solve.json"
COLUMNS = "100"
SOLVE_ARGV = [
    "solve", "--family", "uniform", "-m", "6", "-n", "15", "-k", "4",
    "--json", "--digest",
]
#: Fields of the solve output that differ from run to run.
MASKED = ("wall_seconds",)


def parsers(
    parser: argparse.ArgumentParser, prog: str = "repro"
) -> Iterator[tuple[str, argparse.ArgumentParser]]:
    """``(command, parser)`` for the top level and every (sub-)verb."""
    yield prog, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from parsers(child, f"{prog} {name}")


def render_help() -> str:
    return "".join(
        f"### {command} --help\n{parser.format_help()}\n"
        for command, parser in parsers(build_parser())
    )


def help_sections(text: str) -> dict[str, str]:
    """Section title -> help text with all whitespace removed."""
    sections = text.split("### ")[1:]
    return {
        title: "".join(body.split())
        for title, _, body in (s.partition("\n") for s in sections)
    }


def masked(output: str) -> dict:
    payload = json.loads(output)
    for name in MASKED:
        payload[name] = "<masked>"
    return payload


def test_help_matches_golden(monkeypatch) -> None:
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = help_sections(HELP_FILE.read_text())
    actual = help_sections(render_help())
    assert list(actual) == list(expected)
    for title in expected:
        assert actual[title] == expected[title], title


def test_golden_covers_every_verb() -> None:
    commands = [command for command, _ in parsers(build_parser())]
    # The top level, 18 verbs and the two `trace` sub-verbs.
    assert len(commands) == 21
    assert "repro trace tree" in commands and "repro trace export" in commands


def test_solve_output_matches_golden(capsys) -> None:
    expected = json.loads(SOLVE_FILE.read_text())
    assert main(SOLVE_ARGV) == 0
    actual = masked(capsys.readouterr().out)
    assert list(actual) == list(expected)
    for key, value in expected.items():
        if isinstance(value, float):
            assert actual[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert actual[key] == value, key


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.mkdir(exist_ok=True)
    HELP_FILE.write_text(render_help())
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        if main(SOLVE_ARGV) != 0:
            raise SystemExit("the golden solve failed")
    SOLVE_FILE.write_text(json.dumps(masked(buffer.getvalue()), indent=2) + "\n")
    print(f"wrote {HELP_FILE} and {SOLVE_FILE}")
