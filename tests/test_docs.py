"""Execute the documentation's ``python`` code blocks and parse its commands.

Every fenced ```python block in README.md, docs/ARCHITECTURE.md and
docs/SERVING.md is compiled and executed in a fresh namespace, so the quickstarts stay
correct by construction: an API rename or behavior change that would
silently rot the docs fails this module instead.

Every ``repro ...`` / ``python -m repro.cli ...`` command in a shell
block of the docs, and in the CI workflow, must parse with
``build_parser()`` (it is not run), so a renamed or deleted flag cannot
linger in an example.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = (
    REPO / "README.md",
    REPO / "docs" / "ARCHITECTURE.md",
    REPO / "docs" / "SERVING.md",
)


def python_blocks(path: Path) -> list[tuple[int, str]]:
    """(starting line, source) of every fenced ```python block."""
    blocks = []
    lines = path.read_text().splitlines()
    in_block = False
    start = 0
    buffer: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_block and stripped == "```python":
            in_block = True
            start = lineno + 1
            buffer = []
        elif in_block and stripped == "```":
            in_block = False
            blocks.append((start, "\n".join(buffer)))
        elif in_block:
            buffer.append(line)
    return blocks


# Ids count blocks per file, so editing prose above a block keeps them.
CASES = [
    pytest.param(path, start, source, id=f"{path.name}#{ordinal}")
    for path in DOC_FILES
    for ordinal, (start, source) in enumerate(python_blocks(path), start=1)
]


def test_docs_have_python_blocks() -> None:
    """Guard the guard: collection must actually find the quickstarts."""
    assert len(CASES) >= 2


@pytest.mark.parametrize(("path", "start", "source"), CASES)
def test_doc_block_executes(path: Path, start: int, source: str, capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)  # any files a snippet writes stay out of the repo
    code = compile(source, f"{path}:{start}", "exec")
    namespace: dict[str, object] = {"__name__": "__doc_snippet__"}
    exec(code, namespace)  # noqa: S102 — executing our own documentation
    capsys.readouterr()  # swallow the snippet's demo prints


SHELL_DOCS = (
    REPO / "README.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / "perfbench" / "README.md",
)
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
SHELL_FENCES = ("```bash", "```sh", "```shell", "```console")
# A command starts its line (or a workflow's `run:`) or follows a pipe,
# maybe behind `watch -n SECONDS`, `timeout SECONDS` or PYTHONPATH=.
COMMAND = re.compile(
    r"(?:^(?:run:\s+)?|\|\s*)(?:(?:watch\s+-n|timeout)\s+\S+\s+)?"
    r"(?:PYTHONPATH=\S+\s+)?(?:python -m repro\.cli|repro)\s+(.*)"
)
SHELL_OPERATORS = {"|", "||", "&", "&&", ";"}


def joined_lines(lines: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """(first line number, text) with backslash continuations joined."""
    joined: list[tuple[int, str]] = []
    pending, first = "", 0
    for lineno, line in lines:
        if not pending:
            first = lineno
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        joined.append((first, pending + line))
        pending = ""
    return joined


def shell_lines(path: Path) -> list[tuple[int, str]]:
    """Lines of every shell block (the whole file for a workflow)."""
    numbered = list(enumerate(path.read_text().splitlines(), start=1))
    if path.suffix == ".yml":
        return numbered
    lines, in_shell, in_block = [], False, False
    for lineno, line in numbered:
        stripped = line.strip()
        if not in_block and stripped.startswith("```"):
            in_block, in_shell = True, stripped in SHELL_FENCES
        elif in_block and stripped == "```":
            in_block = False
        elif in_block and in_shell:
            lines.append((lineno, line))
    return lines


def repro_commands(path: Path) -> list[tuple[int, list[str]]]:
    """(line number, argv) of each repro command in ``path``."""
    commands = []
    for lineno, line in joined_lines(shell_lines(path)):
        stripped = line.strip()
        match = COMMAND.search(stripped)
        if stripped.startswith("#") or match is None:
            continue
        argv = []
        for token in shlex.split(match.group(1), comments=True):
            if token in SHELL_OPERATORS or token.startswith((">", "2>")):
                break
            argv.append(token)
        commands.append((lineno, argv))
    return commands


COMMAND_CASES = [
    pytest.param(argv, id=f"{path.name}:{lineno}")
    for path in (*SHELL_DOCS, CI_WORKFLOW)
    for lineno, argv in repro_commands(path)
]


def test_docs_have_repro_commands() -> None:
    """Guard the guard: the scan must find the documented commands."""
    assert len(COMMAND_CASES) >= 70


@pytest.mark.parametrize("argv", COMMAND_CASES)
def test_documented_command_parses(argv: list[str], capsys) -> None:
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"repro {' '.join(argv)}: {capsys.readouterr().err}")
