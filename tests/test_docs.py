"""Execute the documentation's ``python`` code blocks.

Every fenced ```python block in README.md, docs/ARCHITECTURE.md and
docs/SERVING.md is compiled and executed in a fresh namespace, so the quickstarts stay
correct by construction: an API rename or behavior change that would
silently rot the docs fails this module instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

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
