"""Every module of the package imports without the optional graph stack.

The library depends on numpy and scipy only. Each ``repro`` module is
imported afresh with ``networkx`` made unimportable, so a stray import
of it fails here. The packages documented by ``tools/gen_api_docs.py``
are imported too, so a stale name in its ``PACKAGES`` fails here
rather than only in ``make docs``.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def _raise(name: str) -> None:
    raise ImportError(f"cannot walk {name}")


def test_every_module_imports_without_networkx(monkeypatch) -> None:
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "networkx", None)
    # Drop the loaded package so each module really executes again;
    # monkeypatch puts the original module objects back afterwards.
    loaded = [name for name in sys.modules if _is_repro(name)]
    for name in loaded:
        monkeypatch.delitem(sys.modules, name)
    try:
        repro = importlib.import_module("repro")
        names = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(
                repro.__path__, "repro.", onerror=_raise
            )
        ]
        for name in names:
            importlib.import_module(name)
        assert "repro.cli" in names

        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
        )
        gen_api_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen_api_docs)
        for package in gen_api_docs.PACKAGES:
            importlib.import_module(package)
    finally:
        for name in [name for name in sys.modules if _is_repro(name)]:
            if name not in loaded:
                del sys.modules[name]
