"""Command-line flags declared on the dataclass fields they set.

A config dataclass that ``repro`` exposes on the command line declares
each flag on its field, once::

    max_queue_depth: int = flag(
        256, "--max-depth", help="admission-queue capacity"
    )

The field keeps its default; its metadata carries the option strings,
the help text and any further ``argparse`` keywords (``type`` defaults
to the default's type, and a ``bool`` field is a switch).
:mod:`repro.cli` adds a verb's flags from :func:`dataclasses.fields`,
states each default in the help and builds the config from the flags
the user set, so the help text is also the field's documentation.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any

__all__ = ["flag", "ttl_seconds"]


def flag(default: Any, *names: str, help: str, **argparse_kwargs: Any) -> Any:
    """A dataclass field defaulting to ``default``, set by flag ``names``."""
    return field(
        default=default,
        metadata={"flag": names, "help": help, "argparse": argparse_kwargs},
    )


def ttl_seconds(text: str) -> float | None:
    """A TTL flag's value: seconds, or ``None`` (never expire) for 0 or less."""
    seconds = float(text)
    return seconds if seconds > 0 else None
