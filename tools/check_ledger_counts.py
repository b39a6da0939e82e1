#!/usr/bin/env python
"""Fail unless a scale run repeats the baseline's ledger counts exactly.

The ``scale-smoke`` CI job gates the columnar ledger's ``rounds`` and
``total_messages`` with ``repro compare --threshold NAME=1.0``, which is
one-sided: a ledger that lost charges would pass it. The counts are
exact, so this gate asks every rung of the run for equality with the
same rung of the baseline. Baseline rungs the run did not reach (the
reduced ladder trims 10^6) are not checked. Exits 1 listing every
difference.

Usage::

    python tools/check_ledger_counts.py BASELINE.json RUN.json
"""

from __future__ import annotations

import json
import sys

FIELDS = ("rounds", "total_messages")


def ledger_differences(baseline: dict, run: dict) -> list[str]:
    """``rung.field`` differences between two BENCH files' records."""
    differences = []
    for rung, record in sorted(run["records"].items()):
        expected = baseline["records"][rung]["metrics"]
        for field in FIELDS:
            if record["metrics"][field] != expected[field]:
                differences.append(
                    f"{rung}.{field}: {record['metrics'][field]} "
                    f"!= baseline {expected[field]}"
                )
    return differences


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    baseline, run = (json.load(open(path)) for path in argv[1:])
    differences = ledger_differences(baseline, run)
    for line in differences:
        print(line)
    if not differences:
        print(f"ledger counts equal the baseline on {len(run['records'])} rungs")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
