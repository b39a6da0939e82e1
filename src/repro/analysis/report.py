"""EXPERIMENTS.md generation.

Runs every experiment of :data:`repro.analysis.experiments.EXPERIMENTS`
(E1–E17, full configurations) and writes EXPERIMENTS.md with the measured
tables plus, per experiment, the paper's claim and each declared
:class:`~repro.analysis.experiments.Claim` with its measured value and
verdict. Because the report is generated by code, the published numbers
are always regenerable with ``repro report [OUT] [--quick]``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import experiments as exp

__all__ = ["generate_report"]

_HEADER = """# EXPERIMENTS — paper claims vs measurements

Generated by `repro report`; all numbers regenerate from the seeds
recorded in `repro/analysis/experiments.py`.

The original PODC 2005 paper proves **analytic bounds** and contains no
measurement section, so there are no absolute numbers to match. Each
experiment instantiates one stated claim; "paper" below is the claim,
"measured" lists the bounds the experiment declares for it, each with
the value this reproduction observes. Ratios are measured against the
**LP relaxation lower bound**, so every reported ratio *upper-bounds*
the true approximation factor.

The claims are declared once, in `repro.analysis.experiments.EXPERIMENTS`:
tier-1 asserts them on the quick configurations, this report prints
them, and `repro experiment all --quick -o benchmarks/_artifacts`
records each one's value, bound and direction in the BENCH file `E*.json`
next to each `E*.txt` table. `repro compare old_dir/ new_dir/` pairs two
such directories by filename and, with no threshold flag, fails on a
broken claim bound, a claim that moved the wrong way, or any other number
that moved at all.

| ID | Claim (paper) | Verdict |
|----|---------------|---------|
{summary_rows}

---
"""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _section(
    experiment: exp.Experiment, result: exp.ExperimentResult
) -> tuple[str, str]:
    """The experiment's section and its summary-row verdict (the first
    claim's value against its bound, or the broken claims)."""
    lines, broken, first = [], [], ""
    for claim, value in experiment.check(result):
        holds = claim.gate.holds(value)
        if not holds:
            broken.append(claim.name)
        first = first or f"{claim.name} {_fmt(value)} {claim.gate}"
        lines.append(
            f"- {claim.sentence}: {_fmt(value)} (bound {claim.gate}) "
            f"— {'holds' if holds else '**BROKEN**'}."
        )
    notes = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(result.notes.items()))
    section = (
        f"## {result.experiment_id} — {result.title}\n\n"
        f"**Paper claim.** {experiment.paper}\n\n"
        "**Measured.**\n\n" + "\n".join(lines) + "\n\n"
        f"```\n{result.table}\n```\n\n"
        f"*(parameters: {notes})*\n\n"
    )
    summary = "BROKEN: " + ", ".join(broken) if broken else f"holds ({first})"
    return section, summary


def generate_report(output_path: Path, quick: bool = False) -> str:
    """Run every experiment and write the report; returns the text."""
    sections: list[str] = []
    summary: list[str] = []
    for eid, experiment in exp.EXPERIMENTS.items():
        section, verdict = _section(experiment, experiment.run(quick=quick))
        sections.append(section)
        summary.append(f"| {eid} | {experiment.topic} | {verdict} |")
    text = _HEADER.format(summary_rows="\n".join(summary)) + "".join(sections)
    text += f"---\n\n*({'quick' if quick else 'full'} configuration)*\n"
    output_path.write_text(text)
    return text
