"""RQ5: the user-study results of §5.4, from the simulated pipeline."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .report import render_table

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..study.study import StudyResults


def run_rq5(participants: int = 16, seed: int = 2026) -> "StudyResults":
    from ..study import run_study  # needs the optional `study` extra

    return run_study(participants, seed)


def render_rq5(results: "StudyResults") -> str:
    headers = ("Metric", "Measured", "Paper")
    rows = [
        ("participants", results.participants, 16),
        ("all tasks completed", results.completion_all, True),
        (
            "encryption: gen vs old-gen",
            f"{results.encryption_slowdown_percent:+.1f}%",
            "+38% (slower)",
        ),
        (
            "hashing: gen vs old-gen",
            f"{results.hashing_speedup_percent:+.1f}% faster",
            "+63.2% faster",
        ),
        (
            "overall time Wilcoxon p",
            f"{results.time_wilcoxon_p:.3f} (n.s.)"
            if not results.times_significant
            else f"{results.time_wilcoxon_p:.3f} (significant!)",
            "> 0.05 (n.s.)",
        ),
        ("SUS gen", f"{results.sus['gen']:.1f}", "76.3"),
        ("SUS old-gen", f"{results.sus['old-gen']:.1f}", "50.8"),
        ("NPS gen", f"{results.nps['gen']:.1f}", "56.3"),
        ("NPS old-gen", f"{results.nps['old-gen']:.1f}", "-43.7"),
        ("SUS Wilcoxon p", f"{results.sus_wilcoxon_p:.4f}", "0.005"),
        ("NPS Wilcoxon p", f"{results.nps_wilcoxon_p:.4f}", "0.005"),
        ("prefer gen", f"{results.preferred_gen}/16", "15/16"),
        (
            "mentioned learning curve",
            results.mentioned_learning_curve,
            7,
        ),
        (
            "crypto experience mean/median",
            f"{results.mean_experience:.1f} / {results.median_experience:.0f}",
            "5.2 / 5",
        ),
    ]
    return render_table(headers, rows, "RQ5 — usability study (simulated)")


def shape_holds(results: StudyResults) -> bool:
    """The paper's qualitative findings."""
    return (
        results.completion_all
        and not results.times_significant
        and results.usability_significant
        and results.sus["gen"] > results.sus["old-gen"] + 15
        and results.sus["gen"] > 68  # "usable" threshold
        and results.nps["gen"] > 0 > results.nps["old-gen"]
        and results.encryption_slowdown_percent > 0
        and results.hashing_speedup_percent > 0
        and results.preferred_gen >= results.participants - 2
    )
