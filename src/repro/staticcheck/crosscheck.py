"""Cross-checking dynamic advisories against the static lint.

The advising pipeline and the static checker look at the same binary from
two sides — simulated samples versus dataflow over the CFG — so when both
flag the same source line, the advisory gets independent, simulation-free
corroboration.  :func:`cross_check` produces those annotations as plain
strings; it never mutates either report, so dynamic advising results stay
bit-identical whether or not a static report was ever computed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.staticcheck.report import StaticReport

if TYPE_CHECKING:  # the advisor imports the blamer, which imports staticcheck
    from repro.advisor.report import AdviceReport

#: How many hotspots per advice item are matched against diagnostics.
_HOTSPOTS_CHECKED = 5


def cross_check(report: AdviceReport, static_report: StaticReport) -> List[str]:
    """Annotations where the static lint corroborates (or contradicts) ``report``."""
    notes: List[str] = []

    stats = report.profile.statistics
    try:
        kernel_lint = static_report.function_lint(report.kernel)
    except KeyError:
        kernel_lint = None
    if kernel_lint is not None and kernel_lint.occupancy:
        declared = kernel_lint.occupancy["declared"]
        if (
            declared["occupancy"] == stats.occupancy
            and declared["limiter"] == stats.occupancy_limiter
        ):
            notes.append(
                f"occupancy cross-check: static and profiled figures agree "
                f"({stats.occupancy:.4f}, limited by {stats.occupancy_limiter})"
            )
        else:
            notes.append(
                f"occupancy cross-check: MISMATCH — static "
                f"{declared['occupancy']:.4f}/{declared['limiter']} vs profiled "
                f"{stats.occupancy:.4f}/{stats.occupancy_limiter}"
            )
        registers = kernel_lint.registers
        if registers:
            notes.append(
                f"register pressure: {registers['declared']} declared, "
                f"{registers['static_max_live']} live-range maximum"
            )

    seen = set()
    for item in report.advice:
        if not item.applicable:
            continue
        for hotspot in item.hotspots[:_HOTSPOTS_CHECKED]:
            for location in (hotspot.source, hotspot.dest):
                if location.line is None:
                    continue
                for diagnostic in static_report.diagnostics_at_line(location.line):
                    key = (item.optimizer, diagnostic.rule, diagnostic.offset)
                    if key in seen:
                        continue
                    seen.add(key)
                    notes.append(
                        f"{item.optimizer} hotspot at line {location.line} also "
                        f"flagged statically: {diagnostic.rule} — {diagnostic.message}"
                    )
    return notes
