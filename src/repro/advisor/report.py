"""The advice report (Figure 8).

``AdviceReport`` collects, for one kernel launch, the matched advice of every
optimizer ranked by estimated speedup, plus the launch/kernel statistics that
give the numbers context.  ``render_report`` produces the ASCII text GPA
emits today; ``AdviceReport.to_dict`` produces a JSON-friendly form a GUI
could ingest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.blame.attribution import BlameResult
from repro.optimizers.base import OptimizationAdvice
from repro.sampling.sample import KernelProfile


@dataclass
class AdviceReport:
    """The ranked advice for one kernel."""

    kernel: str
    profile: KernelProfile
    blame: BlameResult
    #: Advice from every applicable optimizer, sorted by estimated speedup
    #: (descending).
    advice: List[OptimizationAdvice] = field(default_factory=list)

    def top(self, count: int = 5) -> List[OptimizationAdvice]:
        """The ``count`` most promising optimizations."""
        return self.advice[:count]

    def advice_for(self, optimizer_name: str) -> Optional[OptimizationAdvice]:
        for item in self.advice:
            if item.optimizer == optimizer_name:
                return item
        return None

    def to_dict(self) -> dict:
        """A lossless JSON-friendly description (inverse: :meth:`from_dict`).

        The ``statistics``/``totals``/``stalls_by_reason`` summaries are kept
        for display consumers, but the full profile and the blame tree are
        carried too, so a report dumped by a worker process reloads into an
        equal report (same ranked advice, speedups and blame records).
        """
        from repro.api.schema import API_SCHEMA_VERSION

        return {
            "schema_version": API_SCHEMA_VERSION,
            "kind": "advice_report",
            "kernel": self.kernel,
            "statistics": self.profile.statistics.to_dict(),
            "totals": {
                "total_samples": self.profile.total_samples,
                "active_samples": self.profile.active_samples,
                "latency_samples": self.profile.latency_samples,
                "stall_ratio": self.profile.stall_ratio,
            },
            "stalls_by_reason": {
                reason.value: count for reason, count in self.profile.stalls_by_reason().items()
            },
            "profile": self.profile.to_dict(),
            "blame": self.blame.to_dict(),
            "advice": [item.to_dict() for item in self.advice],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdviceReport":
        """Rebuild a report dumped by :meth:`to_dict`.

        ``dump -> load -> dump`` is a fixed point: the summary blocks are
        recomputed from the reloaded profile, which round-trips exactly.
        """
        from repro.api.schema import check_envelope

        payload = check_envelope(payload, "advice_report")
        return cls(
            kernel=payload["kernel"],
            profile=KernelProfile.from_dict(payload["profile"]),
            blame=BlameResult.from_dict(payload["blame"]),
            advice=[OptimizationAdvice.from_dict(entry) for entry in payload["advice"]],
        )


def render_report(report: AdviceReport, top: int = 5, hotspots_per_advice: int = 5) -> str:
    """Render the report in the ASCII format of Figure 8."""
    profile = report.profile
    stats = profile.statistics
    lines: List[str] = []
    lines.append("=" * 78)
    lines.append(f"GPA advice report for kernel {report.kernel}")
    lines.append("=" * 78)
    lines.append(
        f"Launch: grid={stats.config.grid_blocks} blocks x "
        f"{stats.config.threads_per_block} threads, "
        f"{stats.registers_per_thread} registers/thread, "
        f"occupancy {stats.occupancy * 100:.1f}% (limited by {stats.occupancy_limiter})"
    )
    lines.append(
        f"Samples: total {profile.total_samples}, active {profile.active_samples}, "
        f"latency {profile.latency_samples} (stall ratio {profile.stall_ratio * 100:.1f}%)"
    )
    stalls = profile.stalls_by_reason()
    if stalls:
        ranked = sorted(stalls.items(), key=lambda item: item[1], reverse=True)
        summary = ", ".join(f"{reason.value} {count}" for reason, count in ranked[:5])
        lines.append(f"Top stall reasons: {summary}")
    lines.append("")

    shown = [item for item in report.advice if item.applicable][:top]
    if not shown:
        lines.append("No applicable optimization found.")
    for rank, item in enumerate(shown, start=1):
        lines.append("-" * 78)
        lines.append(
            f"{rank}. Apply {item.optimizer} optimization, "
            f"ratio {item.ratio * 100:.3f}%, estimate speedup {item.estimated_speedup:.3f}x"
        )
        for suggestion in item.suggestions:
            lines.append(f"   {suggestion}")
        if item.details:
            interesting = {
                key: value
                for key, value in item.details.items()
                if not isinstance(value, (list, dict))
            }
            if interesting:
                detail_text = ", ".join(f"{key}={value}" for key, value in interesting.items())
                lines.append(f"   [{detail_text}]")
        for index, hotspot in enumerate(item.hotspots[:hotspots_per_advice], start=1):
            lines.append(
                f"   {index}. Hot BLAME GINS:LAT_IDEP_DEP code, "
                f"ratio {hotspot.ratio * 100:.3f}%, speedup {hotspot.speedup:.3f}x, "
                f"distance {hotspot.distance if hotspot.distance is not None else '?'}"
            )
            lines.append(
                f"      From {hotspot.source.function} at "
                f"{hotspot.source.file or '<unknown>'}"
            )
            lines.append(f"        {hotspot.source.describe()}")
            lines.append(
                f"      To {hotspot.dest.function} at {hotspot.dest.file or '<unknown>'}"
            )
            lines.append(f"        {hotspot.dest.describe()}")
    lines.append("=" * 78)
    return "\n".join(lines)
