"""The Caldera engine: catalog-backed archiving, planning, and querying."""

from .engine import Caldera
from .events import (
    ApproximationReport,
    Event,
    approximation_report,
    detect_events,
    expected_count,
    find_peaks,
)
from .planner import PlanDecision, method_by_name, plan

__all__ = [
    "ApproximationReport",
    "Caldera",
    "Event",
    "PlanDecision",
    "approximation_report",
    "detect_events",
    "expected_count",
    "find_peaks",
    "method_by_name",
    "plan",
]
