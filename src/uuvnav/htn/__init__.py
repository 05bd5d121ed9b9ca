"""Totally ordered forward-decomposition HTN planner and plan validator."""

from .planner import Plan, PlanStats, format_plan_text, plan, plan_to_dict
from .validate import Verdict, validate

__all__ = [
    "Plan",
    "PlanStats",
    "Verdict",
    "format_plan_text",
    "plan",
    "plan_to_dict",
    "validate",
]
