"""Totally ordered forward-decomposition HTN planner and plan validator."""
