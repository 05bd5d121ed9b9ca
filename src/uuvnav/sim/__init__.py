"""Deterministic closed-loop fleet simulator."""
