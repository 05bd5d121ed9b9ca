"""Deterministic closed-loop fleet simulator."""

from .world import (
    BeaconState,
    Event,
    UUVState,
    WorldParams,
    WorldState,
    broadcast,
    sense_beacon,
    step,
)

__all__ = [
    "BeaconState",
    "Event",
    "UUVState",
    "WorldParams",
    "WorldState",
    "broadcast",
    "sense_beacon",
    "step",
]
