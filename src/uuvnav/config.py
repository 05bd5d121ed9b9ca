"""Scenario configuration loading and validation.

A scenario is a YAML file naming the beacon chart and the planning
domain, the fleet roster with one plan problem per vehicle, the world
constants, and the seed.  All relative paths are resolved against the
YAML file's own directory so a scenario can be run from anywhere.
Top-level keys that the simulator does not read are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import yaml

from .errors import GeoJsonError, InputError, SimulationError
from .geo import Point2D
from .sim.world import BeaconState, WorldParams


def read_input(path: str | Path, what: str) -> str:
    """The text of an input file.  A file that cannot be read or is not
    UTF-8 text is an InputError naming the file."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {str(path)!r}: {exc}") from exc


def parse_input(path: str | Path, what: str, parse):
    """Read an input file and parse its text.  An input error from the
    parse is re-raised as itself, so it keeps its class and its line or
    column, with the file's name put before its message."""
    text = read_input(path, what)
    try:
        return parse(text)
    except InputError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


@dataclass(frozen=True)
class UuvSpec:
    id: str
    start: Point2D
    problem: Path


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    output_dir: Path
    beacons: Path
    domain: Path
    world: WorldParams
    uuvs: tuple[UuvSpec, ...]
    inactive_beacons: tuple[str, ...] = ()


def _require(mapping: dict, key: str, where: str = "") -> Any:
    """``mapping[key]``, where ``where`` names the mapping's place in the
    file, such as ``"uuvs[0]."``."""
    if key not in mapping:
        raise InputError(f"missing required field {where + key!r}")
    return mapping[key]


def _is_finite_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _as_point(value: Any, context: str) -> Point2D:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_finite_number(c) for c in value)
    ):
        raise InputError(f"{context}: expected [x, y], got {value!r}")
    return Point2D(float(value[0]), float(value[1]))


def _resolve(base: Path, value: Any, context: str, must_exist: bool = True) -> Path:
    if not isinstance(value, str) or not value:
        raise InputError(f"{context}: expected a path string, got {value!r}")
    path = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
    if must_exist and not path.exists():
        raise InputError(f"{context}: path does not exist: {path}")
    return path


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario file; every error names the file.

    Every referenced input path must exist at load time, and the seed
    must be stated explicitly so reruns are reproducible.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"scenario file does not exist: {path}")
    return parse_input(path, "scenario", lambda text: _parse_scenario(text, path.parent))


def _parse_scenario(text: str, base: Path) -> ScenarioConfig:
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError) as exc:
        raise InputError(f"not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("scenario must be a mapping")

    seed = _require(raw, "seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError(f"seed must be an integer, got {seed!r}")

    output_dir = _resolve(base, _require(raw, "output_dir"), "output_dir", must_exist=False)

    paths = _require(raw, "paths")
    if not isinstance(paths, dict):
        raise InputError("paths must be a mapping")
    beacons = _resolve(base, _require(paths, "beacons", "paths."), "paths.beacons")
    domain = _resolve(base, _require(paths, "domain", "paths."), "paths.domain")

    world_raw = raw.get("world", {})
    if not isinstance(world_raw, dict):
        raise InputError("world must be a mapping")
    defaults = WorldParams()
    known = set(defaults.__dataclass_fields__)
    unknown = set(world_raw) - known
    if unknown:
        raise InputError(f"unknown world parameter(s): {', '.join(sorted(unknown))}")
    current = world_raw.get("current", list(defaults.current))
    current_pt = _as_point(current, "world.current")
    values = {}
    for name in sorted(set(world_raw) - {"current"}):
        value = world_raw[name]
        if isinstance(getattr(defaults, name), int):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"world.{name} must be an integer, got {value!r}")
        elif not _is_finite_number(value):
            raise InputError(f"world.{name} must be a finite number, got {value!r}")
        values[name] = type(getattr(defaults, name))(value)
    try:
        world = WorldParams(**values, current=(current_pt.x, current_pt.y))
    except SimulationError as exc:
        raise InputError(f"world.{exc}") from exc

    uuvs_raw = _require(raw, "uuvs")
    if not isinstance(uuvs_raw, list) or not uuvs_raw:
        raise InputError("uuvs must be a non-empty list")
    uuvs: list[UuvSpec] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(uuvs_raw):
        where = f"uuvs[{i}]."
        if not isinstance(entry, dict):
            raise InputError(f"uuvs[{i}] must be a mapping")
        uuv_id = _require(entry, "id", where)
        if not isinstance(uuv_id, str) or not uuv_id:
            raise InputError(f"uuvs[{i}].id must be a non-empty string")
        if uuv_id in seen_ids:
            raise InputError(f"duplicate vehicle id {uuv_id!r}")
        seen_ids.add(uuv_id)
        start = _as_point(_require(entry, "start", where), f"uuvs[{i}].start")
        problem = _resolve(base, _require(entry, "problem", where), f"uuvs[{i}].problem")
        uuvs.append(UuvSpec(id=uuv_id, start=start, problem=problem))

    inactive = raw.get("inactive_beacons", [])
    if not isinstance(inactive, list) or not all(isinstance(b, str) for b in inactive):
        raise InputError("inactive_beacons must be a list of beacon ids")

    return ScenarioConfig(
        seed=seed,
        output_dir=output_dir,
        beacons=beacons,
        domain=domain,
        world=world,
        uuvs=tuple(uuvs),
        inactive_beacons=tuple(inactive),
    )


def load_beacons(path: str | Path, params: Optional[WorldParams] = None) -> list[BeaconState]:
    """Read a beacon chart from a GeoJSON FeatureCollection of points.

    Each feature needs an ``id`` property; ``active``, ``acoustic_range``
    (>= 0) and ``pulse_period`` (> 0) are optional overrides, defaulting to
    the world parameters.  The ``beacon-links`` feature that ``deploy``
    writes is skipped, so a constellation can be read as a chart.
    """
    params = params or WorldParams()
    return parse_input(Path(path), "beacon chart", lambda text: _parse_beacons(text, params))


def _parse_beacons(text: str, params: WorldParams) -> list[BeaconState]:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GeoJsonError(str(exc)) from exc
    if not isinstance(data, dict) or data.get("type") != "FeatureCollection":
        raise GeoJsonError("expected a FeatureCollection")
    beacons: list[BeaconState] = []
    seen: set[str] = set()
    features = data.get("features", [])
    if not isinstance(features, list):
        raise GeoJsonError("'features' must be a list")
    for i, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise GeoJsonError(f"feature {i} is not a JSON object")
        props = feature.get("properties") or {}
        if not isinstance(props, dict):
            raise GeoJsonError(f"feature {i} 'properties' is not a JSON object")
        if props.get("role") == "beacon-links":
            continue  # the link lines that deploy appends to its constellation
        geom = feature.get("geometry")
        if not isinstance(geom, dict) or geom.get("type") != "Point":
            raise GeoJsonError(f"feature {i} is not a Point")
        coords = geom.get("coordinates")
        if (
            not isinstance(coords, list)
            or len(coords) < 2
            or not all(_is_finite_number(c) for c in coords[:2])
        ):
            raise GeoJsonError(f"feature {i} has malformed coordinates")
        beacon_id = props.get("id")
        if not isinstance(beacon_id, str) or not beacon_id:
            raise GeoJsonError(f"feature {i} is missing an 'id' property")
        if beacon_id in seen:
            raise GeoJsonError(f"duplicate beacon id {beacon_id!r}")
        seen.add(beacon_id)
        active = props.get("active", True)
        if not isinstance(active, bool):
            raise GeoJsonError(f"feature {i} 'active' must be true or false")
        overrides = {}
        for key in ("acoustic_range", "pulse_period"):
            value = props.get(key, getattr(params, key))
            if not _is_finite_number(value):
                raise GeoJsonError(f"feature {i} {key!r} must be a finite number, got {value!r}")
            overrides[key] = float(value)
        if overrides["pulse_period"] <= 0:
            raise GeoJsonError(f"feature {i} 'pulse_period' must be positive")
        if overrides["acoustic_range"] < 0:
            raise GeoJsonError(f"feature {i} 'acoustic_range' must be non-negative")
        beacons.append(
            BeaconState(
                id=beacon_id,
                position=Point2D(float(coords[0]), float(coords[1])),
                active=active,
                **overrides,
            )
        )
    if not beacons:
        raise GeoJsonError("no beacon features found")
    return beacons
