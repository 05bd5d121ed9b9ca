"""Scenario configuration loading and validation.

A scenario is a YAML file naming the output directory, the beacon
chart and the planning domain, the fleet roster with one plan problem
per vehicle, the world constants, and the beacons that stay silent.
All relative paths are resolved against the YAML file's own directory
so a scenario can be run from anywhere.  Top-level keys that the
simulator does not read, such as a ``seed``, are ignored.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Optional

from .errors import GeoJsonError, InputError, SimulationError, shown
from .geo import Point2D, finite_number, point_beyond_limit
from .record import Record
from .sim.world import BeaconState, WorldParams, outside_limits


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


class UuvSpec(Record, frozen=True):
    __slots__ = _fields = ("id", "start", "problem")
    id: str
    start: Point2D
    problem: Path


class ScenarioConfig(Record, frozen=True):
    __slots__ = _fields = ("output_dir", "beacons", "domain", "world", "uuvs", "inactive_beacons")
    output_dir: Path
    beacons: Path
    domain: Path
    world: WorldParams
    uuvs: tuple[UuvSpec, ...]
    inactive_beacons: tuple[str, ...]
    _defaults = {"inactive_beacons": ()}


def _require(mapping: dict, key: str, where: str = "") -> Any:
    """``mapping[key]``, where ``where`` names the mapping's place in the
    file, such as ``"uuvs[0]."``."""
    if key not in mapping:
        raise InputError(f"missing required field {where + key!r}")
    return mapping[key]


# PyYAML reads YAML 1.1, whose floats need a point in the mantissa and a
# sign in the exponent: 2e3 and 1e0 are text there.  Compiled on the first
# error that needs it, not at start-up.
_EXPONENT = r"([-+]?[0-9]+)(\.[0-9]*)?[eE]([-+]?)([0-9]+)"


def _text_hint(value: Any) -> str:
    """For a number in exponent form that YAML 1.1 read as text: a
    spelling of it that YAML reads as a float."""
    match = isinstance(value, str) and re.fullmatch(_EXPONENT, value)
    if not match:
        return ""
    digits, point, sign, exponent = match.groups()
    spelled = f"{digits}{point or '.0'}e{sign or '+'}{exponent}"
    return f"; YAML 1.1 reads {value} as text, so write it as {spelled}"


def _as_point(value: Any, context: str) -> Point2D:
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    x, y = map(finite_number, value) if pair else (None, None)
    if x is None or y is None:
        hints = map(_text_hint, value) if isinstance(value, (list, tuple)) else ()
        hint = next(filter(None, hints), "")
        raise InputError(f"{context}: expected [x, y], got {shown(value)}{hint}")
    return Point2D(x, y)


def _resolve(base: Path, value: Any, context: str, must_exist: bool = True) -> Path:
    if not isinstance(value, str) or not value:
        raise InputError(f"{context}: expected a path string, got {shown(value)}")
    path = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
    if must_exist and not path.exists():
        raise InputError(f"{context}: path does not exist: {path}")
    return path


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario file; every error names the file.

    Every referenced input path must exist at load time.  A file that
    cannot be read is reported as for every other input.
    """
    path = Path(path)
    return parse_input(path, "scenario", lambda text: _parse_scenario(text, path.parent))


def _yaml_error_message(exc: yaml.YAMLError, text: str) -> str:
    """A PyYAML error on one line, placed by line and column, as in
    ``line 13, column 5: expected ',' or ']', but got ':' (while parsing a
    flow sequence at line 11, column 12)``.  PyYAML's own text names the
    input ``"<unicode string>"`` and quotes the source under it."""
    import yaml

    def at(line: int, column: int) -> str:
        return f"line {line + 1}, column {column + 1}"

    if isinstance(exc, yaml.reader.ReaderError):
        # an unprintable character, placed by its offset in the text
        line = text.count("\n", 0, exc.position)
        column = exc.position - (text.rfind("\n", 0, exc.position) + 1)
        return (
            f"{at(line, column)}: unacceptable character"
            f" #x{ord(text[exc.position]):04x}: {exc.reason}"
        )
    if not isinstance(exc, yaml.MarkedYAMLError):
        return str(exc)
    message = exc.problem or exc.context or "invalid YAML"
    mark = exc.problem_mark if exc.problem else exc.context_mark
    if exc.problem and exc.context:
        cm = exc.context_mark
        if cm is not None and (mark is None or (cm.line, cm.column) != (mark.line, mark.column)):
            message += f" ({exc.context} at {at(cm.line, cm.column)})"
        else:
            message += f" ({exc.context})"
    if mark is not None:
        message = f"{at(mark.line, mark.column)}: {message}"
    if exc.note:
        message += f"; {exc.note}"
    return message


def _parse_scenario(text: str, base: Path) -> ScenarioConfig:
    import yaml

    # the pure-Python safe loader (the C one reads text this one refuses),
    # placing a value it cannot build, such as 2001-02-30, at its node
    class Loader(yaml.SafeLoader):
        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep)
            except ValueError as exc:
                mark = node.start_mark
                raise yaml.constructor.ConstructorError(None, None, str(exc), mark) from exc

    try:
        raw = yaml.load(text, Loader)
    except yaml.YAMLError as exc:
        raise InputError(f"not valid YAML: {_yaml_error_message(exc, text)}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("scenario must be a mapping")

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
    known = set(WorldParams._fields)
    unknown = set(world_raw) - known
    if unknown:
        # YAML keys need not be strings (10.0:, true:), so each is named by
        # its repr, and the names are sorted as text
        names = ", ".join(sorted(map(shown, unknown)))
        raise InputError(f"unknown world parameter(s): {names}")
    current = world_raw.get("current", list(defaults.current))
    current_pt = _as_point(current, "world.current")
    values = {}
    for name in sorted(set(world_raw) - {"current"}):
        value = world_raw[name]
        if isinstance(getattr(defaults, name), int):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"world.{name} must be an integer, got {shown(value)}")
        elif finite_number(value) is None:
            raise InputError(
                f"world.{name} must be a finite number, got {shown(value)}{_text_hint(value)}"
            )
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
        fault = point_beyond_limit(start.x, start.y)
        if fault:
            raise InputError(f"uuvs[{i}].start {fault}")
        problem = _resolve(base, _require(entry, "problem", where), f"uuvs[{i}].problem")
        uuvs.append(UuvSpec(id=uuv_id, start=start, problem=problem))

    inactive = raw.get("inactive_beacons", [])
    if not isinstance(inactive, list) or not all(isinstance(b, str) for b in inactive):
        raise InputError("inactive_beacons must be a list of beacon ids")

    return ScenarioConfig(
        output_dir=output_dir,
        beacons=beacons,
        domain=domain,
        world=world,
        uuvs=tuple(uuvs),
        inactive_beacons=tuple(inactive),
    )


def load_beacons(path: str | Path, params: Optional[WorldParams] = None) -> list[BeaconState]:
    """Read a beacon chart from a GeoJSON FeatureCollection of points.

    Each feature needs an ``id`` property and a point within the
    coordinate limit; ``active``, ``acoustic_range`` and ``pulse_period``
    are optional overrides, defaulting to the world parameters and held to
    the same limits.  The ``beacon-links`` feature that ``deploy``
    writes is skipped, so a constellation can be read as a chart.
    """
    params = params or WorldParams()
    return parse_input(Path(path), "beacon chart", lambda text: _parse_beacons(text, params))


def _parse_beacons(text: str, params: WorldParams) -> list[BeaconState]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GeoJsonError(f"not valid JSON: {exc}") from exc
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
        point = isinstance(coords, list) and len(coords) >= 2
        x, y = map(finite_number, coords[:2]) if point else (None, None)
        if x is None or y is None:
            raise GeoJsonError(f"feature {i} has malformed coordinates")
        fault = point_beyond_limit(x, y)
        if fault:
            raise GeoJsonError(f"feature {i} {fault}")
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
            number = finite_number(value)
            if number is None:
                raise GeoJsonError(
                    f"feature {i} {key!r} must be a finite number, got {shown(value)}"
                )
            fault = outside_limits(key, value)
            if fault:
                raise GeoJsonError(f"feature {i} {fault}")
            overrides[key] = number
        beacons.append(
            BeaconState(
                id=beacon_id,
                position=Point2D(x, y),
                active=active,
                **overrides,
            )
        )
    if not beacons:
        raise GeoJsonError("no beacon features found")
    return beacons
