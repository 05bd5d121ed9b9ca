import json
from pathlib import Path

import pytest
import yaml

from uuvnav.config import load_beacons, load_scenario
from uuvnav.errors import GeoJsonError, InputError
from uuvnav.geo import Point2D
from uuvnav.sim.runner import run_scenario

REPO = Path(__file__).resolve().parent.parent
NOMINAL = REPO / "scenarios" / "nominal.yaml"
POINT = {"type": "Point", "coordinates": [1.0, 2.0]}


def write_scenario(tmp_path, mutate=None):
    doc = yaml.safe_load(NOMINAL.read_text())
    base = NOMINAL.parent
    doc["paths"] = {
        "bathymetry": str(base / "bathymetry.asc"),
        "mission_area": str(base / "mission-area.geojson"),
        "beacons": str(base / "beacons.geojson"),
        "domain": str(REPO / "domains" / "uuv-nav.hddl"),
    }
    for u in doc["uuvs"]:
        u["problem"] = str(base / u["problem"])
    if mutate:
        mutate(doc)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestLoadScenario:
    def test_bundled_nominal_loads(self):
        cfg = load_scenario(NOMINAL)
        assert cfg.world.uuv_speed == 2.0
        assert cfg.world.current == (0.0, 0.0)
        assert [u.id for u in cfg.uuvs] == ["uuv1", "uuv2", "uuv3", "uuv4", "uuv5"]
        assert cfg.uuvs[0].start == Point2D(2500.0, 2500.0)
        assert cfg.domain.exists()
        assert cfg.inactive_beacons == ()

    def test_bundled_variant_loads(self):
        cfg = load_scenario(REPO / "scenarios" / "b6-silenced.yaml")
        assert cfg.inactive_beacons == ("b6",)
        assert cfg.uuvs[4].start == Point2D(9500.0, 4000.0)

    def test_relative_paths_resolve_against_file(self):
        cfg = load_scenario(NOMINAL)
        assert cfg.beacons == (NOMINAL.parent / "beacons.geojson").resolve()

    def test_missing_file_is_input_error(self):
        # the same message as for every other input that cannot be read
        with pytest.raises(InputError, match="^cannot read scenario '/nonexistent/scenario.yaml': "):
            load_scenario("/nonexistent/scenario.yaml")

    @pytest.mark.parametrize("seed", [12345, "soon"])
    def test_leftover_seed_is_ignored(self, tmp_path, seed):
        # nothing reads a scenario's seed, so a file that still has one loads
        path = write_scenario(tmp_path, mutate=lambda d: d.update(seed=seed))
        assert yaml.safe_load(path.read_text())["seed"] == seed
        cfg = load_scenario(path)
        assert cfg == load_scenario(write_scenario(tmp_path))
        assert "seed" not in run_scenario(cfg).summary

    def test_missing_input_path_rejected(self, tmp_path):
        def mutate(doc):
            doc["paths"]["beacons"] = str(tmp_path / "gone.geojson")

        with pytest.raises(InputError, match="does not exist"):
            load_scenario(write_scenario(tmp_path, mutate=mutate))

    def test_deploy_inputs_are_not_required(self, tmp_path):
        def mutate(doc):
            doc.pop("deployment", None)
            del doc["paths"]["bathymetry"], doc["paths"]["mission_area"]

        cfg = load_scenario(write_scenario(tmp_path, mutate=mutate))
        assert cfg.beacons == (NOMINAL.parent / "beacons.geojson").resolve()

    def test_unknown_world_parameter_rejected(self, tmp_path):
        def mutate(doc):
            doc["world"]["warp_factor"] = 9

        with pytest.raises(InputError, match="warp_factor"):
            load_scenario(write_scenario(tmp_path, mutate=mutate))

    def test_world_keys_that_are_not_text_are_named(self, tmp_path):
        # YAML reads 10.0:, true: and 3: as a float, a bool and an int key
        def mutate(doc):
            doc["world"].update({10.0: 50.0, True: 1, 3: 2, "warp_factor": 9})

        path = write_scenario(tmp_path, mutate=mutate)
        with pytest.raises(InputError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == (
            f"{path}: unknown world parameter(s): 'warp_factor', 10.0, 3, True"
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tick", [1]),
            ("tick", True),
            ("step_cap", 1.5),
            ("uuv_speed", float("nan")),
            ("current", [float("nan"), 0.0]),
        ],
    )
    def test_world_value_must_be_a_finite_number(self, tmp_path, key, value):
        def mutate(doc):
            doc["world"][key] = value

        path = write_scenario(tmp_path, mutate=mutate)
        with pytest.raises(InputError, match=f"world.{key}") as excinfo:
            load_scenario(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tick", 0, "world.tick must be positive"),
            ("pulse_period", 0, "world.pulse_period must be positive"),
            ("standoff_radius", 0, "world.standoff_radius must be positive"),
            (
                "standoff_radius",
                1.0e308,
                "world.standoff_radius 1e+308 gives a circle time or angular rate that is not finite",
            ),
            (
                "standoff_radius",
                1.0e-320,
                "world.standoff_radius 1e-320 gives a circle time or angular rate that is not finite",
            ),
            (
                "tick",
                1.0e308,
                "world.tick 1e+308 and pulse_period 10.0 give a pulse count over the run"
                " (step_cap × tick / pulse_period) that is not finite",
            ),
            (
                "pulse_period",
                1.0e-320,
                "world.tick 1.0 and pulse_period 1e-320 give a pulse count over the run"
                " (step_cap × tick / pulse_period) that is not finite",
            ),
            (
                "drift_rate",
                1.0e308,
                "world.drift_rate 1e+308 and uuv_speed 2.0 give a position uncertainty over"
                " the run (initial_uncertainty + drift_rate × uuv_speed × tick × step_cap)"
                " that is not finite",
            ),
            (
                "uuv_speed",
                -1,
                "world.uuv_speed -1.0 and tick 1.0 give a step per tick (uuv_speed × tick)"
                " that is not positive",
            ),
            (
                "uuv_speed",
                0,
                "world.uuv_speed 0.0 and tick 1.0 give a step per tick (uuv_speed × tick)"
                " that is not positive",
            ),
            ("step_cap", 0, "world.step_cap must be positive"),
            ("step_cap", -3, "world.step_cap must be positive"),
            ("acoustic_range", -1, "world.acoustic_range must be non-negative"),
            ("comm_range", -1, "world.comm_range must be non-negative"),
            ("drift_rate", -0.01, "world.drift_rate must be non-negative"),
            ("arrival_tolerance", -1, "world.arrival_tolerance must be non-negative"),
            ("localization_floor", -5, "world.localization_floor must be non-negative"),
            ("initial_uncertainty", -100, "world.initial_uncertainty must be non-negative"),
            ("margin_base", -0.5, "world.margin_base must be non-negative"),
        ],
    )
    def test_world_value_out_of_range_names_file_and_field(self, tmp_path, key, value, message):
        def mutate(doc):
            doc["world"][key] = value

        path = write_scenario(tmp_path, mutate=mutate)
        with pytest.raises(InputError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_speed_whose_step_underflows_to_zero_names_file_and_field(self, tmp_path):
        def mutate(doc):
            doc["world"]["uuv_speed"] = 5.0e-324
            doc["world"]["tick"] = 0.5

        path = write_scenario(tmp_path, mutate=mutate)
        with pytest.raises(InputError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == (
            f"{path}: world.uuv_speed 5e-324 and tick 0.5 give a step per tick"
            " (uuv_speed × tick) that is not positive"
        )

    def test_duplicate_vehicle_id_rejected(self, tmp_path):
        def mutate(doc):
            doc["uuvs"][1]["id"] = "uuv1"

        with pytest.raises(InputError, match="duplicate"):
            load_scenario(write_scenario(tmp_path, mutate=mutate))

    def test_bad_start_rejected(self, tmp_path):
        def mutate(doc):
            doc["uuvs"][0]["start"] = [1.0]

        with pytest.raises(InputError, match="start"):
            load_scenario(write_scenario(tmp_path, mutate=mutate))

    def test_empty_fleet_rejected(self, tmp_path):
        with pytest.raises(InputError, match="uuvs"):
            load_scenario(write_scenario(tmp_path, mutate=lambda d: d.update(uuvs=[])))

    def test_not_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(InputError, match="YAML"):
            load_scenario(path)


class TestLoadBeacons:
    def test_bundled_chart(self):
        beacons = load_beacons(REPO / "scenarios" / "beacons.geojson")
        assert [b.id for b in beacons] == ["b4", "b5", "b6", "b7", "b8"]
        assert all(b.active for b in beacons)
        b6 = next(b for b in beacons if b.id == "b6")
        assert b6.position == Point2D(4000.0, 4000.0)
        assert b6.acoustic_range == 2000.0

    def test_per_feature_overrides(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {
                        "id": "bx",
                        "active": False,
                        "acoustic_range": 750.0,
                        "pulse_period": 5.0,
                    },
                    "geometry": {"type": "Point", "coordinates": [1.0, 2.0]},
                }
            ],
        }
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps(doc))
        (bx,) = load_beacons(path)
        assert not bx.active
        assert bx.acoustic_range == 750.0
        assert bx.pulse_period == 5.0

    def test_missing_id_rejected(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {},
                    "geometry": {"type": "Point", "coordinates": [1.0, 2.0]},
                }
            ],
        }
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(GeoJsonError, match="id"):
            load_beacons(path)

    def test_duplicate_id_rejected(self, tmp_path):
        feature = {
            "type": "Feature",
            "properties": {"id": "bx"},
            "geometry": {"type": "Point", "coordinates": [1.0, 2.0]},
        }
        doc = {"type": "FeatureCollection", "features": [feature, feature]}
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(GeoJsonError, match="duplicate"):
            load_beacons(path)

    def test_non_point_rejected(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"id": "bx"},
                    "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
                }
            ],
        }
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(GeoJsonError, match="Point"):
            load_beacons(path)

    def test_beacon_links_feature_is_skipped(self, tmp_path):
        links = {
            "type": "Feature",
            "properties": {"role": "beacon-links", "coverage_link_distance_m": 4000.0},
            "geometry": {"type": "MultiLineString", "coordinates": [[[0.0, 0.0], [1.0, 2.0]]]},
        }
        features = [
            {"type": "Feature", "properties": {"id": "ba"}, "geometry": POINT},
            links,
            {"type": "Feature", "properties": {"id": "bb"}, "geometry": POINT},
        ]
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        assert [b.id for b in load_beacons(path)] == ["ba", "bb"]

    @pytest.mark.parametrize(
        "bad_feature, message",
        [
            ("bx", "feature 1 is not a JSON object"),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "active": "false"},
                    "geometry": {"type": "Point", "coordinates": [1.0, 2.0]},
                },
                "feature 1 'active' must be true or false",
            ),
            (
                {"type": "Feature", "properties": "x", "geometry": POINT},
                "feature 1 'properties' is not a JSON object",
            ),
            (
                {"type": "Feature", "properties": {"id": "bx"}, "geometry": "x"},
                "feature 1 is not a Point",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx"},
                    "geometry": {"type": "Point", "coordinates": ["a", 2.0]},
                },
                "feature 1 has malformed coordinates",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx"},
                    "geometry": {"type": "Point", "coordinates": [float("nan"), 2.0]},
                },
                "feature 1 has malformed coordinates",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "acoustic_range": "a"},
                    "geometry": POINT,
                },
                "feature 1 'acoustic_range' must be a finite number",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "pulse_period": float("inf")},
                    "geometry": POINT,
                },
                "feature 1 'pulse_period' must be a finite number",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "pulse_period": 0},
                    "geometry": POINT,
                },
                "feature 1 'pulse_period' must be positive",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "pulse_period": -10},
                    "geometry": POINT,
                },
                "feature 1 'pulse_period' must be positive",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "pulse_period": 1e-320},
                    "geometry": POINT,
                },
                "feature 1 'pulse_period' 1e-320 gives a pulse count over the run",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "acoustic_range": -1},
                    "geometry": POINT,
                },
                "feature 1 'acoustic_range' must be non-negative",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"role": "links"},
                    "geometry": {"type": "MultiLineString", "coordinates": []},
                },
                "feature 1 is not a Point",
            ),
        ],
    )
    def test_malformed_feature_names_file_and_index(self, tmp_path, bad_feature, message):
        good = {
            "type": "Feature",
            "properties": {"id": "ba"},
            "geometry": {"type": "Point", "coordinates": [0.0, 0.0]},
        }
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [good, bad_feature]}))
        with pytest.raises(GeoJsonError, match=message) as excinfo:
            load_beacons(path)
        assert str(path) in str(excinfo.value)

    def test_features_must_be_a_list(self, tmp_path):
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": 5}))
        with pytest.raises(GeoJsonError, match="'features' must be a list") as excinfo:
            load_beacons(path)
        assert str(path) in str(excinfo.value)

    def test_not_a_collection_rejected(self, tmp_path):
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps({"type": "Point", "coordinates": [0, 0]}))
        with pytest.raises(GeoJsonError, match="FeatureCollection"):
            load_beacons(path)

    def test_empty_chart_rejected(self, tmp_path):
        path = tmp_path / "chart.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": []}))
        with pytest.raises(GeoJsonError, match="no beacon"):
            load_beacons(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed: [1\nb: 2\n", "line 2, column 2: expected ',' or ']', but got ':'"
         " (while parsing a flow sequence at line 1, column 7)"),
        ("a: b: c\n", "line 1, column 5: mapping values are not allowed here"),
        ("seed: 1\nx: \x00\n", "line 2, column 4: unacceptable character #x0000:"
         " special characters are not allowed"),
        ("a: !!foo x\n", "line 1, column 4: could not determine a constructor for the tag"
         " 'tag:yaml.org,2002:foo'"),
        # libyaml reads the next three without error: a tab after a key, a
        # tab inside a key, and a "?" that ends a flow-sequence number
        ("a:\tb\n", "line 1, column 3: found character '\\t' that cannot start any token"
         " (while scanning for the next token)"),
        ("seed: 1\nkey\tname: 2\n", "line 2, column 4: found character '\\t' that cannot"
         " start any token (while scanning for the next token)"),
        ("start: [2500.0, 2500.0?]\n", "line 1, column 23: expected ',' or ']', but got '?'"
         " (while parsing a flow sequence at line 1, column 8)"),
    ],
)
def test_yaml_error_is_one_line_placed_by_line_and_column(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        load_scenario(path)
    assert str(exc.value) == f"{path}: not valid YAML: {message}"
