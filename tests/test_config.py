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
            ("tick", 0, "world.tick must lie in [0.001, 3600], got 0.0"),
            ("pulse_period", 0, "world.pulse_period must lie in [0.001, 1e+06], got 0.0"),
            ("standoff_radius", 0, "world.standoff_radius must lie in [0.001, 1e+06], got 0.0"),
            (
                "standoff_radius",
                1.0e308,
                "world.standoff_radius must lie in [0.001, 1e+06], got 1e+308",
            ),
            (
                "standoff_radius",
                1.0e-320,
                "world.standoff_radius must lie in [0.001, 1e+06], got 1e-320",
            ),
            ("tick", 1.0e308, "world.tick must lie in [0.001, 3600], got 1e+308"),
            ("pulse_period", 1.0e-320, "world.pulse_period must lie in [0.001, 1e+06], got 1e-320"),
            ("drift_rate", 1.0e308, "world.drift_rate must lie in [0, 1000], got 1e+308"),
            ("uuv_speed", -1, "world.uuv_speed must lie in [0.001, 100], got -1.0"),
            ("uuv_speed", 0, "world.uuv_speed must lie in [0.001, 100], got 0.0"),
            ("step_cap", 0, "world.step_cap must lie in [1, 1e+07], got 0"),
            ("step_cap", -3, "world.step_cap must lie in [1, 1e+07], got -3"),
            ("acoustic_range", -1, "world.acoustic_range must lie in [0, 1e+06], got -1.0"),
            ("comm_range", -1, "world.comm_range must lie in [0, 1e+06], got -1.0"),
            ("drift_rate", -0.01, "world.drift_rate must lie in [0, 1000], got -0.01"),
            ("arrival_tolerance", -1, "world.arrival_tolerance must lie in [0, 1e+06], got -1.0"),
            (
                "localization_floor",
                -5,
                "world.localization_floor must lie in [0, 1e+06], got -5.0",
            ),
            (
                "initial_uncertainty",
                -100,
                "world.initial_uncertainty must lie in [0, 1e+06], got -100.0",
            ),
            ("margin_base", -0.5, "world.margin_base must lie in [0, 1000], got -0.5"),
            # above the envelope
            ("uuv_speed", 100.5, "world.uuv_speed must lie in [0.001, 100], got 100.5"),
            ("step_cap", 10_000_001, "world.step_cap must lie in [1, 1e+07], got 10000001"),
            ("comm_range", 2e6, "world.comm_range must lie in [0, 1e+06], got 2000000.0"),
            ("margin_base", 1e300, "world.margin_base must lie in [0, 1000], got 1e+300"),
            pytest.param(
                "current",
                [60.0, -80.5],
                "world.current must have a norm of at most 100 m/s, got (60.0, -80.5)",
                id="current-past-100-m/s",
            ),
            pytest.param(
                "current",
                [-1.7e308, 0.0],
                "world.current must have a norm of at most 100 m/s, got (-1.7e+308, 0.0)",
                id="current-near-the-float-limit",
            ),
            # nominal's 2 m/s for 5000001 ticks of 1 s
            (
                "step_cap",
                5_000_001,
                "world.step_cap 5000001 and tick 1.0 give a reach (uuv_speed + |current|)"
                " × tick × step_cap of 10000002.0 m, above its limit of 1e+07 m",
            ),
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
            f"{path}: world.uuv_speed must lie in [0.001, 100], got 5e-324"
        )

    @pytest.mark.parametrize(
        "start, message",
        [
            ([-1.7e308, 6000.0], "uuvs[0].start x -1.7e+308 lies beyond the coordinate limit"),
            ([2500.0, 10_000_000.5], "uuvs[0].start y 10000000.5 lies beyond the coordinate limit"),
        ],
        ids=["x-near-the-float-limit", "y-just-past-the-limit"],
    )
    def test_start_beyond_the_coordinate_limit_names_file_and_field(self, tmp_path, start, message):
        path = write_scenario(tmp_path, mutate=lambda d: d["uuvs"][0].update(start=start))
        with pytest.raises(InputError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == f"{path}: {message} of ±1e+07 m"

    def test_starts_and_chart_at_the_coordinate_limit_load(self, tmp_path):
        chart = tmp_path / "chart.geojson"
        chart.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"id": "b4"},
             "geometry": {"type": "Point", "coordinates": [-1e7, 1e7]}},
        ]}))

        def mutate(doc):
            doc["paths"]["beacons"] = str(chart)
            doc["uuvs"][0]["start"] = [1e7, -1e7]

        config = load_scenario(write_scenario(tmp_path, mutate=mutate))
        assert config.uuvs[0].start == Point2D(1e7, -1e7)
        assert load_beacons(chart)[0].position == Point2D(-1e7, 1e7)

    @pytest.mark.parametrize(
        "text, message",
        [
            # PyYAML reads YAML 1.1, where an exponent needs a point and a sign
            (
                "world: {tick: 1e0}",
                "world.tick must be a finite number, got '1e0';"
                " YAML 1.1 reads 1e0 as text, so write it as 1.0e+0",
            ),
            (
                "world: {acoustic_range: 2E3}",
                "world.acoustic_range must be a finite number, got '2E3';"
                " YAML 1.1 reads 2E3 as text, so write it as 2.0e+3",
            ),
            (
                "world: {current: [-15e-2, 0.0]}",
                "world.current: expected [x, y], got ['-15e-2', 0.0];"
                " YAML 1.1 reads -15e-2 as text, so write it as -15.0e-2",
            ),
            (
                "uuvs: [{id: u1, start: [0.0, 5e2], problem: p.hddl}]",
                "uuvs[0].start: expected [x, y], got [0.0, '5e2'];"
                " YAML 1.1 reads 5e2 as text, so write it as 5.0e+2",
            ),
            # other text gets no spelling, a quoted number included
            ("world: {tick: soon}", "world.tick must be a finite number, got 'soon'"),
            ("world: {tick: '1.0'}", "world.tick must be a finite number, got '1.0'"),
        ],
        ids=["tick", "upper-case-e", "current", "start", "not-a-number", "quoted"],
    )
    def test_a_number_yaml_reads_as_text_is_named_with_a_spelling(self, tmp_path, text, message):
        (tmp_path / "p.hddl").write_text("")
        path = tmp_path / "scenario.yaml"
        domain = REPO / "domains" / "uuv-nav.hddl"
        chart = REPO / "scenarios" / "beacons.geojson"
        fleet = "" if "uuvs" in text else "uuvs: [{id: u1, start: [0.0, 0.0], problem: p.hddl}]\n"
        path.write_text(
            f"output_dir: out\npaths: {{beacons: {chart}, domain: {domain}}}\n{text}\n{fleet}"
        )
        with pytest.raises(InputError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == f"{path}: {message}"

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
                r"feature 1 pulse_period must lie in \[0.001, 1e\+06\], got 0$",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "pulse_period": -10},
                    "geometry": POINT,
                },
                r"feature 1 pulse_period must lie in \[0.001, 1e\+06\], got -10$",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "pulse_period": 1e-320},
                    "geometry": POINT,
                },
                r"feature 1 pulse_period must lie in \[0.001, 1e\+06\], got 1e-320$",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "acoustic_range": -1},
                    "geometry": POINT,
                },
                r"feature 1 acoustic_range must lie in \[0, 1e\+06\], got -1$",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"role": "links"},
                    "geometry": {"type": "MultiLineString", "coordinates": []},
                },
                "feature 1 is not a Point",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx", "acoustic_range": 2.5e6},
                    "geometry": POINT,
                },
                r"feature 1 acoustic_range must lie in \[0, 1e\+06\], got 2500000.0$",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "b6"},
                    "geometry": {"type": "Point", "coordinates": [1.7e308, 4000.0]},
                },
                r"feature 1 x 1.7e\+308 lies beyond the coordinate limit of ±1e\+07 m$",
            ),
            (
                {
                    "type": "Feature",
                    "properties": {"id": "bx"},
                    "geometry": {"type": "Point", "coordinates": [0.0, -10_000_000.5]},
                },
                r"feature 1 y -10000000.5 lies beyond the coordinate limit of ±1e\+07 m$",
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
