import json
import math
from pathlib import Path

import pytest

from uuvnav.cli import main

REPO = Path(__file__).resolve().parent.parent
DOMAIN = str(REPO / "domains" / "uuv-nav.hddl")
PROBLEM = str(REPO / "scenarios" / "problems" / "uuv1-mission.hddl")
BEACONS = str(REPO / "scenarios" / "beacons.geojson")
BATHY = str(REPO / "scenarios" / "bathymetry.asc")
AREA = str(REPO / "scenarios" / "mission-area.geojson")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlanCommand:
    def test_text_plan_lists_numbered_steps(self, capsys):
        code, out, _ = run(capsys, "plan", "--domain", DOMAIN, "--problem", PROBLEM)
        assert code == 0
        assert "plan: 5 step(s)" in out
        assert "1. navigate-to-beacon uuv1 b6" in out
        assert "5. navigate-to-beacon uuv1 b8" in out

    def test_json_plan_structure(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, out, _ = run(
            capsys,
            "plan", "--domain", DOMAIN, "--problem", PROBLEM,
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        names = [(s["name"], tuple(s["args"])) for s in doc["steps"]]
        assert names == [
            ("navigate-to-beacon", ("uuv1", "b6")),
            ("sense-beacon", ("uuv1", "b6")),
            ("circle-localize", ("uuv1", "b6")),
            ("broadcast", ("uuv1",)),
            ("navigate-to-beacon", ("uuv1", "b8")),
        ]
        assert doc["stats"]["decompositions"] >= 1
        assert json.loads(out) == doc

    def test_unsolvable_problem_exits_3(self, capsys, tmp_path):
        problem = tmp_path / "stuck.hddl"
        problem.write_text(
            """
            (define (problem stuck)
              (:domain uuv-nav)
              (:objects u - uuv bX - beacon)
              (:init)
              (:htn :ordered-subtasks (localize-at u bX)))
            """
        )
        code, _, err = run(capsys, "plan", "--domain", DOMAIN, "--problem", str(problem))
        assert code == 3
        assert "no plan" in err

    def test_malformed_domain_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.hddl"
        bad.write_text("(define (domain broken)")
        code, _, err = run(capsys, "plan", "--domain", str(bad), "--problem", PROBLEM)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("b8 - beacon", "b8 b4 - beacon", "7:20: duplicate object name b4"),
            (
                "(beacon-active b4)",
                "(beacon-active uuv1)",
                "9:5: init atom beacon-active: object uuv1 has type uuv, expected beacon",
            ),
            (
                "(mission uuv1 b6 b8)",
                "(mission b6 uuv1 b8)",
                "14:27: :htn task mission: object b6 has type beacon, expected uuv",
            ),
            (
                "(mission uuv1 b6 b8)",
                "(sense-beacon b6 uuv1)",
                "14:27: :htn task sense-beacon: object b6 has type beacon, expected uuv",
            ),
            (
                "(mission uuv1 b6 b8))",
                "(mission uuv1 b6 b8))\n  (:goal (localized b4))",
                "15:10: goal atom localized: object b4 has type beacon, expected uuv",
            ),
        ],
        ids=["duplicate-object", "init-type", "htn-type", "htn-action-type", "goal-type"],
    )
    def test_problem_error_names_file_and_offending_form(
        self, capsys, tmp_path, old, new, message
    ):
        # each used to be reported at the (define form, or to parse and end in "no plan"
        text = Path(PROBLEM).read_text()
        assert old in text
        bad = tmp_path / "uuv1-mission.hddl"
        bad.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "plan", "--domain", DOMAIN, "--problem", str(bad))
        assert (code, out, err) == (1, "", f"error: {bad}: {message}\n")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(
            capsys, "plan", "--domain", "/nonexistent.hddl", "--problem", PROBLEM
        )
        assert code == 1


class TestValidateCommand:
    def make_plan(self, capsys, tmp_path) -> Path:
        out_path = tmp_path / "plan.json"
        code, _, _ = run(
            capsys,
            "plan", "--domain", DOMAIN, "--problem", PROBLEM,
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        return out_path

    def test_planner_output_validates(self, capsys, tmp_path):
        plan_path = self.make_plan(capsys, tmp_path)
        code, out, _ = run(
            capsys,
            "validate", "--domain", DOMAIN, "--problem", PROBLEM,
            "--plan", str(plan_path),
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["valid"] is True

    def test_reordered_steps_reported_invalid(self, capsys, tmp_path):
        plan_path = self.make_plan(capsys, tmp_path)
        doc = json.loads(plan_path.read_text())
        doc["steps"][0], doc["steps"][1] = doc["steps"][1], doc["steps"][0]
        plan_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "validate", "--domain", DOMAIN, "--problem", PROBLEM,
            "--plan", str(plan_path),
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["valid"] is False
        assert verdict["step_index"] == 0

    def test_unknown_action_reported_invalid(self, capsys, tmp_path):
        plan_path = self.make_plan(capsys, tmp_path)
        doc = json.loads(plan_path.read_text())
        doc["steps"][0]["name"] = "teleport"
        plan_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "validate", "--domain", DOMAIN, "--problem", PROBLEM,
            "--plan", str(plan_path),
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["valid"] is False
        assert "not a ground action" in verdict["reason"]

    def test_first_fault_in_step_order_is_reported(self, capsys, tmp_path):
        plan_path = self.make_plan(capsys, tmp_path)
        doc = json.loads(plan_path.read_text())
        doc["steps"][0], doc["steps"][1] = doc["steps"][1], doc["steps"][0]
        doc["steps"][-1]["name"] = "teleport"
        plan_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "validate", "--domain", DOMAIN, "--problem", PROBLEM,
            "--plan", str(plan_path),
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["step_index"] == 0
        assert "precondition" in verdict["reason"]

    @pytest.mark.parametrize("bad_args", [5, "b6"])
    def test_step_args_must_be_a_list_of_strings(self, capsys, tmp_path, bad_args):
        plan_path = self.make_plan(capsys, tmp_path)
        doc = json.loads(plan_path.read_text())
        doc["steps"][1]["args"] = bad_args
        plan_path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys,
            "validate", "--domain", DOMAIN, "--problem", PROBLEM,
            "--plan", str(plan_path),
        )
        assert code == 1
        assert str(plan_path) in err and "steps[1]" in err

    def test_garbage_plan_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json")
        code, _, err = run(
            capsys,
            "validate", "--domain", DOMAIN, "--problem", PROBLEM, "--plan", str(bad),
        )
        assert code == 1


class TestRouteCommand:
    def test_direct_hop(self, capsys):
        code, out, _ = run(
            capsys, "route", "--beacons", BEACONS, "--start", "b6", "--goal", "b8"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == ["b6", "b8"]
        assert doc["length"] == pytest.approx(2121.3203435596424)

    def test_multi_hop_under_tight_links(self, capsys):
        code, out, _ = run(
            capsys,
            "route", "--beacons", BEACONS, "--start", "b4", "--goal", "b8",
            "--link-distance", "2200",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["route"] == ["b4", "b5", "b6", "b8"]

    def test_unreachable_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "route", "--beacons", BEACONS, "--start", "b4", "--goal", "b8",
            "--link-distance", "1000",
        )
        assert code == 2
        assert "no route" in err

    @pytest.mark.parametrize("link", ["nan", "inf"])
    def test_non_finite_link_distance_exits_1(self, capsys, link):
        code, _, err = run(
            capsys,
            "route", "--beacons", BEACONS, "--start", "b4", "--goal", "b8",
            "--link-distance", link,
        )
        assert code == 1
        assert "coverage_link_distance" in err

    def test_unknown_beacon_exits_1(self, capsys):
        code, _, err = run(
            capsys, "route", "--beacons", BEACONS, "--start", "b99", "--goal", "b8"
        )
        assert code == 1
        assert "b99" in err


class TestDeployCommand:
    def test_writes_constellation_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "constellation.geojson"
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "deploy", "--bathymetry", BATHY, "--area", AREA,
            "--n-beacons", "3", "--seed", "2", "--tolerance", "0.01",
            "--out", str(out_path), "--report", str(report_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        points = [f for f in doc["features"] if f["geometry"]["type"] == "Point"]
        assert len(points) == 3
        report = json.loads(report_path.read_text())
        assert report["converged"] is True
        assert sum(report["volumes"]) == report["v_tot"]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        args = [
            "deploy", "--bathymetry", BATHY, "--area", AREA,
            "--n-beacons", "4", "--seed", "9", "--tolerance", "0.01",
        ]
        out1, out2 = tmp_path / "a.geojson", tmp_path / "b.geojson"
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("link", ["nan", "inf"])
    def test_non_finite_link_distance_exits_1(self, capsys, tmp_path, link):
        out_path = tmp_path / "constellation.geojson"
        code, _, err = run(
            capsys,
            "deploy", "--bathymetry", BATHY, "--area", AREA,
            "--n-beacons", "3", "--max-iterations", "2",
            "--link-distance", link, "--out", str(out_path),
        )
        assert code == 1
        assert "coverage_link_distance" in err
        assert not out_path.exists()

    def test_route_reads_the_constellation(self, capsys, tmp_path):
        out_path = tmp_path / "constellation.geojson"
        code, out, _ = run(
            capsys,
            "deploy", "--bathymetry", BATHY, "--area", AREA,
            "--n-beacons", "5", "--seed", "3", "--tolerance", "0.01",
            "--out", str(out_path),
        )
        assert code == 0
        positions = json.loads(out)["positions"]
        code, out, err = run(
            capsys, "route", "--beacons", str(out_path), "--start", "b1", "--goal", "b2"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["route"][0] == "b1" and doc["route"][-1] == "b2"
        hops = zip(doc["route"], doc["route"][1:])
        idx = {f"b{i + 1}": p for i, p in enumerate(positions)}
        assert doc["length"] == pytest.approx(
            sum(math.dist(idx[a], idx[b]) for a, b in hops)
        )

    @pytest.mark.parametrize(
        "which, old, new, message",
        [
            ("bathymetry", "ncols 100", "ncols 2.5", "line 1: ncols must be a positive integer"),
            ("bathymetry", "nrows 100", "nrows nan", "line 2: non-finite header value 'nan'"),
            ("area", '"Polygon"', '"Point"', "expected a Polygon geometry"),
        ],
        ids=["fractional-ncols", "nan-nrows", "point-area"],
    )
    def test_bad_input_file_is_named(self, capsys, tmp_path, which, old, new, message):
        src = {"bathymetry": BATHY, "area": AREA}
        bad = tmp_path / Path(src[which]).name
        text = Path(src[which]).read_text()
        assert old in text
        bad.write_text(text.replace(old, new, 1))
        files = {**src, which: str(bad)}
        code, _, err = run(
            capsys,
            "deploy", "--bathymetry", files["bathymetry"], "--area", files["area"],
            "--n-beacons", "3", "--out", str(tmp_path / "x.geojson"),
        )
        assert code == 1
        assert err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize(
        "corner, extent",
        [(1e308, "inf"), (1e200, "2e+200")],
        ids=["past-float-range", "square-overflows"],
    )
    def test_area_too_large_to_square_exits_1_naming_it(self, capsys, tmp_path, corner, extent):
        # A plain square: it used to be rejected as self-intersecting, or
        # accepted with overflowing arithmetic.
        area = tmp_path / "area.geojson"
        ring = [[-corner, -corner], [corner, -corner], [corner, corner], [-corner, corner]]
        area.write_text(json.dumps({"type": "Polygon", "coordinates": [ring + ring[:1]]}))
        out_path = tmp_path / "x.geojson"
        code, _, err = run(
            capsys,
            "deploy", "--bathymetry", BATHY, "--area", str(area),
            "--n-beacons", "3", "--out", str(out_path),
        )
        assert code == 1
        assert err.startswith(f"error: {area}: coordinate extent {extent} m is too large")
        assert not out_path.exists()

    def test_area_without_water_volume_exits_1(self, capsys, tmp_path):
        grid = tmp_path / "flat.asc"
        grid.write_text(
            "ncols 4\nnrows 4\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
            "NODATA_value -9999\n" + "0 0 0 0\n" * 4
        )
        area = tmp_path / "area.geojson"
        ring = [[0.0, 0.0], [40.0, 0.0], [40.0, 40.0], [0.0, 40.0], [0.0, 0.0]]
        area.write_text(json.dumps({"type": "Polygon", "coordinates": [ring]}))
        out_path, report_path = tmp_path / "x.geojson", tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "deploy", "--bathymetry", str(grid), "--area", str(area), "--n-beacons", "2",
            "--out", str(out_path), "--report", str(report_path),
        )
        assert code == 1
        assert "hold no volume" in err
        assert not out_path.exists() and not report_path.exists()

    def test_bad_beacon_count_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "deploy", "--bathymetry", BATHY, "--area", AREA,
            "--n-beacons", "0", "--out", str(tmp_path / "x.geojson"),
        )
        assert code == 1


class TestSimulateCommand:
    def test_nominal_run_writes_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys,
            "simulate", "--scenario", str(REPO / "scenarios" / "nominal.yaml"),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "events.jsonl").exists()
        assert (out_dir / "tracks.geojson").exists()
        assert (out_dir / "summary.json").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["all_missions_completed"] is True
        assert json.loads(out)["seed"] == summary["seed"] == 12345
        first = json.loads((out_dir / "events.jsonl").read_text().splitlines()[0])
        assert first["v"] == 1
        tracks = json.loads((out_dir / "tracks.geojson").read_text())
        roles = {(f["properties"]["id"], f["properties"]["role"]) for f in tracks["features"]}
        assert ("uuv1", "true") in roles and ("uuv1", "estimated") in roles

    def test_zero_speed_scenario_exits_4(self, capsys, tmp_path):
        import yaml

        doc = yaml.safe_load((REPO / "scenarios" / "nominal.yaml").read_text())
        base = REPO / "scenarios"
        doc["paths"] = {
            "bathymetry": str(base / "bathymetry.asc"),
            "mission_area": str(base / "mission-area.geojson"),
            "beacons": str(base / "beacons.geojson"),
            "domain": str(REPO / "domains" / "uuv-nav.hddl"),
        }
        for u in doc["uuvs"]:
            u["problem"] = str(base / u["problem"])
        doc["world"]["uuv_speed"] = 0.0
        doc["output_dir"] = str(tmp_path / "out")
        scenario = tmp_path / "stalled.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        code, _, err = run(capsys, "simulate", "--scenario", str(scenario))
        assert code == 4
        assert "inexecutable" in err

    def test_zero_tick_exits_1_naming_file_and_field(self, capsys, tmp_path):
        import yaml

        doc = yaml.safe_load((REPO / "scenarios" / "nominal.yaml").read_text())
        base = REPO / "scenarios"
        doc["paths"] = {
            "beacons": str(base / "beacons.geojson"),
            "domain": str(REPO / "domains" / "uuv-nav.hddl"),
        }
        for u in doc["uuvs"]:
            u["problem"] = str(base / u["problem"])
        doc["world"]["tick"] = 0
        doc["output_dir"] = str(tmp_path / "out")
        scenario = tmp_path / "zero-tick.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        code, _, err = run(capsys, "simulate", "--scenario", str(scenario))
        assert code == 1
        assert err == f"error: {scenario}: world.tick must be positive\n"

    def test_unknown_inactive_beacon_exits_1(self, capsys, tmp_path):
        import yaml

        doc = yaml.safe_load((REPO / "scenarios" / "b6-silenced.yaml").read_text())
        base = REPO / "scenarios"
        doc["paths"] = {
            "bathymetry": str(base / "bathymetry.asc"),
            "mission_area": str(base / "mission-area.geojson"),
            "beacons": str(base / "beacons.geojson"),
            "domain": str(REPO / "domains" / "uuv-nav.hddl"),
        }
        for u in doc["uuvs"]:
            u["problem"] = str(base / u["problem"])
        doc["inactive_beacons"] = ["b99"]
        doc["output_dir"] = str(tmp_path / "out")
        scenario = tmp_path / "badbeacon.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        code, _, err = run(capsys, "simulate", "--scenario", str(scenario))
        assert code == 1
        assert "b99" in err

    @pytest.mark.parametrize("where", ["inactive-beacons", "problem-object"])
    def test_uncharted_beacon_exits_1_naming_the_files(self, capsys, tmp_path, where):
        import yaml

        doc = yaml.safe_load((REPO / "scenarios" / "nominal.yaml").read_text())
        base = REPO / "scenarios"
        doc["paths"] = {"beacons": BEACONS, "domain": DOMAIN}
        for u in doc["uuvs"]:
            u["problem"] = str(base / u["problem"])
        if where == "inactive-beacons":
            doc["inactive_beacons"] = ["b99"]
            named = "inactive_beacons"
        else:
            problem = tmp_path / "uuv1-mission.hddl"
            text = Path(PROBLEM).read_text()
            assert "b8 - beacon" in text and "(mission uuv1 b6 b8)" in text
            problem.write_text(
                text.replace("b8 - beacon", "b8 b99 - beacon").replace(
                    "(mission uuv1 b6 b8)", "(mission uuv1 b99 b8)"
                )
            )
            doc["uuvs"][0]["problem"] = str(problem)
            named = str(problem)
        doc["output_dir"] = str(tmp_path / "out")
        scenario = tmp_path / "uncharted.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        code, _, err = run(capsys, "simulate", "--scenario", str(scenario))
        assert code == 1
        assert named in err and "'b99'" in err and BEACONS in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("plan", "--domain"),
        ("route", "--beacons"),
        ("simulate", "--scenario"),
        ("deploy", "--bathymetry"),
    ],
)
def test_undecodable_input_file_exits_1_naming_it(capsys, tmp_path, command, flag):
    bad = tmp_path / "input.bin"
    bad.write_bytes(b"\xff\xfe not utf-8 \xff")
    argv = {
        "plan": ["--domain", DOMAIN, "--problem", PROBLEM],
        "route": ["--beacons", BEACONS, "--start", "b4", "--goal", "b8"],
        "simulate": ["--scenario", str(REPO / "scenarios" / "nominal.yaml")],
        "deploy": [
            "--bathymetry", BATHY, "--area", AREA, "--n-beacons", "3",
            "--out", str(tmp_path / "x.geojson"),
        ],
    }[command]
    argv[argv.index(flag) + 1] = str(bad)
    code, _, err = run(capsys, command, *argv)
    assert code == 1
    assert err.startswith("error: ") and str(bad) in err


def test_scenario_domain_directory_exits_1_naming_it(capsys, tmp_path):
    import yaml

    doc = yaml.safe_load((REPO / "scenarios" / "nominal.yaml").read_text())
    domain_dir = tmp_path / "uuv-nav.hddl"
    domain_dir.mkdir()
    doc["paths"] = {"beacons": BEACONS, "domain": str(domain_dir)}
    for u in doc["uuvs"]:
        u["problem"] = str(REPO / "scenarios" / u["problem"])
    doc["output_dir"] = str(tmp_path / "out")
    scenario = tmp_path / "dir-domain.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    code, _, err = run(capsys, "simulate", "--scenario", str(scenario))
    assert code == 1
    assert err.startswith("error: ") and str(domain_dir) in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seed", "-1"),
        ("--n-beacons", "0"),
        ("--max-iterations", "0"),
        ("--tolerance", "2"),
        ("--link-distance", "0"),
    ],
)
def test_out_of_range_deploy_flag_exits_1_naming_it(capsys, tmp_path, flag, value):
    argv = {
        "--bathymetry": BATHY, "--area": AREA, "--n-beacons": "3", "--max-iterations": "2",
        "--out": str(tmp_path / "x.geojson"), flag: value,
    }
    code, _, err = run(capsys, "deploy", *(item for pair in argv.items() for item in pair))
    assert code == 1
    # each message names the parameter the flag sets, e.g. rng_seed for --seed
    assert flag[2:].replace("-", "_") in err
    assert not (tmp_path / "x.geojson").exists()



def nominal_scenario_doc():
    """The nominal scenario with every path made absolute."""
    import yaml

    doc = yaml.safe_load((REPO / "scenarios" / "nominal.yaml").read_text())
    doc["paths"] = {"beacons": BEACONS, "domain": DOMAIN}
    for u in doc["uuvs"]:
        u["problem"] = str(REPO / "scenarios" / u["problem"])
    return doc


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["paths"].update(beacons=5), "paths.beacons: expected a path string, got 5"),
        (lambda d: d["paths"].pop("domain"), "missing required field 'paths.domain'"),
        (lambda d: d["uuvs"][0].update(start=[1]), "uuvs[0].start: expected [x, y], got [1]"),
        (lambda d: d["uuvs"][0].pop("problem"), "missing required field 'uuvs[0].problem'"),
        (lambda d: d["uuvs"][0].update(problem="gone.hddl"), "uuvs[0].problem: path does not exist"),
    ],
    ids=["beacons-not-a-path", "no-domain", "short-start", "no-problem", "missing-problem"],
)
def test_scenario_error_names_the_scenario_once(capsys, tmp_path, mutate, message):
    import yaml

    doc = nominal_scenario_doc()
    mutate(doc)
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    code, _, err = run(capsys, "simulate", "--scenario", str(scenario))
    assert code == 1
    assert err.startswith(f"error: {scenario}: {message}")
    assert err.count(str(scenario)) == 1


@pytest.mark.parametrize("command", ["route", "deploy", "validate", "simulate"])
def test_deeply_nested_input_exits_1_naming_it(capsys, tmp_path, command):
    bad = tmp_path / "nested.txt"
    if command == "simulate":
        bad.write_text("seed: " + "[" * 5000 + "]" * 5000 + "\n")
    else:
        bad.write_text("[" * 200000 + "]" * 200000)
    argv = {
        "route": ["--beacons", str(bad), "--start", "b4", "--goal", "b8"],
        "deploy": [
            "--bathymetry", BATHY, "--area", str(bad), "--n-beacons", "3",
            "--out", str(tmp_path / "x.geojson"),
        ],
        "validate": ["--domain", DOMAIN, "--problem", PROBLEM, "--plan", str(bad)],
        "simulate": ["--scenario", str(bad)],
    }[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 1
    assert err.startswith(f"error: {bad}: ")


MALFORMED = REPO / "scenarios" / "malformed"
# each file of the corpus: the flag it is passed to, how its message starts
# after the path, and the line, feature index or field the message names
MALFORMED_INPUTS = {
    "invalid-yaml.yaml": ("--scenario", "not valid YAML: ", "line 11, column 12"),
    "zero-tick.yaml": ("--scenario", "world.tick must be positive", "world.tick"),
    "missing-domain.yaml": (
        "--scenario", "missing required field 'paths.domain'", "paths.domain"
    ),
    "chart-not-a-point.geojson": ("--beacons", "feature 1 is not a Point", "feature 1"),
    "chart-bad-coordinates.geojson": (
        "--beacons", "feature 1 has malformed coordinates", "feature 1"
    ),
    "area-with-hole.geojson": (
        "--area", "polygon has 1 hole(s); holes are not supported", "polygon"
    ),
    "area-bad-coordinates.geojson": (
        "--area", "bad ring coordinates: could not convert string to float", "ring"
    ),
    "grid-non-numeric.asc": ("--bathymetry", "line 8: non-numeric grid value 'deep'", "line 8"),
    "grid-bad-ncols.asc": (
        "--bathymetry", "line 1: ncols must be a positive integer, got '4.5'", "line 1"
    ),
    "grid-too-few-values.asc": (
        "--bathymetry", "line 10: expected 16 grid values (4x4), got 15", "line 10"
    ),
}


@pytest.mark.parametrize("name", sorted(p.name for p in MALFORMED.iterdir()))
def test_malformed_input_corpus_exits_1_naming_file_and_place(capsys, tmp_path, name):
    flag, start, where = MALFORMED_INPUTS[name]
    deploy = ["deploy", "--bathymetry", BATHY, "--area", AREA, "--n-beacons", "3",
              "--out", str(tmp_path / "x.geojson")]
    argv = {
        "--scenario": ["simulate", "--scenario", "", "--out-dir", str(tmp_path / "out")],
        "--beacons": ["route", "--beacons", "", "--start", "b1", "--goal", "b2"],
        "--area": deploy,
        "--bathymetry": deploy,
    }[flag]
    path = str(MALFORMED / name)
    argv[argv.index(flag) + 1] = path
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: {start}")
    assert where in err and err.count(path) == 1 and "Traceback" not in err
    assert not (tmp_path / "x.geojson").exists() and not (tmp_path / "out").exists()
