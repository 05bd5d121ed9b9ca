import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uuvnav
from uuvnav.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent
DOMAIN = str(REPO / "domains" / "uuv-nav.hddl")
PROBLEM = str(REPO / "scenarios" / "problems" / "uuv1-mission.hddl")
BEACONS = str(REPO / "scenarios" / "beacons.geojson")
BATHY = str(REPO / "scenarios" / "bathymetry.asc")
AREA = str(REPO / "scenarios" / "mission-area.geojson")
PACKAGE_ROOT = Path(uuvnav.__file__).resolve().parent.parent


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

    def test_text_plan_of_a_3000_deep_decomposition_prints_every_step(self, capsys, tmp_path):
        # task t{i} decomposes into a step and t{i+1}, so the tree is 3000 methods deep
        depth = 3000
        methods = [
            f"(:method m{i} :parameters () :task (t{i}) :ordered-subtasks (and (step) (t{i + 1})))"
            for i in range(depth - 1)
        ]
        last = depth - 1
        methods.append(f"(:method m{last} :parameters () :task (t{last}) :ordered-subtasks (step))")
        domain = tmp_path / "chain.hddl"
        domain.write_text(
            "(define (domain chain) (:requirements :hierarchy)\n"
            + "".join(f"(:task t{i} :parameters ())\n" for i in range(depth))
            + "(:action step :parameters ())\n"
            + "\n".join(methods)
            + ")\n"
        )
        problem = tmp_path / "deep.hddl"
        problem.write_text("(define (problem deep) (:domain chain) (:htn :ordered-subtasks (t0)))")
        code, out, err = run(capsys, "plan", "--domain", str(domain), "--problem", str(problem))
        assert (code, err) == (0, "")
        numbered = [int(n) for n in re.findall(r"^ +(?:\[\d+\] )?(\d+)\. step$", out, flags=re.M)]
        assert numbered == list(range(1, depth + 1))
        assert out.startswith(f"plan: {depth} step(s)\n")
        # the indent stops growing, so the view stays no larger than the JSON
        code, json_out, _ = run(
            capsys, "plan", "--domain", str(domain), "--problem", str(problem), "--format", "json"
        )
        assert code == 0
        assert len(out) <= len(json_out)
        # step i sits at depth i + 1; only lines past depth 8 carry a mark
        assert re.search(r"^ {16}7\. step$", out, flags=re.M)
        assert re.search(r"^ {16}\[9\] 8\. step$", out, flags=re.M)
        assert re.search(r"^ {16}\[3001\] 3000\. step$", out, flags=re.M)
        assert "\n" + "  " * 9 not in out


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

    @pytest.mark.parametrize("kept", [4, 0])
    def test_plan_that_stops_early_names_no_step(self, capsys, tmp_path, kept):
        plan_path = self.make_plan(capsys, tmp_path)
        doc = json.loads(plan_path.read_text())
        assert len(doc["steps"]) == 5
        doc["steps"] = doc["steps"][:kept]
        plan_path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys,
            "validate", "--domain", DOMAIN, "--problem", PROBLEM,
            "--plan", str(plan_path),
        )
        assert code == 0
        assert json.loads(out) == {
            "reason": "plan ends before its task network is done",
            "step_index": None,
            "valid": False,
        }

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

    @pytest.mark.parametrize("bad_name", [["navigate-to-beacon"], None, 7, ""])
    def test_step_name_must_be_a_non_empty_string(self, capsys, tmp_path, bad_name):
        plan_path = self.make_plan(capsys, tmp_path)
        doc = json.loads(plan_path.read_text())
        doc["steps"][0]["name"] = bad_name
        plan_path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys,
            "validate", "--domain", DOMAIN, "--problem", PROBLEM,
            "--plan", str(plan_path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {plan_path}: steps[0] 'name' must be a non-empty string\n"

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
        "corner, shown",
        [(1e308, "-1e+308"), (1e200, "-1e+200")],
        ids=["past-float-range", "square-overflows"],
    )
    def test_area_too_large_to_square_exits_1_naming_it(self, capsys, tmp_path, corner, shown):
        # A plain square whose first vertex lies beyond the coordinate limit:
        # it used to be rejected as self-intersecting, or accepted with
        # overflowing arithmetic.
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
        assert err == (
            f"error: {area}: bad ring coordinates: vertex 0 x {shown} lies beyond"
            " the coordinate limit of ±1e+07 m\n"
        )
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
        assert json.loads(out) == summary
        assert "seed" not in summary
        first = json.loads((out_dir / "events.jsonl").read_text().splitlines()[0])
        assert first["v"] == 1
        tracks = json.loads((out_dir / "tracks.geojson").read_text())
        roles = {(f["properties"]["id"], f["properties"]["role"]) for f in tracks["features"]}
        assert ("uuv1", "true") in roles and ("uuv1", "estimated") in roles

    def test_zero_speed_scenario_exits_1_naming_the_field(self, capsys, tmp_path):
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
        assert code == 1
        assert err.startswith(f"error: {scenario}: world.uuv_speed ")
        assert not (tmp_path / "out").exists()

    def test_a_listener_sent_to_a_broadcast_it_never_heard_fails_its_mission(
        self, capsys, tmp_path
    ):
        # uuv2's :init claims the broadcast was heard, so its plan heads for
        # a broadcast position it does not know
        import yaml

        base = REPO / "scenarios"
        claimed = tmp_path / "uuv2-claims-a-broadcast.hddl"
        listen = (base / "problems" / "uuv2-listen.hddl").read_text()
        claimed.write_text(listen.replace("(:init", "(:init\n    (heard-broadcast uuv2)"))
        doc = yaml.safe_load((base / "nominal.yaml").read_text())
        doc["paths"] = {"beacons": BEACONS, "domain": DOMAIN}
        for u in doc["uuvs"]:
            u["problem"] = str(claimed if u["id"] == "uuv2" else base / u["problem"])
        scenario = tmp_path / "claimed.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        summaries = {}
        for name, path in (("nominal", base / "nominal.yaml"), ("claimed", scenario)):
            out_dir = tmp_path / name
            code, _, _ = run(capsys, "simulate", "--scenario", str(path), "--out-dir", str(out_dir))
            assert code == 0
            summaries[name] = json.loads((out_dir / "summary.json").read_text())
        events = [
            json.loads(line)
            for line in (tmp_path / "claimed" / "events.jsonl").read_text().splitlines()
        ]
        failed = [e for e in events if e["kind"] == "mission-failed"]
        assert [(e["subject"], e["t"], e["reason"]) for e in failed] == [
            ("uuv2", 1.0, "no broadcast position known")
        ]
        claimed_summary, nominal = summaries["claimed"], summaries["nominal"]
        assert claimed_summary["all_missions_completed"] is False
        statuses = {u: v["status"] for u, v in claimed_summary["uuvs"].items()}
        assert statuses == {
            **{u: v["status"] for u, v in nominal["uuvs"].items()},
            "uuv2": "failed",
        }

    @staticmethod
    def edge_scenario(tmp_path, chart_x, start_x):
        """uuv1 starts at x = ``start_x`` on the line of b6, in a chart of
        beacons b4..b8 all charted at ``chart_x``."""
        chart = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [chart_x, 1000.0 * i]},
                    "properties": {"id": f"b{i}"},
                }
                for i in range(4, 9)
            ],
        }
        (tmp_path / "chart.geojson").write_text(json.dumps(chart))
        scenario = tmp_path / "edge.yaml"
        scenario.write_text(
            "seed: 1\n"
            "output_dir: out\n"
            f"paths: {{beacons: chart.geojson, domain: {DOMAIN}}}\n"
            f"uuvs: [{{id: uuv1, start: [{start_x!r}, 6000.0], problem: {PROBLEM}}}]\n"
        )
        return scenario

    def test_start_past_the_float_range_exits_1_naming_the_field(self, capsys, tmp_path):
        # it used to run to step_cap and exit 0: 2 m is below the ulp of x
        scenario = self.edge_scenario(tmp_path, 4000.0, -1.7e308)
        code, out, err = run(capsys, "simulate", "--scenario", str(scenario))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {scenario}: uuvs[0].start x -1.7e+308 lies beyond the coordinate limit"
            " of ±1e+07 m\n"
        )
        assert not (tmp_path / "out").exists()

    def test_chart_point_past_the_float_range_exits_1_naming_the_feature(self, capsys, tmp_path):
        # it used to run to step_cap and exit 0, uuv1 never reaching b6
        scenario = self.edge_scenario(tmp_path, 1.7e308, 2500.0)
        chart = tmp_path / "chart.geojson"
        code, out, err = run(capsys, "simulate", "--scenario", str(scenario))
        assert (code, out) == (1, "")
        assert err == (
            f"error: {chart}: feature 0 x 1.7e+308 lies beyond the coordinate limit of ±1e+07 m\n"
        )

    @pytest.mark.parametrize("start_x, chart_x", [(-1e7, 4000.0), (2500.0, 1e7)])
    def test_start_and_chart_on_the_coordinate_limit_run(self, capsys, tmp_path, start_x, chart_x):
        scenario = self.edge_scenario(tmp_path, chart_x, start_x)
        code, _, err = run(capsys, "simulate", "--scenario", str(scenario))
        assert (code, err) == (0, "")

    def test_unwritable_out_dir_exits_1_before_the_run(self, capsys, tmp_path, monkeypatch):
        def run_scenario(config):
            raise AssertionError("the scenario ran before its output directory was made")

        monkeypatch.setattr("uuvnav.cli.run_scenario", run_scenario)
        afile = tmp_path / "afile"
        afile.write_text("")
        code, _, err = run(
            capsys,
            "simulate", "--scenario", str(REPO / "scenarios" / "nominal.yaml"),
            "--out-dir", str(afile),
        )
        assert code == 1
        assert err.startswith(f"error: cannot write output directory {str(afile)!r}")

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
        assert err == f"error: {scenario}: world.tick must lie in [0.001, 3600], got 0.0\n"

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


@pytest.mark.parametrize("command", ["plan", "route", "deploy", "simulate"])
def test_unwritable_output_path_exits_1_naming_it(capsys, tmp_path, command):
    # plan and route are pointed at a directory; deploy and simulate at a
    # path under, or at, a plain file
    afile = tmp_path / "afile"
    afile.write_text("")
    target, argv = {
        "plan": (tmp_path, ["--domain", DOMAIN, "--problem", PROBLEM, "--out"]),
        "route": (tmp_path, ["--beacons", BEACONS, "--start", "b4", "--goal", "b8", "--out"]),
        "deploy": (
            afile / "x.geojson",
            ["--bathymetry", BATHY, "--area", AREA, "--n-beacons", "3", "--out"],
        ),
        "simulate": (afile, ["--scenario", str(REPO / "scenarios" / "nominal.yaml"), "--out-dir"]),
    }[command]
    code, _, err = run(capsys, command, *argv, str(target))
    assert code == 1
    assert err.startswith("error: cannot write ") and repr(str(target)) in err
    assert "Traceback" not in err


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
def test_out_of_range_deploy_flag_exits_1_naming_it(capsys, monkeypatch, tmp_path, flag, value):
    def lloyd_deploy(problem):
        raise AssertionError("a bad flag must fail before the Lloyd iterations run")

    monkeypatch.setattr("uuvnav.cli.lloyd_deploy", lloyd_deploy)
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
    "invalid-yaml.yaml": ("--scenario", "not valid YAML: ", "line 10, column 12"),
    "zero-tick.yaml": (
        "--scenario", "world.tick must lie in [0.001, 3600], got 0.0", "world.tick"
    ),
    "zero-speed.yaml": (
        "--scenario", "world.uuv_speed must lie in [0.001, 100], got 0.0", "world.uuv_speed"
    ),
    "overflowing-tick.yaml": (
        "--scenario", "world.tick must lie in [0.001, 3600], got 1e+308", "world.tick"
    ),
    "yaml-1-1-exponent.yaml": (
        "--scenario",
        "world.tick must be a finite number, got '1e0'; YAML 1.1 reads 1e0 as text,"
        " so write it as 1.0e+0",
        "world.tick",
    ),
    "start-beyond-the-envelope.yaml": (
        "--scenario",
        "uuvs[0].start x -1.7e+308 lies beyond the coordinate limit of ±1e+07 m",
        "uuvs[0].start",
    ),
    "start-overflowing-coordinate.yaml": (
        "--scenario", "uuvs[0].start: expected [x, y], got [1000", "uuvs[0].start"
    ),
    # Python versions word the day's fault differently
    "yaml-impossible-date.yaml": ("--scenario", "not valid YAML: line 5, column 7: ", "day"),
    "missing-domain.yaml": (
        "--scenario", "missing required field 'paths.domain'", "paths.domain"
    ),
    "world-key-not-text.yaml": ("--scenario", "unknown world parameter(s): 10.0", "10.0"),
    "chart-not-a-point.geojson": ("--beacons", "feature 1 is not a Point", "feature 1"),
    "chart-not-json.geojson": ("--beacons", "not valid JSON: Expecting value", "line 5 column 1"),
    "chart-bad-coordinates.geojson": (
        "--beacons", "feature 1 has malformed coordinates", "feature 1"
    ),
    "chart-overflowing-coordinate.geojson": (
        "--beacons", "feature 1 has malformed coordinates", "feature 1"
    ),
    "chart-beyond-the-envelope.geojson": (
        "--beacons",
        "feature 2 x 1.7e+308 lies beyond the coordinate limit of ±1e+07 m",
        "feature 2",
    ),
    "area-with-hole.geojson": (
        "--area", "polygon has 1 hole(s); holes are not supported", "polygon"
    ),
    "area-bad-coordinates.geojson": (
        "--area",
        "bad ring coordinates: vertex 2 must be two finite numbers, got ['east', 6500.0]",
        "vertex 2",
    ),
    "area-non-finite.geojson": (
        "--area",
        "bad ring coordinates: vertex 1 must be two finite numbers, got [nan, 500.0]",
        "vertex 1",
    ),
    "area-overflowing-coordinate.geojson": (
        "--area", "bad ring coordinates: vertex 1 must be two finite numbers, got [1000", "vertex 1"
    ),
    "area-beyond-the-envelope.geojson": (
        "--area",
        "bad ring coordinates: vertex 2 y 1e+200 lies beyond the coordinate limit of ±1e+07 m",
        "vertex 2",
    ),
    "grid-non-numeric.asc": ("--bathymetry", "line 8: non-numeric grid value 'deep'", "line 8"),
    "grid-bad-ncols.asc": (
        "--bathymetry", "line 1: ncols must be a positive integer, got '4.5'", "line 1"
    ),
    "grid-too-few-values.asc": (
        "--bathymetry", "line 10: expected 16 grid values (4x4), got 15", "line 10"
    ),
    "grid-negative-depth.asc": (
        "--bathymetry", "line 9: negative depth '-5' in a non-nodata cell", "line 9"
    ),
    "grid-non-finite.asc": ("--bathymetry", "line 8: non-finite grid value '1e999'", "line 8"),
    "grid-header-only.asc": (
        "--bathymetry", "line 6: expected 16 grid values (4x4), got 0", "line 6"
    ),
    "grid-beyond-the-envelope.asc": (
        "--bathymetry",
        "line 4: yllcorner 100000000.0 lies beyond the coordinate limit of ±1e+07 m",
        "line 4",
    ),
    "plan-name-not-a-string.json": (
        "--plan", "steps[0] 'name' must be a non-empty string", "steps[0]"
    ),
    "plan-args-not-strings.json": (
        "--plan", "steps[1] 'args' must be a list of strings", "steps[1]"
    ),
    "plan-not-json.json": ("--plan", "not valid JSON: Expecting value", "line 4 column 1"),
    "plan-no-steps.json": ("--plan", "expected an object with a 'steps' list", "'steps'"),
}


def test_invalid_yaml_error_is_one_line_placed_by_line_and_column(capsys, tmp_path):
    path = str(MALFORMED / "invalid-yaml.yaml")
    code, out, err = run(capsys, "simulate", "--scenario", path, "--out-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: not valid YAML: line 12, column 5: expected ',' or ']',"
        " but got ':' (while parsing a flow sequence at line 10, column 12)\n"
    )


@pytest.mark.parametrize(
    "name, echoed",
    [
        ("start-overflowing-coordinate.yaml", "got [1000000000...0000000000 (401 digits), 2500.0]"),
        (
            "area-overflowing-coordinate.geojson",
            "got [1000000000...0000000000 (401 digits), 500.0]",
        ),
    ],
)
def test_a_refused_integer_is_echoed_as_its_ends_and_its_length(capsys, tmp_path, name, echoed):
    flag, start, _ = MALFORMED_INPUTS[name]
    path = str(MALFORMED / name)
    code, _, err = run(capsys, *reading(flag, path, tmp_path))
    assert code == 1
    assert err.endswith(f"{echoed}\n") and err.startswith(f"error: {path}: {start}")
    assert len(err) - len(path) < 120


def reading(flag, path, tmp_path):
    """The command line that reads ``path`` as its ``flag`` input, writing
    under ``tmp_path``."""
    deploy = ["deploy", "--bathymetry", BATHY, "--area", AREA, "--n-beacons", "3",
              "--out", str(tmp_path / "x.geojson")]
    argv = {
        "--scenario": ["simulate", "--scenario", "", "--out-dir", str(tmp_path / "out")],
        "--beacons": ["route", "--beacons", "", "--start", "b1", "--goal", "b2"],
        "--area": deploy,
        "--bathymetry": deploy,
        "--plan": ["validate", "--domain", DOMAIN, "--problem", PROBLEM, "--plan", ""],
    }[flag]
    argv[argv.index(flag) + 1] = str(path)
    return argv


@pytest.mark.parametrize("name", sorted(p.name for p in MALFORMED.iterdir()))
def test_malformed_input_corpus_exits_1_naming_file_and_place(capsys, tmp_path, name):
    flag, start, where = MALFORMED_INPUTS[name]
    path = str(MALFORMED / name)
    code, out, err = run(capsys, *reading(flag, path, tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: {start}")
    assert where in err and err.count(path) == 1 and "Traceback" not in err
    assert not (tmp_path / "x.geojson").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(n for n in MALFORMED_INPUTS if n.startswith("grid-")))
def test_malformed_grid_error_is_the_whole_of_stderr(capsys, tmp_path, name):
    # each grid's entry above holds its whole message; nothing, such as a
    # warning from the bulk read, may go to stderr with it
    path = str(MALFORMED / name)
    code, out, err = run(capsys, "deploy", "--bathymetry", path, "--area", AREA,
                         "--n-beacons", "3", "--out", str(tmp_path / "x.geojson"))
    assert (code, out, err) == (1, "", f"error: {path}: {MALFORMED_INPUTS[name][1]}\n")


SCENARIO = f"""output_dir: out
paths:
  beacons: {BEACONS}
  domain: {DOMAIN}
world:
  tick: 1.0
  current: [0.0, 0.0]
uuvs:
  - id: uuv1
    start: [2500.0, 2500.0]
    problem: {PROBLEM}
"""
# each place a reader takes a number: the file's flag and text, the text
# there that a spelled value replaces, and the name the error gives it
NUMBER_PLACES = {
    "area vertex": ("--area", Path(AREA).read_text(), "6500.0", "{}", "vertex 1"),
    "chart point": ("--beacons", Path(BEACONS).read_text(), "2500.0", "{}", "feature 1"),
    "chart acoustic_range": (
        "--beacons",
        Path(BEACONS).read_text(),
        '"id": "b5"',
        '"acoustic_range": {}, "id": "b5"',
        "feature 1 'acoustic_range'",
    ),
    "uuvs[0].start": (
        "--scenario", SCENARIO, "[2500.0, 2500.0]", "[{}, 2500.0]", "uuvs[0].start"
    ),
    "world.current": ("--scenario", SCENARIO, "[0.0, 0.0]", "[{}, 0.0]", "world.current"),
    "world.tick": ("--scenario", SCENARIO, "tick: 1.0", "tick: {}", "world.tick"),
}
OVERFLOWING = "1" + "0" * 400  # above the largest float, 1.8e308


def spelled_at(tmp_path, place, spelled):
    """The file of ``place`` written with its number spelled as ``spelled``."""
    flag, text, old, new, _ = NUMBER_PLACES[place]
    path = tmp_path / ("scenario.yaml" if flag == "--scenario" else "input.geojson")
    path.write_text(text.replace(old, new.format(spelled), 1))
    return path


# every reader takes the same numbers: text, booleans, null, integers too
# large for a float and NaN are each refused at every place
@pytest.mark.parametrize(
    "spelled", ['"500"', "true", "null", OVERFLOWING, "-" + OVERFLOWING, "NaN"],
    ids=["text", "true", "null", "overflowing", "-overflowing", "NaN"],
)
@pytest.mark.parametrize("place", NUMBER_PLACES)
def test_each_reader_refuses_what_is_not_a_finite_number_naming_its_place(
    capsys, tmp_path, place, spelled
):
    flag, *_, name = NUMBER_PLACES[place]
    if flag == "--scenario" and spelled == "NaN":
        spelled = ".nan"  # YAML's spelling
    path = spelled_at(tmp_path, place, spelled)
    code, out, err = run(capsys, *reading(flag, path, tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert name in err and "Traceback" not in err


# Python refuses to convert an integer of more than 4300 digits, so JSON
# and YAML raise while they parse; without that limit, the reader refuses
# the number instead.  The plan file's integer stands where text belongs.
@pytest.mark.parametrize("place", ["area vertex", "chart point", "world.tick", "plan"])
def test_an_integer_of_5001_digits_exits_1_naming_its_file(capsys, tmp_path, place):
    digits = "1" + "0" * 5000
    if place == "plan":
        flag, path = "--plan", tmp_path / "plan.json"
        path.write_text(f'{{"steps": [{{"name": {digits}, "args": []}}]}}')
    else:
        flag, path = NUMBER_PLACES[place][0], spelled_at(tmp_path, place, digits)
    code, out, err = run(capsys, *reading(flag, path, tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ") and err.count(str(path)) == 1


def run_with_closed_stdout(*argv):
    """Run the command in a fresh interpreter whose stdout is a pipe that
    nobody reads: its read end is closed before the command starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "uuvnav.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)),
            cwd=REPO,
            timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "argv, outputs",
    [
        (
            ["plan", "--domain", DOMAIN, "--problem", PROBLEM, "--format", "json",
             "--out", "{out}/plan.json"],
            ["plan.json"],
        ),
        (
            ["simulate", "--scenario", str(REPO / "scenarios" / "nominal.yaml"),
             "--out-dir", "{out}"],
            ["events.jsonl", "tracks.geojson", "summary.json"],
        ),
    ],
    ids=["plan", "simulate"],
)
def test_closed_stdout_exits_4_quietly_with_outputs_complete(capsys, tmp_path, argv, outputs):
    code, _, _ = run(capsys, *(arg.format(out=tmp_path / "normal") for arg in argv))
    assert code == 0
    done = run_with_closed_stdout(*(arg.format(out=tmp_path / "closed") for arg in argv))
    assert (done.returncode, done.stderr) == (4, b"")
    for name in outputs:
        closed, normal = tmp_path / "closed" / name, tmp_path / "normal" / name
        assert closed.read_bytes() == normal.read_bytes(), name


def test_the_parser_is_built_once_and_reused():
    assert build_parser() is build_parser()


def test_importing_the_cli_builds_no_parser():
    done = subprocess.run(
        [sys.executable, "-c",
         "import uuvnav.cli as cli; print(cli.build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)),
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def test_calls_in_one_process_match_the_same_calls_run_alone(capsys, monkeypatch, tmp_path):
    """One process reuses the parser across a usage error, a help request
    and two routes; each call answers as it does in a fresh interpreter,
    and the second route writes no file, though the first was given --out."""
    monkeypatch.setenv("COLUMNS", "80")
    out_path = tmp_path / "route.json"
    route = ["route", "--beacons", BEACONS, "--start", "b4", "--goal", "b8"]
    sequence = [["route", "--start", "b4"], ["route", "--help"], [*route, "--out", str(out_path)], route]

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def alone(argv):
        done = subprocess.run(
            [sys.executable, "-m", "uuvnav.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT), COLUMNS="80"),
            timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    together = [in_process(argv) for argv in sequence[:3]]
    written = json.loads(out_path.read_text())
    out_path.unlink()
    together.append(in_process(sequence[3]))
    assert not out_path.exists()
    assert [code for code, _, _ in together] == [2, 0, 0, 0]
    assert written == json.loads(together[2][1])
    assert together == [alone(argv) for argv in sequence]
