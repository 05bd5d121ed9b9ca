"""Golden outputs: ``simulate`` on the bundled scenarios, the README's
``deploy`` command, ``plan`` of every bundled problem and ``validate`` of
the mission problem's plan are pinned byte for byte.

A change that is meant to keep behaviour, such as a refactor, must leave
these digests alone.  A change that alters the outputs on purpose updates
them and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest
import yaml

from uuvnav.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "nominal": {
        "events.jsonl": "7a15d49a2f72b47562574ab5c728826d4e839936b7e781d3b899345a0be03117",
        "tracks.geojson": "d5ae2217c9d4e41b219c17976da59932c35d185f8e4df75fce1ef1f65dd483df",
        "summary.json": "1e8b850fbd7567218c1a3281102b37d99b0e41cd8625369d41d67042978bd302",
    },
    "b6-silenced": {
        "events.jsonl": "ef10eed6c20ec673cd4fcd5bf454bb5408b074b7de5770670eccf27269b7dbc5",
        "tracks.geojson": "f7088236a41d41309be116d00fa71bb968e4a00eca798253a20c588fad37a335",
        "summary.json": "b2554c10f87b6ba55bb9ba1ecd2a2dc9207aeb762dcfbb97784dd06e1499f854",
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_simulate_outputs_match_golden_digests(scenario, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        ["simulate", "--scenario", str(SCENARIOS / f"{scenario}.yaml"), "--out-dir", str(out_dir)]
    )
    capsys.readouterr()
    assert code == 0
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in GOLDEN[scenario]
    }
    assert digests == GOLDEN[scenario]


# The same scenarios at tick 0.7, which divides no pulse period: a pulse
# test that drifted off the per-beacon rule would move these first.
GOLDEN_TICK_07 = {
    "nominal": {
        "events.jsonl": "bb3a4b03963b365036e7ee78cb618cedd0aa23a5f165b37ef1e7ed3d764bcd44",
        "tracks.geojson": "ddd361ddfeb81b746e226c40f3c7df808d7c4bf99efec0c28eb70cdf3992d2dc",
        "summary.json": "7656a3286ea863e5acd17b6ca834e53bdbba03d119631bf7aac96e747fffccb7",
    },
    "b6-silenced": {
        "events.jsonl": "154bd1851ed0550ddb33d624216d4d7030f94e0fe616d9929e37e804cc805500",
        "tracks.geojson": "06185dd129c3c52e4f893b586a321dc18012d3c2972b35054550a937af9e7f91",
        "summary.json": "ba1782dc39958a933f3f7254fec0387dfb187982e30e9a6ad665cdc6fa8b51fc",
    },
}


def simulate_with_world(scenario, world, tmp_path, capsys):
    """Digests of ``simulate`` on a bundled scenario whose world section
    is updated from ``world``, written with absolute paths to tmp_path."""
    source = SCENARIOS / f"{scenario}.yaml"
    doc = yaml.safe_load(source.read_text())
    doc["world"].update(world)
    doc["paths"] = {key: str(SCENARIOS / path) for key, path in doc["paths"].items()}
    for vehicle in doc["uuvs"]:
        vehicle["problem"] = str(SCENARIOS / vehicle["problem"])
    scenario_path = tmp_path / source.name
    scenario_path.write_text(yaml.safe_dump(doc))
    out_dir = tmp_path / "run"
    code = main(["simulate", "--scenario", str(scenario_path), "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("events.jsonl", "tracks.geojson", "summary.json")
    }


@pytest.mark.parametrize("scenario", sorted(GOLDEN_TICK_07))
def test_simulate_outputs_at_tick_0_7_match_golden_digests(scenario, tmp_path, capsys):
    digests = simulate_with_world(scenario, {"tick": 0.7}, tmp_path, capsys)
    assert digests == GOLDEN_TICK_07[scenario]


# The same scenarios under a water current, which carries a moving
# vehicle's true position off its estimate, so the tracks hold a separate
# estimated track.  Under the current nominal runs to step_cap with uuv3
# and uuv5 still awaiting a broadcast; b6-silenced completes at tick 2687
# after four vehicles replan.
GOLDEN_CURRENT = {
    "nominal": (
        [-1.9, 0.0],
        {
            "events.jsonl": "06b0b4119428ebdabaedd5001b8ed4ef7fea34817fc06d23d4dba4d7e83894a1",
            "tracks.geojson": "cc5eeeb26a93cbe8afd73311ef37a7e9091748f97aea3d281489167be56208ff",
            "summary.json": "bc9f75dc90224aacf1f67ece67db1b6f019098ea6d57d03995328b690747c080",
        },
    ),
    "b6-silenced": (
        [0.2, 0.1],
        {
            "events.jsonl": "47702b2795308fcd0b030b54f3531e44aec37a5db473fa3a5d9dfbc1f69840c9",
            "tracks.geojson": "5a99f64638e6fe4818d6868a2274ea45865d22d38662532d6b375e050c9021a3",
            "summary.json": "ac4c78fa65f758e266abc86b9cf8e3bcf22336d24dbdc02442bdb0e331f6b57e",
        },
    ),
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_CURRENT))
def test_simulate_outputs_under_a_current_match_golden_digests(scenario, tmp_path, capsys):
    current, golden = GOLDEN_CURRENT[scenario]
    digests = simulate_with_world(scenario, {"current": current}, tmp_path, capsys)
    assert digests == golden


# uuvnav deploy --bathymetry scenarios/bathymetry.asc
#     --area scenarios/mission-area.geojson
#     --n-beacons 5 --seed 3 --tolerance 0.01
DEPLOY_GOLDEN = {
    "constellation.geojson": "1685cac1390b4c6215f3b9457ff27f6b3107ab3196be767ccfd937553aa08e36",
    "deploy.json": "8fe79e13032a7cd7b15dbf57e6a6d7dc192cec076dff24be7a4b0eac6221ce68",
}


def test_deploy_outputs_match_golden_digests(tmp_path, capsys):
    code = main(
        [
            "deploy",
            "--bathymetry", str(SCENARIOS / "bathymetry.asc"),
            "--area", str(SCENARIOS / "mission-area.geojson"),
            "--n-beacons", "5", "--seed", "3", "--tolerance", "0.01",
            "--out", str(tmp_path / "constellation.geojson"),
            "--report", str(tmp_path / "deploy.json"),
        ]
    )
    capsys.readouterr()
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEPLOY_GOLDEN
    }
    assert digests == DEPLOY_GOLDEN


# uuvnav plan --domain domains/uuv-nav.hddl --problem scenarios/problems/<name>.hddl
#     --format text|json
PLAN_GOLDEN = {
    "uuv1-mission": {
        "text": "42e4a45ec64a1bbd52dd12500c08957931c9a182b4a3d76587f1992cd1f1e3e1",
        "json": "b61e79f087c34bf8f36d1b2ba4769eea9f319dddb3d0bce1981b9ce4812619f1",
    },
    "uuv2-listen": {
        "text": "20f12c43d6da7621c793d4df13d29b401902cdfca0b4c5ce693b28782fe1dfb6",
        "json": "660294ac546243aa318c91a406fcdb691077e5da2247be45f697dde2e41d9b36",
    },
    "uuv3-listen": {
        "text": "c3688ed056f2aeb9bdc864c84538bc568c494819d069cbd4cb2fdb95861d2886",
        "json": "ced5c53cd1dbfd33f9e4f0c26a9d25886a03692402682673cb158a181e21fefb",
    },
    "uuv4-listen": {
        "text": "18b059fed8d39bea96e566f14c07daeefba096f48cba113f23a9d5aa3979730f",
        "json": "8fb86c828735698232890c82100cfe69ff17a07076af21fa82d6440b8e3dfb76",
    },
    "uuv5-listen": {
        "text": "38d1f7ae14467ec23ed96ec176037c4159afccc0047a782c5ea67e4f1ea379fa",
        "json": "9d65ea2d7d5c2556c992fa73bda3fe44468b86fd16c71f3781c487379a7d4eef",
    },
    "uuv5-transit": {
        "text": "21363a4ffcfb71a2027fefeecfba412411e6d5c88fd5ac5bd4dd34845372948b",
        "json": "0be95852df1d3866398780b691ebb2b809aab16faa7fee74eebe05f0f38756cd",
    },
}


# every bundled problem, so a new one fails here until it is pinned
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "problem", sorted(p.stem for p in (SCENARIOS / "problems").glob("*.hddl"))
)
def test_plan_outputs_match_golden_digests(problem, fmt, tmp_path, capsys):
    out = tmp_path / f"plan.{fmt}"
    code = main(
        [
            "plan",
            "--domain", str(SCENARIOS.parent / "domains" / "uuv-nav.hddl"),
            "--problem", str(SCENARIOS / "problems" / f"{problem}.hddl"),
            "--format", fmt,
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLAN_GOLDEN[problem][fmt]


# uuvnav validate --domain domains/uuv-nav.hddl --problem scenarios/problems/uuv1-mission.hddl
#     --plan <plan>, where <plan> is the problem's own plan as plan --format json
#     writes it, or that plan with its first step dropped; stdout, byte for byte
VALIDATE_GOLDEN = {
    "own-plan": b'{"reason": "plan is valid", "step_index": null, "valid": true}\n',
    "first-step-dropped": (
        b'{"reason": "precondition of step 0 (sense-beacon uuv1 b6) not satisfied",'
        b' "step_index": 0, "valid": false}\n'
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_GOLDEN))
def test_validate_stdout_matches_golden_bytes(case, tmp_path, capsys):
    mission = [
        "--domain", str(SCENARIOS.parent / "domains" / "uuv-nav.hddl"),
        "--problem", str(SCENARIOS / "problems" / "uuv1-mission.hddl"),
    ]
    plan_path = tmp_path / "plan.json"
    assert main(["plan", *mission, "--format", "json", "--out", str(plan_path)]) == 0
    if case == "first-step-dropped":
        doc = json.loads(plan_path.read_text())
        doc["steps"] = doc["steps"][1:]
        plan_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["validate", *mission, "--plan", str(plan_path)])
    assert code == 0
    assert capsys.readouterr().out.encode() == VALIDATE_GOLDEN[case]
