"""Self-tests of the benchmark: generators are deterministic, and every
output check rejects a deliberately corrupted output.

    python3 -m pytest bench -q

Workloads run here at a small size so the tests take seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import generate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DOMAIN = (ROOT / "domains" / "uuv-nav.hddl").read_text()

SMALL = {
    "deploy-survey": {**generate.DEPLOY, "size": 60, "n_beacons": 6, "max_iterations": 30, "link_distance": 1500.0},
    "mission-plan": {**generate.PLAN, "n_problems": 2, "beacons": 8, "legs": 4, "unreachable": 2},
    "fleet-dense": {**generate.FLEET_DENSE, "rows": 3, "cols": 3, "missions": 4, "listeners": 1, "pacer": ((1, 1), (1, 1))},
    "fleet-sparse": {**generate.FLEET_SPARSE, "rows": 4, "cols": 4, "missions": 5, "listeners": 1, "silenced": 2},
}


def small(name: str, seed: int, work: Path) -> workloads.Workload:
    params = SMALL[name]
    if name == "deploy-survey":
        return workloads.DeploySurvey(seed, work, DOMAIN, params)
    if name == "mission-plan":
        return workloads.MissionPlan(seed, work, DOMAIN, params)
    return workloads.Fleet(name, seed, work, DOMAIN, params)


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic(tmp_path, name):
    small(name, 7, tmp_path / "a").generate()
    small(name, 7, tmp_path / "b").generate()
    small(name, 8, tmp_path / "c").generate()
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "a") != tree(tmp_path / "c")


def test_benchmark_size_generators_are_deterministic(tmp_path):
    for name in workloads.NAMES:
        workloads.make(name, 3, tmp_path / name / "a", DOMAIN).generate()
        workloads.make(name, 3, tmp_path / name / "b", DOMAIN).generate()
        assert tree(tmp_path / name / "a") == tree(tmp_path / name / "b")


def one_pass(name: str, work: Path):
    import uuvnav.cli as cli

    w = small(name, 5, work)
    w.generate()
    outcomes = w.run_pass(run.make_invoke(cli))
    assert w.check(outcomes) == []
    return w, outcomes


def rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def failed(w, outcomes) -> set[int]:
    return {index for index, _ in w.check(outcomes)}


def test_deploy_checks_reject_corrupted_outputs(tmp_path):
    w, outcomes = one_pass("deploy-survey", tmp_path)
    codes = [o.code for o in outcomes[1:]]
    assert 0 in codes and 2 in codes, "the small survey should have routes that exist and routes that do not"

    ok = next(k for k, o in enumerate(outcomes) if k and o.code == 0)
    good = outcomes[ok].stdout
    outcomes[ok].stdout = good.replace('"length": ', '"length": 1')
    assert failed(w, outcomes) == {ok}
    outcomes[ok].stdout = good

    outcomes[ok].code = 2
    assert failed(w, outcomes) == {ok}
    outcomes[ok].code = 0

    report = w.report.read_text()
    rewrite_json(w.report, lambda d: d["volumes"].__setitem__(0, d["volumes"][0] + 1.0))
    assert failed(w, outcomes) == {0}
    w.report.write_text(report)

    rewrite_json(w.report, lambda d: d.__setitem__("converged", True))
    assert failed(w, outcomes) == {0}
    w.report.write_text(report)

    rewrite_json(w.constellation, lambda d: d["features"][0]["geometry"]["coordinates"].__setitem__(0, 0.0))
    assert failed(w, outcomes) == {0}


def test_plan_checks_reject_corrupted_outputs(tmp_path):
    w, outcomes = one_pass("mission-plan", tmp_path)

    outcomes[1].stdout = outcomes[1].stdout.replace("true", "false")
    assert failed(w, outcomes) == {1}

    rewrite_json(w.plans[1], lambda d: d["steps"].pop())
    assert failed(w, outcomes) == {1, 2}

    outcomes[0].code = 3
    assert failed(w, outcomes) == {0, 1, 2}


@pytest.mark.parametrize("name", ["fleet-dense", "fleet-sparse"])
def test_fleet_checks_reject_corrupted_outputs(tmp_path, name):
    w, outcomes = one_pass(name, tmp_path)
    summary = json.loads(w.summary.read_text())
    replans = sum(u["replans"] for u in summary["uuvs"].values())
    assert (replans > 0) == (name == "fleet-sparse")

    def corrupt(edit):
        doc = json.loads(outcomes[0].stdout)
        edit(doc)
        outcomes[0].stdout = json.dumps(doc)
        w.summary.write_text(json.dumps(doc))
        assert failed(w, outcomes) == {0}
        outcomes[0].stdout = json.dumps(summary)
        w.summary.write_text(json.dumps(summary))

    corrupt(lambda d: d.__setitem__("all_missions_completed", False))
    corrupt(lambda d: d.__setitem__("ticks", w.params["step_cap"]))
    if replans:
        corrupt(lambda d: [u.__setitem__("replans", 0) for u in d["uuvs"].values()])
    else:
        corrupt(lambda d: d["uuvs"]["uuv1"].__setitem__("replans", 1))
    assert failed(w, outcomes) == set()

    outcomes[0].stdout = "{}"
    assert failed(w, outcomes) == {0}
    outcomes[0].stdout = json.dumps(summary)

    lines = w.events.read_text().splitlines(keepends=True)
    w.events.write_text("".join(lines[:-1]))
    assert failed(w, outcomes) == {0}
    w.events.write_text("".join(lines))

    rewrite_json(w.tracks, lambda d: d["features"][0]["geometry"]["coordinates"].pop())
    assert failed(w, outcomes) == {0}


def test_points_chart_is_accepted_by_route(tmp_path):
    """The workaround chart loads where deploy's own output does not."""
    from uuvnav.config import load_beacons
    from uuvnav.errors import GeoJsonError

    w, _ = one_pass("deploy-survey", tmp_path)
    assert len(load_beacons(w.chart)) == SMALL["deploy-survey"]["n_beacons"]
    with pytest.raises(GeoJsonError, match="is not a Point"):
        load_beacons(w.constellation)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_outputs_repeat_exactly(tmp_path, name):
    """One seed gives byte-identical outputs from separate runs."""
    import uuvnav.cli as cli

    digests = []
    for run_dir in ("a", "b"):
        w = small(name, 11, tmp_path / run_dir)
        w.generate()
        digests.append(run.Pass(w, w.run_pass(run.make_invoke(cli))).digests)
    assert digests[0] == digests[1]
    assert None not in digests[0].values()


def test_upper_decile_ignores_a_lucky_few():
    """Passes that found the core free do not move the reported time."""
    busy = [1.0 + i / 100 for i in range(10)]
    assert run.upper_decile(busy) == pytest.approx(1.081)
    assert run.upper_decile(busy + [0.5, 0.6]) == pytest.approx(run.upper_decile(busy), rel=0.01)
    assert run.upper_decile([2.5]) == 2.5
