"""What each command loads: numpy only for ``deploy`` and PyYAML only
for ``simulate``, so the other commands start without either, and no
command loads the HDDL printer.  Importing ``uuvnav.cli`` loads neither
``dataclasses`` nor ``inspect``, since every record is a plain slotted
class.

Each README command runs on the bundled inputs in a fresh interpreter,
which then lists ``sys.modules``.  The import check diffs ``sys.modules``
around the import in a fresh interpreter, so a module that a site hook
loads before it does not count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uuvnav
from test_golden import DEPLOY_GOLDEN

REPO = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = Path(uuvnav.__file__).resolve().parent.parent

RUN_AND_LIST_MODULES = (
    "import json, sys\n"
    "from uuvnav.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print()\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
)

IMPORT_AND_LIST_NEW_MODULES = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import uuvnav.cli\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)

HDDL = ["--domain", "domains/uuv-nav.hddl", "--problem", "scenarios/problems/uuv1-mission.hddl"]


def readme_commands(out: Path) -> dict[str, list[str]]:
    """The README's commands in its order, writing into ``out``."""
    return {
        "deploy": [
            "deploy", "--bathymetry", "scenarios/bathymetry.asc",
            "--area", "scenarios/mission-area.geojson",
            "--n-beacons", "5", "--seed", "3", "--tolerance", "0.01",
            "--out", str(out / "constellation.geojson"), "--report", str(out / "deploy.json"),
        ],
        "route": [
            "route", "--beacons", "scenarios/beacons.geojson",
            "--start", "b4", "--goal", "b8", "--link-distance", "2200",
        ],
        "route-constellation": [
            "route", "--beacons", str(out / "constellation.geojson"), "--start", "b1", "--goal", "b2",
        ],
        "plan": ["plan", *HDDL],
        "plan-json": ["plan", *HDDL, "--format", "json", "--out", str(out / "plan.json")],
        "validate": ["validate", *HDDL, "--plan", str(out / "plan.json")],
        "simulate-nominal": [
            "simulate", "--scenario", "scenarios/nominal.yaml", "--out-dir", str(out / "nominal"),
        ],
        "simulate-b6-silenced": [
            "simulate", "--scenario", "scenarios/b6-silenced.yaml", "--out-dir", str(out / "b6"),
        ],
    }


def package_env() -> dict[str, str]:
    """The environment, with the package under test first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE_ROOT), env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each README command's exit code and loaded modules, by command."""
    out = tmp_path_factory.mktemp("readme")
    env = package_env()
    results = {}
    for name, argv in readme_commands(out).items():
        done = subprocess.run(
            [sys.executable, "-c", RUN_AND_LIST_MODULES, *argv],
            cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        results[name] = json.loads(done.stdout.splitlines()[-1])
    return out, results


def submodules(modules: list[str], package: str) -> list[str]:
    return [m for m in modules if m.startswith(package + ".")]


@pytest.mark.parametrize("command", ["route", "route-constellation", "plan", "plan-json", "validate"])
def test_command_loads_neither_numpy_nor_yaml(runs, command):
    result = runs[1][command]
    assert result["code"] == 0
    assert submodules(result["modules"], "numpy") == []
    assert submodules(result["modules"], "yaml") == []


@pytest.mark.parametrize("command", ["simulate-nominal", "simulate-b6-silenced"])
def test_simulate_loads_no_numpy(runs, command):
    result = runs[1][command]
    assert result["code"] == 0
    assert submodules(result["modules"], "numpy") == []
    assert submodules(result["modules"], "yaml") != []


def test_deploy_loads_numpy_and_writes_the_golden_bytes(runs):
    out, results = runs
    assert results["deploy"]["code"] == 0
    assert submodules(results["deploy"]["modules"], "numpy") != []
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DEPLOY_GOLDEN}
    assert digests == DEPLOY_GOLDEN


def test_no_command_loads_the_hddl_printer(runs):
    for command, result in runs[1].items():
        assert "uuvnav.hddl.printer" not in result["modules"], command


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_AND_LIST_NEW_MODULES],
        cwd=REPO, env=package_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "uuvnav.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
