"""The functions of ``src/uuvnav`` that no command enters, each with its
reason to stay.

A fresh interpreter installs a ``sys.setprofile`` hook before ``uuvnav``
is imported, then runs ``uuvnav.cli.main`` over the README commands,
``plan`` of every bundled problem, every file in
``scenarios/malformed/`` and ``domains/malformed/`` through the command
that CI runs it with, and CI's usage error, a bare ``uuvnav``.  Every function of the package is listed by
compiling its file and walking the code objects, lambdas and
comprehensions left out.  The functions never entered must be exactly
those of ``UNREACHED``: a new function that no command enters, or an
entry that a command now enters, fails the test by name.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

from test_startup import package_env, readme_commands

import uuvnav

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path(uuvnav.__file__).resolve().parent

RUN_UNDER_THE_HOOK = """
import contextlib, io, json, sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
from uuvnav.cli import main

codes = []
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:  # a usage error
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "entered": [[c.co_filename, c.co_firstlineno, c.co_name] for c in entered],
}))
"""

# each function no command enters, by file and qualified name, and why it stays
UNREACHED = {
    "deploy.py:CellAssignment.__init__": "the bench's assign_pass_s times assign_cells",
    "deploy.py:assign_cells": "the bench's assign_pass_s times it",
    "geo.py:equal_with_arrays": "the tests compare grids and assignments",
    "record.py:Record.__eq__": "value semantics for the tests",
    "record.py:Record.__hash__": "value semantics for the tests",
    "record.py:Record.__repr__": "value semantics for the tests",
    "record.py:_refuse_assignment": "runs only on a bug",
    "record.py:_refuse_deletion": "runs only on a bug",
    "record.py:_frozen": "runs only on a bug",
    "sim/world.py:_fail_mission": "no bundled input fails a mission",
    **{
        f"hddl/printer.py:{name}": "the tests print HDDL; a domain emitter is planned"
        for name in (
            "_typed",
            "_literal",
            "_conjunction",
            "_task_ref",
            "_network",
            "print_domain",
            "print_problem",
        )
    },
}


def ci_commands(out: Path) -> list[list[str]]:
    """``plan`` of each bundled problem, then each malformed input
    through the command CI runs it with, writing into ``out``, then a
    bare ``uuvnav``."""
    domain, mission = "domains/uuv-nav.hddl", "scenarios/problems/uuv1-mission.hddl"
    commands = [
        ["plan", "--domain", domain, "--problem", str(problem.relative_to(REPO))]
        for problem in sorted((REPO / "scenarios" / "problems").glob("*.hddl"))
    ]
    deploy = ["--n-beacons", "5", "--out", str(out / "malformed.geojson")]
    for path in sorted((REPO / "scenarios" / "malformed").iterdir()):
        name = str(path.relative_to(REPO))
        commands.append({
            ".yaml": ["simulate", "--scenario", name, "--out-dir", str(out / "malformed")],
            "grid": ["deploy", "--bathymetry", name, "--area", "scenarios/mission-area.geojson",
                     *deploy],
            "area": ["deploy", "--bathymetry", "scenarios/bathymetry.asc", "--area", name,
                     *deploy],
            "chart": ["route", "--beacons", name, "--start", "b4", "--goal", "b8"],
            "plan": ["validate", "--domain", domain, "--problem", mission, "--plan", name],
        }[path.suffix if path.suffix == ".yaml" else path.name.split("-")[0]])
    for path in sorted((REPO / "domains" / "malformed").iterdir()):
        name = str(path.relative_to(REPO))
        if "(problem" in path.read_text():
            commands.append(["plan", "--domain", domain, "--problem", name])
        else:
            commands.append(["plan", "--domain", name, "--problem", mission])
    commands.append([])
    return commands


def functions() -> dict[tuple[str, int, str], str]:
    """Every function of the package, keyed as the hook records it, by
    its file and qualified name."""
    found = {}

    def walk(code, path: Path, prefix: str) -> None:
        for const in code.co_consts:
            if not hasattr(const, "co_consts") or const.co_name.startswith("<"):
                continue
            is_function = const.co_flags & inspect.CO_OPTIMIZED  # not a class body
            name = prefix + const.co_name
            if is_function:
                found[(str(path), const.co_firstlineno, const.co_name)] = (
                    f"{path.relative_to(PACKAGE).as_posix()}:{name}"
                )
            walk(const, path, name + (".<locals>." if is_function else "."))

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path, "")
    return found


def test_every_function_that_no_command_enters_has_a_reason_to_stay(tmp_path):
    readme = list(readme_commands(tmp_path).values())
    others = ci_commands(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", RUN_UNDER_THE_HOOK],
        input=json.dumps(readme + others),
        cwd=REPO, env=package_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    # the README commands and the bundled problems succeed, and every
    # malformed input and the usage error exit 1
    n_ok = len(readme) + len(list((REPO / "scenarios" / "problems").glob("*.hddl")))
    assert result["codes"] == [0] * n_ok + [1] * (len(readme) + len(others) - n_ok)
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in result["entered"]}
    listed = functions()
    never = {name for key, name in listed.items() if key not in entered}
    assert sorted(never - UNREACHED.keys()) == [], "entered by no command, with no reason to stay"
    assert sorted(UNREACHED.keys() - never) == [], "entered now: take it out of UNREACHED"
