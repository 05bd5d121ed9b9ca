"""Mutated inputs end in an exit code, never in an escaped exception.

Each bundled input file (the grid, the area, the chart, the domain, the
problem, a plan file and ``nominal.yaml``) is mutated and fed to the
command that reads it, in-process through ``main``.  A mutation swaps a
number for an extreme or non-number token, deletes or repeats a line,
inserts a bracket, colon, parenthesis, tab or NUL, truncates the text,
or swaps two tokens.  Every run must end in exit 0-3, or in exit 4 with
one ``error:`` line.
"""

import io
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uuvnav.cli import main

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
DOMAIN = REPO / "domains" / "uuv-nav.hddl"
PROBLEM = SCENARIOS / "problems" / "uuv1-mission.hddl"

# a standalone number, not a digit of an id such as b6
NUMBER = re.compile(r"(?<![\w.-])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")
TOKEN = re.compile(r"\S+")
NUMBER_SWAPS = [
    "0",
    "-0",
    "1e308",
    "1e-320",
    "nan",
    "inf",
    "1e999",
    "99999999999999999999",
    "1" + "0" * 400,  # an integer past the largest float
    "-1" + "0" * 400,
    "true",
    "null",
    "[]",
    '""',
    '"500"',
]
INSERTS = ["[", "]", "{", "}", "(", ")", ":", "\t", "\x00"]


@dataclass
class Target:
    """One input file, and the command that reads it from ``{input}``."""

    name: str
    source: Optional[Path]
    argv: list[str]
    examples: int


AREA = str(SCENARIOS / "mission-area.geojson")
GRID = str(SCENARIOS / "bathymetry.asc")
DEPLOY = ["--n-beacons", "3", "--max-iterations", "2", "--out", "{out}/chart.geojson"]

TARGETS = [
    Target("grid", Path(GRID), ["deploy", "--bathymetry", "{input}", "--area", AREA, *DEPLOY], 150),
    Target("area", Path(AREA), ["deploy", "--bathymetry", GRID, "--area", "{input}", *DEPLOY], 200),
    Target(
        "chart",
        SCENARIOS / "beacons.geojson",
        ["route", "--beacons", "{input}", "--start", "b4", "--goal", "b8"],
        300,
    ),
    Target("domain", DOMAIN, ["plan", "--domain", "{input}", "--problem", str(PROBLEM)], 250),
    Target("problem", PROBLEM, ["plan", "--domain", str(DOMAIN), "--problem", "{input}"], 250),
    Target(
        "plan",
        None,  # written by the plan command in the fixture
        ["validate", "--domain", str(DOMAIN), "--problem", str(PROBLEM), "--plan", "{input}"],
        300,
    ),
    # a simulate is the slowest command here, so its examples are capped
    Target(
        "scenario",
        SCENARIOS / "nominal.yaml",
        ["simulate", "--scenario", "{input}", "--out-dir", "{out}/sim"],
        150,
    ),
]


def run(argv):
    """Run ``main`` in-process: its exit code and what it wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory laid out like the repo's, so that the scenario's
    relative paths resolve, and holding the planned mission's plan file."""
    root = tmp_path_factory.mktemp("fuzz")
    scenarios = root / "scenarios"
    scenarios.mkdir()
    shutil.copy(SCENARIOS / "beacons.geojson", scenarios)
    shutil.copytree(SCENARIOS / "problems", scenarios / "problems")
    shutil.copytree(REPO / "domains", root / "domains")
    plan = ["plan", "--domain", str(DOMAIN), "--problem", str(PROBLEM), "--format", "json"]
    code, err = run([*plan, "--out", str(root / "plan.json")])
    assert code == 0, err
    return root


@st.composite
def mutated(draw, text):
    """``text`` under one mutation."""
    kind = draw(st.sampled_from(["number", "delete", "repeat", "insert", "truncate", "swap"]))
    numbers = [m.span() for m in NUMBER.finditer(text)]
    tokens = [m.span() for m in TOKEN.finditer(text)]
    if kind == "number" and numbers:
        start, end = draw(st.sampled_from(numbers))
        return text[:start] + draw(st.sampled_from(NUMBER_SWAPS)) + text[end:]
    if kind in ("delete", "repeat"):
        lines = text.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        lines[i : i + 1] = [] if kind == "delete" else [lines[i], lines[i]]
        return "".join(lines)
    if kind == "swap" and len(tokens) > 1:
        (a0, a1), (b0, b1) = sorted(
            draw(st.lists(st.sampled_from(tokens), min_size=2, max_size=2, unique=True))
        )
        return text[:a0] + text[b0:b1] + text[a1:b0] + text[a0:a1] + text[b1:]
    at = draw(st.integers(0, len(text)))
    if kind == "truncate":
        return text[:at]
    return text[:at] + draw(st.sampled_from(INSERTS)) + text[at:]


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.name)
def test_mutated_input_ends_in_an_exit_code(target, workdir):
    source = target.source or workdir / "plan.json"
    path = workdir / "scenarios" / f"mutated{source.suffix}"
    argv = [a.format(input=path, out=workdir / "out") for a in target.argv]

    @settings(
        max_examples=target.examples,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.large_base_example],
    )
    @given(mutated(source.read_text()))
    def check(text):
        path.write_text(text)
        code, err = run(argv)
        assert code in (0, 1, 2, 3) or (
            code == 4 and err.startswith("error: ") and err.count("\n") == 1
        ), (code, err)

    check()
