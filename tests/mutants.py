"""Mutants of ``src/uuvnav`` that the test suite must kill, and their runner.

Each entry names a file under ``src/``, a piece of its text that occurs
there exactly once, the text that replaces it, and the tests that must
fail on the mutated copy.  Run the table with

    python tests/mutants.py

which copies ``src/`` to a temporary directory for each mutant, applies
it, runs only its named tests with the copy on ``PYTHONPATH``, and exits
1 unless every named test fails on every mutant.  A mutant whose text is
no longer found fails too: update the entry alongside the code.
``tests/test_mutants.py`` checks only that every text is still found.

A change whose new test kills a mutant adds the mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


SIM_REFERENCE = "tests/test_sim_reference.py::test_simulate_matches_the_plain_reference"
GRID_REFERENCE = "tests/test_geo.py::test_grid_reader_matches_the_token_by_token_reference"
NUMBER_TABLE = (
    "tests/test_cli.py::test_each_reader_refuses_what_is_not_a_finite_number_naming_its_place"
)
MOVE = "if true is est and not cx and not cy and x != 0.0 and y != 0.0:"

MUTANTS = (
    Mutant(
        "a detection scan over a one-cell block",
        "uuvnav/sim/world.py",
        "if -1 <= bx - cx <= 1 and -1 <= by - cy <= 1",
        "if bx == cx and by == cy",
        (SIM_REFERENCE,),
    ),
    Mutant(
        "one point for truth and estimate under a current",
        "uuvnav/sim/world.py",
        MOVE,
        "if true is est and x != 0.0 and y != 0.0:",
        (SIM_REFERENCE,),
    ),
    Mutant(
        "one point for truth and estimate at a signed zero",
        "uuvnav/sim/world.py",
        MOVE,
        "if true is est and not cx and not cy:",
        ("tests/test_sim.py::TestMovement::test_an_estimate_of_minus_zero_keeps_truth_apart",),
    ),
    Mutant(
        "a track point reused when only equal, not the same object",
        "uuvnav/sim/runner.py",
        "if point is not previous:",
        "if point != previous:",
        (SIM_REFERENCE,),
    ),
    Mutant(
        "an estimated track reused when only equal to the true one",
        "uuvnav/sim/runner.py",
        "all(map(operator.is_, estimated, true_track))",
        "all(map(operator.eq, estimated, true_track))",
        ("tests/test_tracks_writer.py::test_writer_matches_json_dumps_byte_for_byte",),
    ),
    Mutant(
        "a detection's head reused for a range of zero",
        "uuvnav/sim/runner.py",
        "if pair[2] != distance or not distance:",
        "if pair[2] != distance:",
        ("tests/test_events_writer.py::test_writer_matches_event_to_json_line_byte_for_byte",),
    ),
    Mutant(
        "grid values read with # as a comment",
        "uuvnav/geo.py",
        "np.loadtxt(lines, dtype=float, comments=None)",
        "np.loadtxt(lines, dtype=float)",
        (GRID_REFERENCE,),
    ),
    Mutant(
        "a grid that numpy refuses is not read again token by token",
        "uuvnav/geo.py",
        "    except ValueError:\n        return None",
        "    except ValueError:\n        raise",
        (GRID_REFERENCE,),
    ),
    Mutant(
        "a depth of zero sends the grid to the token-by-token read",
        "uuvnav/geo.py",
        "(values >= 0)",
        "(values > 0)",
        (GRID_REFERENCE,),
    ),
    Mutant(
        "no grid value count check",
        "uuvnav/geo.py",
        "if len(values) != expected:",
        "if False:",
        (GRID_REFERENCE,),
    ),
    Mutant(
        "a boolean read as a number",
        "uuvnav/geo.py",
        "if isinstance(value, bool) or not isinstance(value, (int, float)):",
        "if not isinstance(value, (int, float)):",
        (NUMBER_TABLE,),
    ),
    Mutant(
        "an integer too large for a float escapes as an OverflowError",
        "uuvnav/geo.py",
        "    except OverflowError:\n        return None",
        "    except ZeroDivisionError:\n        return None",
        (NUMBER_TABLE,),
    ),
    Mutant(
        "a record's defaults given to its last fields in reverse order",
        "uuvnav/record.py",
        "tuple(defaults[name] for name in fields[len(fields) - len(defaults) :])",
        "tuple(reversed(defaults.values()))",
        ("tests/test_records.py::test_shared_init_fills_each_default",),
    ),
    Mutant(
        "a frozen record's first and last fields stored in each other's slot",
        "uuvnav/record.py",
        'getattr(cls, name).__set__ for name in fields}',
        'getattr(cls, other).__set__ for name, other in zip(fields, fields[::-1])}',
        ("tests/test_records.py::test_shared_init_binds_by_position_and_by_keyword",),
    ),
    Mutant(
        "a run whose reach is exactly its limit refused",
        "uuvnav/config.py",
        "    if reach > REACH_LIMIT:",
        "    if reach >= REACH_LIMIT:",
        ("tests/test_sim.py::TestParams::test_reach_is_held_to_its_limit",),
    ),
    Mutant(
        "an area whose edges cross read as a polygon",
        "uuvnav/geo.py",
        """    for i in range(n):
        for j in range(i + 1, n):
            # skip edges sharing a vertex
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(verts[i], verts[(i + 1) % n], verts[j], verts[(j + 1) % n]):
                raise GeoJsonError(f"edges {i} and {j} intersect")
""",
        "",
        ("tests/test_geo.py::test_polygon_rejects_self_intersection",),
    ),
)


def failures(src: Path, tests: tuple[str, ...]) -> tuple[int, list[str]]:
    """pytest's exit code for ``tests`` run with ``src`` on the path, and
    the node ids that failed."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, failed


def survivors(mutant: Mutant) -> list[str]:
    """What is wrong with ``mutant`` at the current source: its text is
    not found once, or a named test did not fail.  Empty when killed."""
    path = SRC / mutant.file
    count = path.read_text().count(mutant.text)
    if count != 1:
        return [f"its text is found {count} times in src/{mutant.file}, not once"]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        mutated = copy / mutant.file
        mutated.write_text(mutated.read_text().replace(mutant.text, mutant.replacement))
        code, failed = failures(copy, mutant.tests)
    if code != 1:  # 1: the tests ran and some failed
        return [f"pytest exited {code}"]
    return [
        f"{test} passed"
        for test in mutant.tests
        if not any(f == test or f.startswith(test + "[") for f in failed)
    ]


def main() -> int:
    named = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
    code, failed = failures(SRC, named)
    if code != 0:
        print(f"the named tests must pass on src/ as it is; pytest exited {code}: {failed}")
        return 1
    lived = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        faults = survivors(mutant)
        lived += bool(faults)
        verdict = "lived" if faults else "killed"
        print(f"{verdict}: {mutant.name} ({time.perf_counter() - began:.1f} s)")
        for fault in faults:
            print(f"  {fault}")
    print(f"{len(MUTANTS) - lived} of {len(MUTANTS)} mutants killed")
    return 1 if lived else 0


if __name__ == "__main__":
    sys.exit(main())
