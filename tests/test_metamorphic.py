"""``simulate``, ``route``, ``plan`` and ``validate`` on transformed
copies of their own inputs.

The reference in ``test_sim_reference.py`` checks that the simulator's
fast paths compute what its plain code computes; it cannot see a fault
that both share, such as an output that depends on where the chart's
axes point, where its origin lies or the order of its features.  Here
each scenario drawn by that file's generators runs twice, once as drawn
and once transformed in a way whose effect on the outputs is known:

- a rotation by 90°, (x, y) -> (-y, x), of the chart, every start and
  the current keeps the events in their order, with every range and
  every position, turned back, equal to a relative 1e-9.  A straight
  step turns exactly; a circle's sines and cosines round differently.
  Two kinds of drawn scenario are left out, as the filters below say:
  a vehicle that starts on a beacon's own point, and the one speed at
  which a step from the circle ends on the arrival tolerance;
- a translation by ``SHIFT`` of the chart and every start keeps the
  events in their order, every position shifted back, to the same
  tolerance, except a detection within 1e-6 m of its beacon's acoustic
  range: every sum rounds differently, so such a hearing comes and goes.
  Left out: a leg that ends exactly on the arrival tolerance, and a
  start a distinct float off a beacon that the shift puts on its point;
- a permutation of the chart's features keeps the multiset of events;
  only the order of the detections within one vehicle's tick may change.

A reflection does not keep the events when a vehicle circles, since the
standoff circle turns counter-clockwise; it is not pinned here.  Each
relation held over 500 drawn scenarios; 100 are run here.

``route`` runs between every ordered pair of beacons on the charts that
``test_route_properties.py`` draws:

- a rotation by 90° keeps each route's beacon ids and its length to a
  relative 1e-12 (over 500 charts it kept every length exactly);
- a shift of every beacon by whole metres keeps each route's ids, and its
  length to 1e-12 of the chart's extent, its largest coordinate: the
  shifted coordinates round, so a route a few centimetres long moves by
  a relative 1e-9, not 1e-12;
- an order-preserving renaming of the beacons gives the renamed reports.

A pair whose route ties another within the tolerance, and a chart with
a link within it of the link distance, are left out: there rounding may
pick either.  Each relation held over 500 charts; 50 are run here.

``plan --format json`` and ``validate`` run on the problems that
``test_htn_properties.py`` draws, over the bundled domain and over its
copy with alternative methods:

- an order-preserving renaming of the objects gives the renamed plan
  bytes and the renamed verdicts, for the plan and for each copy of it
  with one step deleted;
- reversing the ``:objects`` list keeps the plan bytes and the verdicts.
  Grounding binds objects in declaration order, but every method of
  these domains takes each parameter from its task.  A method with a
  parameter of its own binds it to the first object declared, so there
  the reversal keeps only the plan's length and its validity.

Each held over 500 drawn problems; 50 are run here.

``deploy`` runs on the rasters and areas that
``test_deploy_properties.py`` draws.  Shifting the raster's lower-left
corner and the area by whole cells keeps every site's cell, every
volume, every weight and the objective exactly, and moves each beacon by
the shift exactly: cell centres, and so every difference of them, stay
exact, and the area's rounded vertices left every cell mask unchanged.
The one exception measured is a centroid that rounding puts on either
side of the tie between two cells; a run whose centroid came within
1e-9 cell² of such a tie is left out.  The relation held over every
other one of 1000 drawn deployments, shifted by up to 9e6 m; 100 are
run here.
"""

import io
import itertools
import json
import math
import re
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_sim_reference import (
    BEACONS,
    beacon_ids,
    retuned,
    scenario,
    texts,
    vehicles,
    worlds,
)
from test_htn_properties import ALTERNATIVES, DOMAIN_TEXT, problems
from test_route_properties import COORD, dijkstra, links
from test_deploy_properties import deployments
from uuvnav import deploy
from uuvnav.cli import main
from uuvnav.config import ScenarioConfig, UuvSpec
from uuvnav.geo import BathymetryGrid, MissionPolygon, Point2D
from uuvnav.hddl.ast import ProblemAst
from uuvnav.hddl.printer import print_domain, print_problem
from uuvnav.sim.runner import run_scenario
from uuvnav.sim.world import PARAMS, WorldParams

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# each route or plan example runs the command some dozens of times
COMMANDS = settings(PROPERTY, max_examples=50)
RELATIVE = 1e-9
# the translation, north and not south, since the far chart's corner start
# lies on the coordinate limit at -1e7; and how near a beacon's acoustic
# range a hearing may come and go with it
SHIFT = (1024.0, 2048.0)
EDGE = 1e-6


def scenarios(world=worlds):
    return st.tuples(
        st.none() | beacon_ids | st.just("far"),
        world,
        st.none() | beacon_ids,
        retuned,
        st.lists(vehicles, min_size=1, max_size=4),
    )


def on_the_beacons(config):
    """For each vehicle of ``config``, whether it starts on a beacon's own
    point."""
    chart = json.loads(config.beacons.read_text())
    points = {tuple(f["geometry"]["coordinates"]) for f in chart["features"]}
    return [(s.start.x, s.start.y) in points for s in config.uuvs]


# a vehicle that starts on a beacon's own point takes no step to it, so it
# circles that beacon from its initial heading, east, which no input turns
def off_the_beacons(config, copy):
    return not any(on_the_beacons(config))


# a start a distinct float off a beacon can land on its point when shifted
def as_on_the_beacons(config, copy):
    return on_the_beacons(config) == on_the_beacons(copy)


# at 25 m/s, one step from the 50 m standoff circle ends on the 25 m
# arrival tolerance, where the circle's rounding decides the arrival tick
below_the_tie = worlds.filter(lambda w: w["uuv_speed"] != 25.0)
# every drawn step length is a multiple of 0.1 m and most starts lie a
# whole number of metres from their beacon, so a leg often ends exactly on
# the 25 m arrival tolerance, where rounding decides the arrival tick; a
# tolerance a 32nd of a metre short of it ties no such leg
untied = worlds.map(lambda w: dict(w, arrival_tolerance=24.96875))


def turn(x, y):
    return -y, x


def turn_back(x, y):
    return y, -x


def unmoved(x, y):
    return x, y


def shift_back(x, y):
    return x - SHIFT[0], y - SHIFT[1]


def transformed(config, tmp, move=unmoved, reorder=list, shift=(0.0, 0.0)):
    """``config`` with ``move`` applied to its chart's points, its starts
    and its current, then ``shift`` added to the points and the starts,
    and its chart's features put in ``reorder``'s order."""

    def place(x, y):
        x, y = move(x, y)
        return x + shift[0], y + shift[1]

    chart = json.loads(config.beacons.read_text())
    for feature in chart["features"]:
        feature["geometry"]["coordinates"] = list(place(*feature["geometry"]["coordinates"]))
    chart["features"] = reorder(chart["features"])
    moved_chart = tmp / "moved.geojson"
    moved_chart.write_text(json.dumps(chart))
    world = config.world
    params = {name: getattr(world, name) for name in PARAMS}
    return ScenarioConfig(
        config.output_dir,
        moved_chart,
        config.domain,
        WorldParams(**params, current=move(*world.current)),
        tuple(UuvSpec(s.id, Point2D(*place(s.start.x, s.start.y)), s.problem) for s in config.uuvs),
        config.inactive_beacons,
    )


def events_of_both(drawn, keep=None, **transform):
    """The events of a drawn scenario and of its copy transformed by
    ``transformed(..., **transform)``, each a list of dicts as
    ``events.jsonl`` holds them; a pair of configs that ``keep`` refuses
    is not run."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = scenario(tmp, *drawn)
        copy = transformed(config, tmp, **transform)
        if keep:
            assume(keep(config, copy))
        return [
            [json.loads(line) for line in texts(run_scenario(c))[0].splitlines()]
            for c in (config, copy)
        ]


def near(a, b):
    return abs(a - b) <= RELATIVE * max(abs(a), abs(b), 1.0)


def same_event(event, other, back):
    """``other``, its position mapped by ``back``, equals ``event`` with
    every float to a relative 1e-9."""
    if event.keys() != other.keys():
        return False
    for key, value in event.items():
        theirs = other[key]
        if key == "position":
            theirs = back(*theirs)
            if math.dist(value, theirs) > RELATIVE * max(math.hypot(*value), 1.0):
                return False
        elif isinstance(value, float):
            if not near(value, theirs):
                return False
        elif value != theirs:
            return False
    return True


@PROPERTY
@given(scenarios(below_the_tie))
def test_a_turned_world_keeps_the_events(drawn):
    events, turned = events_of_both(drawn, off_the_beacons, move=turn)
    assert len(events) == len(turned)
    for event, other in zip(events, turned):
        assert same_event(event, other, turn_back), (event, other)


def off_the_range_edges(events, ranges):
    """``events`` without the detections whose range lies within 1e-6 m
    of their beacon's acoustic range."""
    return [
        e
        for e in events
        if e["kind"] != "detection" or abs(e["range"] - ranges[e["beacon"]]) > EDGE
    ]


@PROPERTY
@given(scenarios(untied))
def test_a_shifted_world_keeps_the_events_off_the_range_edges(drawn):
    ranges = dict.fromkeys(BEACONS, PARAMS["acoustic_range"][0])
    retune = drawn[3]
    if retune:
        ranges[retune[0]] = retune[2]
    both = events_of_both(drawn, as_on_the_beacons, shift=SHIFT)
    events, shifted = (off_the_range_edges(e, ranges) for e in both)
    assert len(events) == len(shifted)
    for event, other in zip(events, shifted):
        assert same_event(event, other, shift_back), (event, other)


@PROPERTY
@given(scenarios(), st.randoms(use_true_random=False))
def test_a_reordered_chart_keeps_the_multiset_of_events(drawn, random):
    def shuffled(features):
        return random.sample(features, len(features))

    events, reordered = events_of_both(drawn, reorder=shuffled)
    canonical = [json.dumps(e, sort_keys=True) for e in events]
    assert Counter(canonical) == Counter(json.dumps(e, sort_keys=True) for e in reordered)


def command(*argv):
    """The exit code and stdout of one command run in-process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------

ROUTE_TOLERANCE = 1e-12
charts = st.tuples(
    st.lists(st.tuples(COORD, COORD), min_size=1, max_size=10),
    st.floats(1.0, 2e4, allow_nan=False),
)
whole_metres = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


def routes(points, link, ids=None):
    """The route command's exit code and report, as a dict, from each
    beacon of the chart of ``points`` to each, keyed by index pair."""
    ids = ids or [f"b{i}" for i in range(len(points))]
    features = [
        {"type": "Feature", "properties": {"id": i}, "geometry": {"type": "Point", "coordinates": p}}
        for i, p in zip(ids, points)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        chart = Path(tmp) / "chart.geojson"
        chart.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        found = {}
        for (s, start), (g, goal) in itertools.product(enumerate(ids), repeat=2):
            code, out = command("route", "--beacons", str(chart), "--start", start,
                                "--goal", goal, "--link-distance", repr(link))
            found[s, g] = code, json.loads(out) if code == 0 else None
        return found


def a_link_near_the_link_distance(points, link, tolerance):
    return any(
        abs(math.dist(a, b) - link) <= tolerance for a, b in itertools.combinations(points, 2)
    )


def ties(points, link, pair, report, tolerance):
    """Whether another route between ``pair`` comes within ``tolerance``
    of the one reported.  Another route misses at least one of its links,
    so it is enough to drop each link in turn."""
    start, goal = pair
    hops = [int(b[1:]) for b in report["route"]]
    adjacency = links(points, link)
    for a, b in zip(hops, hops[1:]):
        without = [[(j, d) for j, d in nbrs if {i, j} != {a, b}] for i, nbrs in enumerate(adjacency)]
        if dijkstra(without, start)[goal] <= report["length"] + tolerance:
            return True
    return False


def assert_the_same_routes(points, link, found, moved, tolerance):
    """``moved`` has ``found``'s exit codes, and the same route and length
    to ``tolerance(length)`` wherever no other route ties within it."""
    for pair, (code, report) in found.items():
        other_code, other = moved[pair]
        assert other_code == code, pair
        if report and not ties(points, link, pair, report, tolerance(report["length"])):
            assert other["route"] == report["route"], pair
            assert abs(other["length"] - report["length"]) <= tolerance(report["length"]), pair


@COMMANDS
@given(charts)
def test_a_turned_chart_keeps_every_route(chart):
    points, link = chart
    assume(not a_link_near_the_link_distance(points, link, ROUTE_TOLERANCE * link))
    turned = routes([turn(*p) for p in points], link)
    assert_the_same_routes(
        points, link, routes(points, link), turned, lambda length: ROUTE_TOLERANCE * length
    )


@COMMANDS
@given(charts, whole_metres)
def test_a_chart_shifted_by_whole_metres_keeps_every_route(chart, shift):
    points, link = chart
    shifted = [(x + shift[0], y + shift[1]) for x, y in points]
    extent = max(map(abs, itertools.chain(*points, *shifted, [1.0])))
    assume(not a_link_near_the_link_distance(points, link, ROUTE_TOLERANCE * extent))
    assert_the_same_routes(
        points, link, routes(points, link), routes(shifted, link),
        lambda length: ROUTE_TOLERANCE * extent,
    )


def order_preserving_names(count):
    """``count`` distinct names, sorted, so that a renaming in declaration
    order keeps both that order and the names' own."""
    name = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=5)
    return st.lists(name, min_size=count, max_size=count, unique=True).map(
        lambda names: sorted("x" + n for n in names)
    )


@COMMANDS
@given(charts, st.data())
def test_renamed_beacons_give_the_renamed_routes(chart, data):
    points, link = chart
    names = data.draw(order_preserving_names(len(points)))
    renamed = routes(points, link, names)
    for (s, g), (code, report) in routes(points, link).items():
        if report:
            report = dict(
                report,
                start=names[s],
                goal=names[g],
                route=[names[int(b[1:])] for b in report["route"]],
            )
        assert renamed[s, g] == (code, report)


# ---------------------------------------------------------------------------
# deploy
# ---------------------------------------------------------------------------

def deployed_with_tie_gap(problem):
    """``lloyd_deploy(problem)``, and how near its centroid snaps came to
    a tie: the least gap, in cell², between the squared distances from a
    centroid to its nearest and its second-nearest cell centre."""
    gaps = [math.inf]
    nearest_candidate = deploy._nearest_candidate

    def recording(grid, rows, cols, xs, ys):
        nearest = nearest_candidate(grid, rows, cols, xs, ys)

        def snap(x, y):
            d2 = sorted(((x - xs) ** 2 + (y - ys) ** 2).tolist())
            gaps.append((d2[1] - d2[0]) / grid.cell_size**2 if len(d2) > 1 else math.inf)
            return nearest(x, y)

        return snap

    with mock.patch.object(deploy, "_nearest_candidate", recording):
        return deploy.lloyd_deploy(problem), min(gaps)


@PROPERTY
@given(deployments(), st.data())
def test_a_raster_and_area_shifted_by_whole_cells_keep_the_deployment(problem, data):
    grid, cell = problem.grid, problem.grid.cell_size
    # up to 9e6 m, so every coordinate stays within the coordinate limit
    cells = st.integers(-int(9e6 / cell), int(9e6 / cell))
    dx, dy = data.draw(cells) * cell, data.draw(cells) * cell
    found, gap = deployed_with_tie_gap(problem)
    assume(gap > 1e-9)
    moved = deploy.DeploymentProblem(
        BathymetryGrid(
            grid.origin_x + dx, grid.origin_y + dy, cell, grid.n_rows, grid.n_cols,
            grid.depth, grid.nodata_value,
        ),
        MissionPolygon(tuple(Point2D(v.x + dx, v.y + dy) for v in problem.poly.vertices)),
        problem.n_beacons,
        problem.max_iterations,
        problem.volume_tolerance,
        problem.rng_seed,
    )
    shifted = deploy.lloyd_deploy(moved)
    assert shifted.beacon_positions == tuple(
        Point2D(p.x + dx, p.y + dy) for p in found.beacon_positions
    )
    kept = [name for name in deploy.DeploymentResult._fields if name != "beacon_positions"]
    assert [getattr(shifted, name) for name in kept] == [getattr(found, name) for name in kept]


# ---------------------------------------------------------------------------
# plan and validate
# ---------------------------------------------------------------------------

DOMAIN_TEXTS = {False: DOMAIN_TEXT, True: print_domain(ALTERNATIVES)}


def transformed_problem(problem, names=(), reverse=False):
    """``problem`` with its objects renamed by the dict ``names``, and its
    ``:objects`` list reversed when ``reverse``."""
    names = dict(names)

    def rename(atom):
        return tuple(names.get(a, a) for a in atom)

    objects = tuple((names.get(o, o), t) for o, t in problem.objects)
    return ProblemAst(
        name=problem.name,
        domain_name=problem.domain_name,
        objects=objects[::-1] if reverse else objects,
        init=tuple(map(rename, problem.init)),
        htn=tuple(map(rename, problem.htn)),
        goal=problem.goal,
    )


def plan_and_verdicts(domain_text, problem):
    """``plan --format json``'s exit code and stdout for ``problem``, and
    ``validate``'s exit code and stdout for the plan and for each copy of
    it with one step deleted."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        domain, problem_file = tmp / "domain.hddl", tmp / "problem.hddl"
        domain.write_text(domain_text)
        problem_file.write_text(print_problem(problem))
        files = ("--domain", str(domain), "--problem", str(problem_file))
        code, text = command("plan", *files, "--format", "json")
        verdicts = []
        if code == 0:
            found = json.loads(text)
            steps = found["steps"]
            for i in range(-1, len(steps)):
                plan_file = tmp / "plan.json"
                kept = steps if i < 0 else steps[:i] + steps[i + 1 :]
                plan_file.write_text(json.dumps(dict(found, steps=kept)))
                verdicts.append(command("validate", *files, "--plan", str(plan_file)))
        return (code, text), verdicts


def renamed_text(text, names):
    """``text`` with each object name in it renamed."""
    return re.sub(r'[^\s()",\[\]{}:]+', lambda m: names.get(m[0], m[0]), text)


@COMMANDS
@given(st.booleans(), st.data())
def test_renamed_objects_give_the_renamed_plan_and_verdicts(alternatives, data):
    problem = data.draw(problems(alternatives))
    olds = sorted(o for o, _ in problem.objects)
    names = dict(zip(olds, data.draw(order_preserving_names(len(olds)))))
    domain_text = DOMAIN_TEXTS[alternatives]
    (code, text), verdicts = plan_and_verdicts(domain_text, problem)
    renamed, renamed_verdicts = plan_and_verdicts(domain_text, transformed_problem(problem, names))
    assert renamed == (code, renamed_text(text, names))
    assert renamed_verdicts == [(c, renamed_text(v, names)) for c, v in verdicts]


@COMMANDS
@given(st.booleans(), st.data())
def test_reversed_objects_keep_the_plan_and_verdicts(alternatives, data):
    problem = data.draw(problems(alternatives))
    domain_text = DOMAIN_TEXTS[alternatives]
    reversed_objects = transformed_problem(problem, reverse=True)
    assert plan_and_verdicts(domain_text, reversed_objects) == plan_and_verdicts(
        domain_text, problem
    )


def test_a_method_parameter_of_its_own_binds_the_first_object_declared():
    # so reversing :objects changes the plan, but not its length or validity
    domain_text = DOMAIN_TEXT.rstrip()[:-1] + """
  (:task somewhere :parameters (?u - uuv))
  (:method m-any-beacon
    :parameters (?u - uuv ?b - beacon)
    :task (somewhere ?u)
    :ordered-subtasks (navigate-to-beacon ?u ?b)))
"""
    beacons = (("b1", "beacon"), ("b2", "beacon"), ("b3", "beacon"))
    found = {}
    for order in (beacons, beacons[::-1]):
        problem = ProblemAst(
            name="p", domain_name="uuv-nav", objects=(("u1", "uuv"),) + order,
            init=(), htn=(("somewhere", "u1"),), goal=None,
        )
        (code, text), verdicts = plan_and_verdicts(domain_text, problem)
        assert code == 0 and json.loads(verdicts[0][1])["valid"]
        found[order[0][0]] = [step["args"] for step in json.loads(text)["steps"]]
    assert found == {"b1": [["u1", "b1"]], "b3": [["u1", "b3"]]}
