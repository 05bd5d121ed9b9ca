"""Property: on random point sets and link distances, ``astar_route`` finds
a route as short as a plain Dijkstra search over the same links, and the
two agree on which pairs have no route at all."""

import heapq
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from uuvnav.deploy import BeaconGraph, astar_route, route_length
from uuvnav.geo import Point2D

# Derandomized, so every run checks the same examples.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

COORD = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


def links(points, link_distance):
    """Every pair of points within link distance, as an adjacency list."""
    adjacency = [[] for _ in points]
    for i, (xi, yi) in enumerate(points):
        for j, (xj, yj) in enumerate(points):
            d = math.hypot(xi - xj, yi - yj)
            if i != j and d <= link_distance:
                adjacency[i].append((j, d))
    return adjacency


def dijkstra(adjacency, start):
    """Shortest distance from start to every node; inf where unreachable."""
    dist = [math.inf] * len(adjacency)
    dist[start] = 0.0
    frontier = [(0.0, start)]
    while frontier:
        d, node = heapq.heappop(frontier)
        if d > dist[node]:
            continue
        for nbr, w in adjacency[node]:
            if d + w < dist[nbr]:
                dist[nbr] = d + w
                heapq.heappush(frontier, (d + w, nbr))
    return dist


@PROPERTY
@given(
    st.lists(st.tuples(COORD, COORD), min_size=1, max_size=10),
    st.floats(1.0, 2e4, allow_nan=False),
)
def test_astar_route_length_matches_dijkstra(points, link_distance):
    graph = BeaconGraph(tuple(Point2D(x, y) for x, y in points), link_distance)
    adjacency = links(points, link_distance)
    for start in range(len(points)):
        shortest = dijkstra(adjacency, start)
        for goal in range(len(points)):
            route = astar_route(graph, start, goal)
            if shortest[goal] == math.inf:
                assert route == [], (start, goal)
                continue
            assert route[0] == start and route[-1] == goal
            for a, b in zip(route, route[1:]):
                assert b in {j for j, _ in adjacency[a]}, (a, b)
            assert route_length(graph, route) == pytest.approx(shortest[goal], rel=1e-9)
