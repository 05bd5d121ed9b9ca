"""Depth-first totally ordered HTN search.

The front agenda task is always the next to execute: primitives are
applied immediately, abstract tasks are decomposed by the first applicable
method in domain source order, and failures backtrack to the most recent
method choice. A global decomposition budget guards against unbounded
recursion in the method set.

The decomposition tree is recorded in preorder while the search runs:
each applied action or method appends a node naming its parent, and
backtracking cuts the list back to the choice point's length.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import PlanNotFound
from ..hddl.ast import Atom, Literal
from ..hddl.ground import GroundAction, GroundMethod, GroundTables, GroundTask
from ..record import Record

DEFAULT_DECOMPOSITION_BUDGET = 10**4

# The text view stops indenting past this depth, so its size stays linear
# in the depth of the tree; deeper lines state their depth as "[depth]".
TEXT_INDENT_LEVELS = 8

State = frozenset


class PlanStats(Record, frozen=True):
    __slots__ = _fields = ("nodes_expanded", "decompositions")
    nodes_expanded: int
    decompositions: int


class Plan(Record, frozen=True):
    """The primitive steps, and the decomposition tree as the search
    recorded it: in preorder, each node an applied action or method paired
    with its parent's index, None for a root."""

    __slots__ = _fields = ("steps", "nodes", "stats")
    steps: tuple[GroundAction, ...]
    nodes: tuple[tuple[GroundAction | GroundMethod, int | None], ...]
    stats: PlanStats


def goal_satisfied(goal: Sequence[Literal] | None, state: State) -> bool:
    if not goal:
        return True
    for lit in goal:
        atom = (lit.predicate,) + lit.args
        if lit.negated == (atom in state):
            return False
    return True


def plan(
    tables: GroundTables,
    s0: frozenset[Atom],
    w0: Sequence[GroundTask],
    goal: Sequence[Literal] | None = None,
    max_decompositions: int = DEFAULT_DECOMPOSITION_BUDGET,
) -> Plan:
    """Find a primitive action sequence realizing w0 from s0.

    Raises PlanNotFound when the search space is exhausted or the
    decomposition budget runs out.
    """
    state: State = frozenset(s0)
    # (task, parent node id) entries, front task last
    agenda: list[tuple[GroundTask, int | None]] = [(task, None) for task in reversed(w0)]
    nodes: list[tuple[GroundAction | GroundMethod, int | None]] = []  # (payload, parent)
    # (untried methods, state, rest of agenda, node count, parent) per choice point
    choices: list[tuple] = []
    nodes_expanded = decompositions = 0
    while True:
        # apply primitives at the agenda front
        while agenda and tables.is_primitive(agenda[-1][0]):
            task, parent = agenda[-1]
            action = tables.actions.get(task)
            if action is None or not action.applicable(state):
                break
            nodes_expanded += 1
            state = action.apply(state)
            nodes.append((action, parent))
            agenda.pop()
        else:
            if agenda:
                task, parent = agenda.pop()
                methods = iter(tables.methods.get(task, ()))
                choices.append((methods, state, agenda, len(nodes), parent))
            elif goal_satisfied(goal, state):
                return Plan(
                    steps=tuple(p for p, _ in nodes if isinstance(p, GroundAction)),
                    nodes=tuple(nodes),
                    stats=PlanStats(nodes_expanded, decompositions),
                )
        # decompose by the next applicable method of the latest choice point
        while choices:
            methods, state, rest, mark, parent = choices[-1]
            method = next((m for m in methods if m.applicable(state)), None)
            if method is not None:
                break
            choices.pop()
        else:
            raise PlanNotFound("search space exhausted without a plan")
        decompositions += 1
        nodes_expanded += 1
        if decompositions > max_decompositions:
            raise PlanNotFound(f"decomposition budget of {max_decompositions} exceeded")
        del nodes[mark:]
        nodes.append((method, parent))
        agenda = rest + [(task, mark) for task in reversed(method.subtasks)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def plan_to_dict(p: Plan) -> dict:
    roots: list[int] = []
    nodes: list[dict] = []
    step = 0
    for node_id, (payload, parent) in enumerate(p.nodes):
        (roots if parent is None else nodes[parent]["children"]).append(node_id)
        node = {"id": node_id, "task": list(payload.task)}
        if isinstance(payload, GroundAction):
            node.update(kind="action", step=step)
            step += 1
        else:
            node.update(kind="method", method=payload.name, children=[])
        nodes.append(node)
    return {
        "steps": [
            {"index": i, "name": s.name, "args": list(s.args)}
            for i, s in enumerate(p.steps)
        ],
        "tree": {"roots": roots, "nodes": nodes},
        "stats": {
            "nodes_expanded": p.stats.nodes_expanded,
            "decompositions": p.stats.decompositions,
        },
    }


def format_plan_text(p: Plan) -> str:
    """Indented decomposition view with numbered primitive steps; a parent
    precedes its children in preorder, so one pass prints the tree.  A
    line deeper than TEXT_INDENT_LEVELS keeps that indent and begins with
    its depth in brackets, as in ``[9] 8. step``."""
    lines = [f"plan: {len(p.steps)} step(s)"]
    depth: list[int] = []
    step = 0
    for payload, parent in p.nodes:
        depth.append(1 if parent is None else depth[parent] + 1)
        pad = "  " * min(depth[-1], TEXT_INDENT_LEVELS)
        if depth[-1] > TEXT_INDENT_LEVELS:
            pad += f"[{depth[-1]}] "
        label = " ".join(payload.task)
        if isinstance(payload, GroundAction):
            step += 1
            lines.append(f"{pad}{step}. {label}")
        else:
            lines.append(f"{pad}{label}  [{payload.name}]")
    return "\n".join(lines) + "\n"
