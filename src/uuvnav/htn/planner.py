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

from dataclasses import dataclass
from typing import Sequence

from ..errors import PlanNotFound
from ..hddl.ast import Atom, Literal
from ..hddl.ground import GroundAction, GroundMethod, GroundTables, GroundTask

DEFAULT_DECOMPOSITION_BUDGET = 10**4

State = frozenset


@dataclass(frozen=True)
class PlanStats:
    nodes_expanded: int
    decompositions: int


@dataclass(frozen=True)
class TreeNode:
    """One node of the decomposition tree (action leaf or method split)."""

    id: int
    task: GroundTask
    kind: str  # "action" | "method"
    method: str | None
    children: tuple[int, ...]
    step: int | None  # plan step index for action leaves


@dataclass(frozen=True)
class Plan:
    steps: tuple[GroundAction, ...]
    tree: tuple[TreeNode, ...]
    roots: tuple[int, ...]
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
                return _plan(nodes, PlanStats(nodes_expanded, decompositions))
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


def _plan(nodes: list[tuple], stats: PlanStats) -> Plan:
    """Group the preorder (payload, parent) nodes into the plan's tree."""
    roots: list[int] = []
    children: list[list[int]] = [[] for _ in nodes]
    for node_id, (_, parent) in enumerate(nodes):
        (roots if parent is None else children[parent]).append(node_id)
    steps: list[GroundAction] = []
    tree: list[TreeNode] = []
    for node_id, (payload, _) in enumerate(nodes):
        if isinstance(payload, GroundAction):
            tree.append(TreeNode(node_id, payload.task, "action", None, (), len(steps)))
            steps.append(payload)
        else:
            kids = tuple(children[node_id])
            tree.append(TreeNode(node_id, payload.task, "method", payload.name, kids, None))
    return Plan(steps=tuple(steps), tree=tuple(tree), roots=tuple(roots), stats=stats)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def plan_to_dict(p: Plan) -> dict:
    return {
        "steps": [
            {"index": i, "name": s.name, "args": list(s.args)}
            for i, s in enumerate(p.steps)
        ],
        "tree": {
            "roots": list(p.roots),
            "nodes": [
                {
                    "id": n.id,
                    "task": list(n.task),
                    "kind": n.kind,
                    **({"method": n.method} if n.method is not None else {}),
                    **({"children": list(n.children)} if n.kind == "method" else {}),
                    **({"step": n.step} if n.step is not None else {}),
                }
                for n in p.tree
            ],
        },
        "stats": {
            "nodes_expanded": p.stats.nodes_expanded,
            "decompositions": p.stats.decompositions,
        },
    }


def format_plan_text(p: Plan) -> str:
    """Indented decomposition view with numbered primitive steps; node ids
    are preorder, so one pass in id order prints the tree."""
    lines = [f"plan: {len(p.steps)} step(s)"]
    depth = dict.fromkeys(p.roots, 1)
    for n in p.tree:
        label = " ".join(n.task)
        pad = "  " * depth[n.id]
        if n.kind == "action":
            lines.append(f"{pad}{n.step + 1}. {label}")
        else:
            lines.append(f"{pad}{label}  [{n.method}]")
            depth.update(dict.fromkeys(n.children, depth[n.id] + 1))
    return "\n".join(lines) + "\n"
