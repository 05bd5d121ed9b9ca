"""Depth-first totally ordered HTN search.

The front agenda task is always the next to execute: primitives are
applied immediately, abstract tasks are decomposed by the first applicable
method in domain source order, and failures backtrack to the most recent
method choice. A global decomposition budget guards against unbounded
recursion in the method set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class _Choice:
    methods: tuple[GroundMethod, ...]
    next_index: int
    state: State
    agenda: list[GroundTask]
    trace_len: int


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
    agenda: list[GroundTask] = list(w0)
    trace: list[tuple[str, object]] = []
    stack: list[_Choice] = []
    nodes_expanded = 0
    decompositions = 0

    def try_next(choice: _Choice) -> bool:
        nonlocal decompositions, nodes_expanded, state, agenda
        i = choice.next_index
        while i < len(choice.methods):
            m = choice.methods[i]
            i += 1
            if m.applicable(choice.state):
                choice.next_index = i
                decompositions += 1
                nodes_expanded += 1
                if decompositions > max_decompositions:
                    raise PlanNotFound(
                        f"decomposition budget of {max_decompositions} exceeded"
                    )
                state = choice.state
                agenda = list(m.subtasks) + choice.agenda[1:]
                del trace[choice.trace_len :]
                trace.append(("method", m))
                return True
        choice.next_index = i
        return False

    while True:
        failed = False
        # apply primitives at the agenda front
        while agenda and tables.is_primitive(agenda[0]):
            action = tables.actions.get(agenda[0])
            if action is None or not action.applicable(state):
                failed = True
                break
            nodes_expanded += 1
            state = action.apply(state)
            trace.append(("action", action))
            agenda.pop(0)
        if not failed and not agenda:
            if goal_satisfied(goal, state):
                steps, tree, roots = _build_tree(trace)
                return Plan(
                    steps=steps,
                    tree=tree,
                    roots=roots,
                    stats=PlanStats(nodes_expanded, decompositions),
                )
            failed = True
        if not failed:
            choice = _Choice(
                methods=tables.methods.get(agenda[0], ()),
                next_index=0,
                state=state,
                agenda=list(agenda),
                trace_len=len(trace),
            )
            stack.append(choice)
            failed = not try_next(choice)
        if failed:
            while stack:
                if try_next(stack[-1]):
                    break
                stack.pop()
            else:
                raise PlanNotFound("search space exhausted without a plan")


def _build_tree(trace):
    """Rebuild the decomposition tree from the preorder search trace.

    Each method entry in the trace is followed by the subtrees of its
    subtasks, in order, so one pass with a stack of the methods still
    awaiting children rebuilds the tree.  The pass is iterative because a
    recursive domain can nest deeper than Python's recursion limit.
    """
    steps: list[GroundAction] = []
    roots: list[int] = []
    nodes: list[tuple] = []  # (task, kind, method, child ids, step) per node
    awaiting: list[list] = []  # [child ids, subtasks still to come] per open method
    for kind, payload in trace:
        node_id = len(nodes)
        if awaiting:
            top = awaiting[-1]
            top[0].append(node_id)
            top[1] -= 1
            if top[1] == 0:
                awaiting.pop()
        else:
            roots.append(node_id)
        children: list[int] = []
        if kind == "action":
            nodes.append((payload.task, "action", None, children, len(steps)))
            steps.append(payload)
        else:
            nodes.append((payload.task, "method", payload.name, children, None))
            if payload.subtasks:
                awaiting.append([children, len(payload.subtasks)])
    tree = tuple(
        TreeNode(node_id, task, kind, method, tuple(children), step)
        for node_id, (task, kind, method, children, step) in enumerate(nodes)
    )
    return tuple(steps), tree, tuple(roots)


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
    """Indented decomposition view with numbered primitive steps."""
    lines = [f"plan: {len(p.steps)} step(s)"]
    by_id = {n.id: n for n in p.tree}

    def walk(node_id: int, depth: int):
        n = by_id[node_id]
        label = " ".join(n.task)
        pad = "  " * depth
        if n.kind == "action":
            lines.append(f"{pad}{n.step + 1}. {label}")
        else:
            lines.append(f"{pad}{label}  [{n.method}]")
            for c in n.children:
                walk(c, depth + 1)

    for r in p.roots:
        walk(r, 1)
    return "\n".join(lines) + "\n"
