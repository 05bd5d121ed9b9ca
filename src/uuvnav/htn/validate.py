"""Independent plan checker.

Takes the plan as its sequence of ground task tuples, looks up each step
in the ground tables and re-executes it, then re-derives the
decomposition from the initial task network by matching search, so a
planner bug cannot vouch for itself.
"""

from __future__ import annotations

from typing import Sequence

from ..hddl.ast import Atom, Literal
from ..hddl.ground import GroundTables, GroundTask
from ..record import Record
from .planner import DEFAULT_DECOMPOSITION_BUDGET, goal_satisfied


class Verdict(Record, frozen=True):
    __slots__ = _fields = ("valid", "reason", "step_index")
    valid: bool
    reason: str
    step_index: int | None
    _defaults = {"step_index": None}


def validate(
    tables: GroundTables,
    s0: frozenset[Atom],
    w0: Sequence[GroundTask],
    steps: Sequence[GroundTask],
    goal: Sequence[Literal] | None = None,
    max_decompositions: int = DEFAULT_DECOMPOSITION_BUDGET,
) -> Verdict:
    state = frozenset(s0)
    for i, task in enumerate(steps):
        action = tables.actions.get(task)
        if action is None:
            return Verdict(False, f"step {i} ({' '.join(task)}) is not a ground action", i)
        if not action.applicable(state):
            return Verdict(
                False, f"precondition of step {i} ({' '.join(task)}) not satisfied", i
            )
        state = action.apply(state)
    if not goal_satisfied(goal, state):
        return Verdict(False, "goal not satisfied in the final state")

    derived, reached = _derive(tables, s0, w0, list(steps), max_decompositions)
    if derived:
        return Verdict(True, "plan is valid")
    if derived is None:
        return Verdict(
            False,
            f"derivation search exceeded its budget of {max_decompositions} decompositions",
        )
    if reached == len(steps):  # every step matched, and the network wants more
        return Verdict(False, "plan ends before its task network is done")
    return Verdict(
        False,
        f"orphan step {reached}: sequence is not derivable from the initial task network",
        reached,
    )


def _derive(
    tables: GroundTables,
    s0: frozenset[Atom],
    w0: Sequence[GroundTask],
    steps: list[GroundTask],
    max_decompositions: int,
) -> tuple[bool | None, int]:
    """Try to derive exactly the step sequence from w0.

    Returns (derived fully, longest matched prefix); derived fully is None
    when the search ran out of decompositions before it could tell."""
    state = frozenset(s0)
    agenda: list[GroundTask] = list(reversed(w0))  # front task last
    # (untried methods, state, rest of agenda, matched count) per choice frame
    frames: list[tuple] = []
    matched = best = decompositions = 0
    while True:
        while agenda and tables.is_primitive(agenda[-1]):
            action = tables.actions.get(agenda[-1])
            if (
                matched >= len(steps)
                or action is None
                or action.task != steps[matched]
                or not action.applicable(state)
            ):
                break
            state = action.apply(state)
            matched += 1
            best = max(best, matched)
            agenda.pop()
        else:
            if agenda:
                decompositions += 1
                if decompositions > max_decompositions:
                    return None, best
                task = agenda.pop()
                frames.append((iter(tables.methods.get(task, ())), state, agenda, matched))
            elif matched == len(steps):
                return True, matched
            # else the derivation ended before consuming every step
        while frames:
            methods, state, rest, matched = frames[-1]
            method = next((m for m in methods if m.applicable(state)), None)
            if method is not None:
                break
            frames.pop()
        else:
            return False, best
        agenda = rest + list(reversed(method.subtasks))
