"""Independent plan checker.

Takes the plan as its sequence of ground task tuples, looks up each step
in the ground tables and re-executes it, then re-derives the
decomposition from the initial task network by matching search, so a
planner bug cannot vouch for itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..hddl.ast import Atom, Literal
from ..hddl.ground import GroundTables, GroundTask
from .planner import DEFAULT_DECOMPOSITION_BUDGET, goal_satisfied


@dataclass(frozen=True)
class Verdict:
    valid: bool
    reason: str
    step_index: int | None = None


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
    if not derived:
        idx = min(reached, max(len(steps) - 1, 0))
        return Verdict(
            False,
            f"orphan step {idx}: sequence is not derivable from the initial"
            " task network",
            idx,
        )
    return Verdict(True, "plan is valid")


def _derive(
    tables: GroundTables,
    s0: frozenset[Atom],
    w0: Sequence[GroundTask],
    steps: list[GroundTask],
    max_decompositions: int,
) -> tuple[bool, int]:
    """Try to derive exactly the step sequence from w0.

    Returns (derived fully, longest matched prefix)."""
    state = frozenset(s0)
    agenda: list[GroundTask] = list(w0)
    # choice frames: [methods, next_index, state, agenda, matched_count]
    stack: list[list] = []
    matched = 0
    best = 0
    decompositions = 0

    def backtrack() -> bool:
        nonlocal state, agenda, matched
        while stack:
            frame = stack[-1]
            methods, i, f_state, f_agenda, f_matched = frame
            while i < len(methods):
                m = methods[i]
                i += 1
                if m.applicable(f_state):
                    frame[1] = i
                    state = f_state
                    agenda = list(m.subtasks) + f_agenda[1:]
                    matched = f_matched
                    return True
            stack.pop()
        return False

    while True:
        failed = False
        while agenda and tables.is_primitive(agenda[0]):
            action = tables.actions.get(agenda[0])
            if (
                matched >= len(steps)
                or action is None
                or action.task != steps[matched]
                or not action.applicable(state)
            ):
                failed = True
                break
            state = action.apply(state)
            matched += 1
            best = max(best, matched)
            agenda.pop(0)
        if not failed and not agenda:
            if matched == len(steps):
                return True, matched
            failed = True  # derivation ended before consuming every step
        if not failed:
            decompositions += 1
            if decompositions > max_decompositions:
                return False, best
            stack.append([tables.methods.get(agenda[0], ()), 0, state, list(agenda), matched])
            failed = not backtrack()  # advances the fresh frame first
        if failed and not backtrack():
            return False, best
