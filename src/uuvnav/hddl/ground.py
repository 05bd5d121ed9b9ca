"""Instantiate action and method schemas over the problem's objects.

Each parameter ranges over the objects, in problem declaration order,
whose type is under its declared type and under the type of every
predicate slot it fills, so every instance's atoms are well typed.
Bindings are enumerated in parameter declaration order, so grounding is
deterministic.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from ..errors import GroundingError
from ..record import Record
from .ast import ActionAst, Atom, DomainAst, Literal, MethodAst, ProblemAst

DEFAULT_INSTANCE_CAP = 10**6

# a ground task: (name, object, ...), the same tuple shape as an Atom
GroundTask = tuple[str, ...]


class GroundAction(Record, frozen=True):
    __slots__ = _fields = ("name", "args", "pos_pre", "neg_pre", "add_eff", "del_eff")
    name: str
    args: tuple[str, ...]
    pos_pre: frozenset[Atom]
    neg_pre: frozenset[Atom]
    add_eff: frozenset[Atom]
    del_eff: frozenset[Atom]

    @property
    def task(self) -> GroundTask:
        return (self.name,) + self.args

    def applicable(self, state: frozenset[Atom]) -> bool:
        return self.pos_pre <= state and not (self.neg_pre & state)

    def apply(self, state: frozenset[Atom]) -> frozenset[Atom]:
        return (state - self.del_eff) | self.add_eff


class GroundMethod(Record, frozen=True):
    __slots__ = _fields = ("name", "task", "pos_pre", "neg_pre", "subtasks")
    name: str
    task: GroundTask
    pos_pre: frozenset[Atom]
    neg_pre: frozenset[Atom]
    subtasks: tuple[GroundTask, ...]

    def applicable(self, state: frozenset[Atom]) -> bool:
        return self.pos_pre <= state and not (self.neg_pre & state)


class GroundTables(Record, frozen=True):
    __slots__ = _fields = ("actions", "methods", "action_names", "instance_count")
    actions: dict[GroundTask, GroundAction]
    methods: dict[GroundTask, tuple[GroundMethod, ...]]  # source order per task
    action_names: frozenset[str]
    instance_count: int

    def is_primitive(self, task: GroundTask) -> bool:
        return task[0] in self.action_names


def _split_literals(lits: tuple[Literal, ...], binding: dict[str, str]):
    pos, neg = [], []
    for lit in lits:
        atom = (lit.predicate,) + tuple(binding[a] for a in lit.args)
        (neg if lit.negated else pos).append(atom)
    return frozenset(pos), frozenset(neg)


def ground(
    domain: DomainAst,
    problem: ProblemAst,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> GroundTables:
    slot_types = {p.name: p.param_types for p in domain.predicates}
    count = 0

    def bindings(
        schema: ActionAst | MethodAst, lits: tuple[Literal, ...]
    ) -> Iterator[dict[str, str]]:
        """Each binding of the schema's parameters, in parameter order, to
        objects under its type and the type of every slot it fills in lits.
        Their count is added against the cap before the first is yielded."""
        nonlocal count
        wants = {v: {t} for v, t in schema.parameters}
        for lit in lits:
            for var, t in zip(lit.args, slot_types[lit.predicate]):
                wants[var].add(t)
        pools = [
            [o for o, o_type in problem.objects if want <= domain.supertypes[o_type]]
            for want in wants.values()
        ]
        count += math.prod(map(len, pools))
        if count > instance_cap:
            raise GroundingError(
                f"grounding aborted at {count} instances"
                f" (cap {instance_cap}, exceeded while grounding {schema.name})"
            )
        names = list(wants)
        for combo in itertools.product(*pools):
            yield dict(zip(names, combo))

    actions: dict[GroundTask, GroundAction] = {}
    for schema in domain.actions:
        for binding in bindings(schema, schema.precondition + schema.effect):
            args = tuple(binding[v] for v, _ in schema.parameters)
            pos_pre, neg_pre = _split_literals(schema.precondition, binding)
            adds, dels = _split_literals(schema.effect, binding)
            ga = GroundAction(schema.name, args, pos_pre, neg_pre, adds, dels)
            actions[ga.task] = ga

    methods: dict[GroundTask, list[GroundMethod]] = {}
    for schema in domain.methods:
        # split each task reference into (name, variables) once, not per binding
        (head, head_vars), *refs = [(r[0], r[1:]) for r in (schema.task,) + schema.subtasks]
        for binding in bindings(schema, schema.precondition):
            task = (head,) + tuple(binding[a] for a in head_vars)
            pos_pre, neg_pre = _split_literals(schema.precondition, binding)
            subtasks = tuple((name,) + tuple(binding[a] for a in sargs) for name, sargs in refs)
            gm = GroundMethod(schema.name, task, pos_pre, neg_pre, subtasks)
            methods.setdefault(task, []).append(gm)

    return GroundTables(
        actions=actions,
        methods={k: tuple(v) for k, v in methods.items()},
        action_names=frozenset(a.name for a in domain.actions),
        instance_count=count,
    )
