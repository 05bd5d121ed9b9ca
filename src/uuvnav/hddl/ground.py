"""Instantiate action and method schemas over the problem's objects.

Bindings are enumerated in parameter declaration order with objects in
problem declaration order, so grounding is deterministic. Instances whose
atoms would be ill-typed are pruned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import GroundingError
from .ast import ActionAst, Atom, DomainAst, Literal, MethodAst, ProblemAst

DEFAULT_INSTANCE_CAP = 10**6

# a ground task: (name, object, ...), the same tuple shape as an Atom
GroundTask = tuple[str, ...]


@dataclass(frozen=True)
class GroundAction:
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


@dataclass(frozen=True)
class GroundMethod:
    name: str
    args: tuple[str, ...]
    task: GroundTask
    pos_pre: frozenset[Atom]
    neg_pre: frozenset[Atom]
    subtasks: tuple[GroundTask, ...]

    def applicable(self, state: frozenset[Atom]) -> bool:
        return self.pos_pre <= state and not (self.neg_pre & state)


@dataclass(frozen=True)
class GroundTables:
    actions: dict[GroundTask, GroundAction]
    methods: dict[GroundTask, tuple[GroundMethod, ...]]  # source order per task
    abstract_names: frozenset[str]
    action_names: frozenset[str]
    instance_count: int

    def is_primitive(self, task: GroundTask) -> bool:
        return task[0] in self.action_names


def _objects_by_type(domain: DomainAst, problem: ProblemAst) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {t: [] for t in domain.type_names()}
    for obj, obj_type in problem.objects:
        for t in table:
            if domain.is_subtype(obj_type, t):
                table[t].append(obj)
    return table


def _split_literals(lits: tuple[Literal, ...], binding: dict[str, str]):
    pos, neg = [], []
    for lit in lits:
        atom = (lit.predicate,) + tuple(binding[a] for a in lit.args)
        (neg if lit.negated else pos).append(atom)
    return frozenset(pos), frozenset(neg)


def _well_typed(domain, preds, obj_types, lits, binding) -> bool:
    for lit in lits:
        for arg, want in zip(lit.args, preds[lit.predicate].param_types):
            if not domain.is_subtype(obj_types[binding[arg]], want):
                return False
    return True


def _bindings(schema_params, by_type, cap_state, schema_name):
    """Yield variable bindings over type-filtered object tuples."""
    pools = [by_type.get(t, []) for _, t in schema_params]
    names = [v for v, _ in schema_params]
    count = 1
    for p in pools:
        count *= len(p)
    cap_state["count"] += count
    if cap_state["count"] > cap_state["cap"]:
        raise GroundingError(
            f"grounding aborted at {cap_state['count']} instances"
            f" (cap {cap_state['cap']}, exceeded while grounding {schema_name})"
        )
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


def ground(
    domain: DomainAst,
    problem: ProblemAst,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> GroundTables:
    by_type = _objects_by_type(domain, problem)
    obj_types = dict(problem.objects)
    preds = {p.name: p for p in domain.predicates}
    cap_state = {"count": 0, "cap": instance_cap}

    actions: dict[GroundTask, GroundAction] = {}
    for schema in domain.actions:
        for binding in _bindings(schema.parameters, by_type, cap_state, schema.name):
            lits = schema.precondition + schema.effect
            if not _well_typed(domain, preds, obj_types, lits, binding):
                continue
            args = tuple(binding[v] for v, _ in schema.parameters)
            pos_pre, neg_pre = _split_literals(schema.precondition, binding)
            adds, dels = _split_literals(schema.effect, binding)
            ga = GroundAction(schema.name, args, pos_pre, neg_pre, adds, dels)
            actions[ga.task] = ga

    methods: dict[GroundTask, list[GroundMethod]] = {}
    for schema in domain.methods:
        for binding in _bindings(schema.parameters, by_type, cap_state, schema.name):
            if not _well_typed(domain, preds, obj_types, schema.precondition, binding):
                continue
            args = tuple(binding[v] for v, _ in schema.parameters)
            task = (schema.task[0],) + tuple(binding[a] for a in schema.task[1])
            pos_pre, neg_pre = _split_literals(schema.precondition, binding)
            subtasks = tuple(
                (name,) + tuple(binding[a] for a in sargs)
                for name, sargs in schema.subtasks
            )
            gm = GroundMethod(schema.name, args, task, pos_pre, neg_pre, subtasks)
            methods.setdefault(task, []).append(gm)

    return GroundTables(
        actions=actions,
        methods={k: tuple(v) for k, v in methods.items()},
        abstract_names=frozenset(t.name for t in domain.tasks),
        action_names=frozenset(a.name for a in domain.actions),
        instance_count=cap_state["count"],
    )

