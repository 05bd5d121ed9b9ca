"""Typed AST for the totally ordered HDDL subset."""

from __future__ import annotations

from ..record import Record

# a task reference: (task-or-action name, argument, ...)
TaskRef = tuple[str, ...]
# a ground atom: (predicate, object, ...)
Atom = tuple[str, ...]


def type_chain(parents: dict[str, str], t: str) -> list[str]:
    """t and its ancestors up to object, by a type -> parent table in which
    a missing type is directly under object. The parser refuses a type
    cycle, so every walk ends."""
    chain = [t]
    while chain[-1] != "object":
        chain.append(parents.get(chain[-1], "object"))
    return chain


class Literal(Record, frozen=True):
    __slots__ = _fields = ("predicate", "args", "negated")
    predicate: str
    args: tuple[str, ...]
    negated: bool
    _defaults = {"negated": False}


class PredicateDecl(Record, frozen=True):
    __slots__ = _fields = ("name", "param_types")
    name: str
    param_types: tuple[str, ...]


class TaskDecl(Record, frozen=True):
    """An abstract (compound) task symbol with its parameter signature."""

    __slots__ = _fields = ("name", "parameters")
    name: str
    parameters: tuple[tuple[str, str], ...]  # (?var, type)


class ActionAst(Record, frozen=True):
    __slots__ = _fields = ("name", "parameters", "precondition", "effect")
    name: str
    parameters: tuple[tuple[str, str], ...]
    precondition: tuple[Literal, ...]  # conjunction
    effect: tuple[Literal, ...]  # negated literals are deletes


class MethodAst(Record, frozen=True):
    __slots__ = _fields = ("name", "parameters", "task", "precondition", "subtasks")
    name: str
    parameters: tuple[tuple[str, str], ...]
    task: TaskRef  # the abstract task this method decomposes
    precondition: tuple[Literal, ...]
    subtasks: tuple[TaskRef, ...]  # totally ordered


class DomainAst(Record, frozen=True):
    _fields = ("name", "requirements", "types", "predicates", "tasks", "actions", "methods")
    __slots__ = (*_fields, "supertypes")
    name: str
    requirements: tuple[str, ...]
    types: tuple[tuple[str, str], ...]  # (type, parent)
    predicates: tuple[PredicateDecl, ...]
    tasks: tuple[TaskDecl, ...]
    actions: tuple[ActionAst, ...]
    methods: tuple[MethodAst, ...]

    # each type's supertypes, itself and object included, worked out once;
    # not a field, so neither compared nor shown
    supertypes: dict[str, frozenset[str]]

    def __init__(
        self,
        name: str,
        requirements: tuple[str, ...],
        types: tuple[tuple[str, str], ...],
        predicates: tuple[PredicateDecl, ...],
        tasks: tuple[TaskDecl, ...],
        actions: tuple[ActionAst, ...],
        methods: tuple[MethodAst, ...],
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "requirements", requirements)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "methods", methods)
        parents = dict(types)
        supertypes = {
            t: frozenset(type_chain(parents, t)) for t in ("object", *parents, *parents.values())
        }
        object.__setattr__(self, "supertypes", supertypes)

    def type_names(self) -> set[str]:
        return set(self.supertypes)

    def is_subtype(self, t: str, ancestor: str) -> bool:
        return ancestor in self.supertypes.get(t, (t, "object"))


class ProblemAst(Record, frozen=True):
    __slots__ = _fields = ("name", "domain_name", "objects", "init", "htn", "goal")
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (object, type)
    init: tuple[Atom, ...]
    htn: tuple[TaskRef, ...]  # the initial task network, in its total order
    goal: tuple[Literal, ...] | None
