"""Typed AST for the totally ordered HDDL subset."""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Literal:
    predicate: str
    args: tuple[str, ...]
    negated: bool = False


@dataclass(frozen=True)
class PredicateDecl:
    name: str
    param_types: tuple[str, ...]


@dataclass(frozen=True)
class TaskDecl:
    """An abstract (compound) task symbol with its parameter signature."""

    name: str
    parameters: tuple[tuple[str, str], ...]  # (?var, type)


@dataclass(frozen=True)
class ActionAst:
    name: str
    parameters: tuple[tuple[str, str], ...]
    precondition: tuple[Literal, ...]  # conjunction
    effect: tuple[Literal, ...]  # negated literals are deletes


@dataclass(frozen=True)
class MethodAst:
    name: str
    parameters: tuple[tuple[str, str], ...]
    task: TaskRef  # the abstract task this method decomposes
    precondition: tuple[Literal, ...]
    subtasks: tuple[TaskRef, ...]  # totally ordered


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: tuple[str, ...]
    types: tuple[tuple[str, str], ...]  # (type, parent)
    predicates: tuple[PredicateDecl, ...]
    tasks: tuple[TaskDecl, ...]
    actions: tuple[ActionAst, ...]
    methods: tuple[MethodAst, ...]

    # each type's supertypes, itself and object included, worked out once
    supertypes: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parents = dict(self.types)
        supertypes = {
            t: frozenset(type_chain(parents, t)) for t in ("object", *parents, *parents.values())
        }
        object.__setattr__(self, "supertypes", supertypes)

    def type_names(self) -> set[str]:
        return set(self.supertypes)

    def is_subtype(self, t: str, ancestor: str) -> bool:
        return ancestor in self.supertypes.get(t, (t, "object"))


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (object, type)
    init: tuple[Atom, ...]
    htn: tuple[TaskRef, ...]  # the initial task network, in its total order
    goal: tuple[Literal, ...] | None
