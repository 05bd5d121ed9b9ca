"""Typed AST for the totally ordered HDDL subset."""

from __future__ import annotations

from dataclasses import dataclass

# a task reference: (task-or-action name, argument, ...)
TaskRef = tuple[str, ...]
# a ground atom: (predicate, object, ...)
Atom = tuple[str, ...]


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

    def type_names(self) -> set[str]:
        names = {"object"}
        for t, parent in self.types:
            names.add(t)
            names.add(parent)
        return names

    def is_subtype(self, t: str, ancestor: str) -> bool:
        if ancestor == "object":
            return True
        parents = dict(self.types)
        seen = set()
        while t not in seen:
            if t == ancestor:
                return True
            seen.add(t)
            t = parents.get(t, "object")
        return False


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]  # (object, type)
    init: tuple[Atom, ...]
    htn: tuple[TaskRef, ...]  # the initial task network, in its total order
    goal: tuple[Literal, ...] | None
