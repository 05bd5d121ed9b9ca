"""Canonical text form for parsed domains and problems.

print_domain/print_problem emit text that parses back to an equal AST.
"""

from __future__ import annotations

from .ast import DomainAst, Literal, ProblemAst, TaskRef


def _typed(params: tuple[tuple[str, str], ...]) -> str:
    return " ".join(f"{name} - {t}" for name, t in params)


def _literal(lit: Literal) -> str:
    atom = f"({lit.predicate}{''.join(' ' + a for a in lit.args)})"
    return f"(not {atom})" if lit.negated else atom


def _conjunction(lits: tuple[Literal, ...]) -> str:
    if not lits:
        return "()"
    if len(lits) == 1:
        return _literal(lits[0])
    return "(and " + " ".join(_literal(l) for l in lits) + ")"


def _task_ref(ref: TaskRef) -> str:
    return "(" + " ".join(ref) + ")"


def _network(refs: tuple[TaskRef, ...]) -> str:
    if not refs:
        return "()"
    return "(and " + " ".join(_task_ref(r) for r in refs) + ")"


def print_domain(domain: DomainAst) -> str:
    out = [f"(define (domain {domain.name})"]
    if domain.requirements:
        out.append(f"  (:requirements {' '.join(domain.requirements)})")
    if domain.types:
        out.append(f"  (:types {_typed(domain.types)})")
    if domain.predicates:
        decls = " ".join(
            "(" + p.name + "".join(f" ?x{i} - {t}" for i, t in enumerate(p.param_types)) + ")"
            for p in domain.predicates
        )
        out.append(f"  (:predicates {decls})")
    for t in domain.tasks:
        out.append(f"  (:task {t.name} :parameters ({_typed(t.parameters)}))")
    for m in domain.methods:
        out.append(f"  (:method {m.name}")
        out.append(f"    :parameters ({_typed(m.parameters)})")
        out.append(f"    :task {_task_ref(m.task)}")
        if m.precondition:
            out.append(f"    :precondition {_conjunction(m.precondition)}")
        out.append(f"    :ordered-subtasks {_network(m.subtasks)})")
    for a in domain.actions:
        out.append(f"  (:action {a.name}")
        out.append(f"    :parameters ({_typed(a.parameters)})")
        if a.precondition:
            out.append(f"    :precondition {_conjunction(a.precondition)}")
        if a.effect:
            out.append(f"    :effect {_conjunction(a.effect)}")
        out.append("  )")
    out.append(")")
    return "\n".join(out) + "\n"


def print_problem(problem: ProblemAst) -> str:
    out = [f"(define (problem {problem.name})"]
    out.append(f"  (:domain {problem.domain_name})")
    if problem.objects:
        out.append(f"  (:objects {_typed(problem.objects)})")
    out.append(f"  (:htn :ordered-subtasks {_network(problem.htn)})")
    if problem.init:
        atoms = " ".join(
            "(" + " ".join(atom) + ")" for atom in problem.init
        )
        out.append(f"  (:init {atoms})")
    else:
        out.append("  (:init)")
    if problem.goal is not None:
        out.append(f"  (:goal {_conjunction(problem.goal)})")
    out.append(")")
    return "\n".join(out) + "\n"
