"""Totally ordered HDDL 1.0 subset: parser, printer, and grounder."""

from .ast import (
    ActionAst,
    DomainAst,
    Literal,
    MethodAst,
    PredicateDecl,
    ProblemAst,
    TaskDecl,
)
from .ground import GroundAction, GroundMethod, GroundTables, ground
from .parser import parse_domain, parse_problem
from .printer import print_domain, print_problem

__all__ = [
    "ActionAst",
    "DomainAst",
    "GroundAction",
    "GroundMethod",
    "GroundTables",
    "Literal",
    "MethodAst",
    "PredicateDecl",
    "ProblemAst",
    "TaskDecl",
    "ground",
    "parse_domain",
    "parse_problem",
    "print_domain",
    "print_problem",
]
