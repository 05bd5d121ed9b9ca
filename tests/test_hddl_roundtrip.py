"""Property: printing a parsed domain or problem and parsing it again gives
an equal AST, and printing that AST again gives the same text."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from uuvnav.hddl import (
    ActionAst,
    DomainAst,
    Literal,
    MethodAst,
    PredicateDecl,
    ProblemAst,
    TaskDecl,
    parse_domain,
    parse_problem,
    print_domain,
    print_problem,
)
from uuvnav.hddl.parser import KNOWN_REQUIREMENTS

# Derandomized, so every run checks the same examples; 80 of each take
# about a second.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _literals(draw, predicates, args_pool):
    """Up to three literals, some negated, whose arguments come from args_pool."""
    usable = [p for p in predicates if args_pool or not p.param_types]
    if not usable:
        return ()
    out = []
    for _ in range(draw(st.integers(0, 3))):
        pred = draw(st.sampled_from(usable))
        args = tuple(draw(st.sampled_from(args_pool)) for _ in pred.param_types)
        out.append(Literal(pred.name, args, negated=draw(st.booleans())))
    return tuple(out)


def _refs(draw, decls, args_pool, min_size, max_size):
    """Task references to decls with arguments from args_pool; none if no
    decl can take its arguments from the pool."""
    usable = [d for d in decls if args_pool or not d.parameters]
    if not usable:
        return ()
    out = []
    for _ in range(draw(st.integers(min_size, max_size))):
        decl = draw(st.sampled_from(usable))
        out.append((decl.name,) + tuple(draw(st.sampled_from(args_pool)) for _ in decl.parameters))
    return tuple(out)


@st.composite
def domains(draw):
    types: list[tuple[str, str]] = []
    for i in range(draw(st.integers(0, 3))):
        types.append((f"ty{i}", draw(st.sampled_from(["object"] + [t for t, _ in types]))))
    type_pool = ["object"] + [t for t, _ in types]

    def params():
        kinds = draw(st.lists(st.sampled_from(type_pool), max_size=3))
        return tuple((f"?v{i}", t) for i, t in enumerate(kinds))

    predicates = tuple(
        PredicateDecl(f"p{i}", tuple(draw(st.lists(st.sampled_from(type_pool), max_size=3))))
        for i in range(draw(st.integers(0, 4)))
    )
    tasks = tuple(TaskDecl(f"t{i}", params()) for i in range(draw(st.integers(0, 3))))
    actions = []
    for i in range(draw(st.integers(0, 3))):
        ps = params()
        variables = [v for v, _ in ps]
        actions.append(
            ActionAst(
                f"a{i}",
                ps,
                _literals(draw, predicates, variables),
                _literals(draw, predicates, variables),
            )
        )
    methods = []
    for i in range(draw(st.integers(0, 3))):
        ps = params()
        variables = [v for v, _ in ps]
        task = _refs(draw, tasks, variables, min_size=1, max_size=1)
        if not task:
            continue
        methods.append(
            MethodAst(
                f"m{i}",
                ps,
                task[0],
                _literals(draw, predicates, variables),
                _refs(draw, tasks + tuple(actions), variables, min_size=0, max_size=3),
            )
        )
    return DomainAst(
        name="generated",
        requirements=tuple(r for r in KNOWN_REQUIREMENTS if draw(st.booleans())),
        types=tuple(types),
        predicates=predicates,
        tasks=tasks,
        actions=tuple(actions),
        methods=tuple(methods),
    )


@st.composite
def problems(draw):
    domain = draw(domains())
    type_pool = sorted(domain.type_names())
    objects = tuple(
        (f"o{i}", draw(st.sampled_from(type_pool))) for i in range(draw(st.integers(0, 4)))
    )

    def uses(decls, max_size):
        """Up to max_size uses of decls, given as (name, param types), each
        argument an object of its parameter's type; a use that some type
        has no object for is left out."""
        out = []
        for _ in range(draw(st.integers(0, max_size)) if decls else 0):
            name, want = draw(st.sampled_from(decls))
            pools = [[o for o, t in objects if domain.is_subtype(t, w)] for w in want]
            if all(pools):
                out.append((name,) + tuple(draw(st.sampled_from(pool)) for pool in pools))
        return out

    predicates = [(p.name, p.param_types) for p in domain.predicates]
    init = uses(predicates, 4)
    tasks = [(d.name, [t for _, t in d.parameters]) for d in domain.tasks + domain.actions]
    refs = tuple(uses(tasks, 3))
    goal = None
    if draw(st.booleans()):
        goal = tuple(Literal(u[0], u[1:], draw(st.booleans())) for u in uses(predicates, 3))
    problem = ProblemAst(
        name="generated-1",
        domain_name=domain.name,
        objects=objects,
        init=tuple(init),
        htn=refs,
        goal=goal,
    )
    return domain, problem


@PROPERTY
@given(domains())
def test_printed_domain_parses_to_the_same_ast(domain):
    text = print_domain(domain)
    parsed = parse_domain(text)
    assert parsed == domain
    assert print_domain(parsed) == text


@PROPERTY
@given(problems())
def test_printed_problem_parses_to_the_same_ast(domain_and_problem):
    domain, problem = domain_and_problem
    text = print_problem(problem)
    parsed = parse_problem(text, parse_domain(print_domain(domain)))
    assert parsed == problem
    assert print_problem(parsed) == text
