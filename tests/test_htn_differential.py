"""Differential properties: the planner, its text view and the validator's
derivation search agree with the reference implementations kept below,
and every tree the planner finds matches its task network.

The references are the earlier forms of the same code: a planner that
logged a trace and rebuilt the tree by replaying it, a recursive text
walk, a derivation search with list frames and an index per frame, a
grounder that enumerated each parameter's declared-type objects and then
dropped the ill-typed bindings, and an HDDL reader that tokenized one
character at a time. They are test-only; the package does not import
them.
"""

import importlib
import itertools
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from uuvnav.errors import HddlError, PlanNotFound
from uuvnav.hddl.ast import (
    ActionAst,
    DomainAst,
    Literal,
    MethodAst,
    PredicateDecl,
    ProblemAst,
    TaskDecl,
)
from uuvnav.hddl.ground import GroundAction, GroundMethod, _split_literals, ground
from uuvnav.hddl.parser import parse_domain, parse_problem
from uuvnav.hddl.sexpr import SList, Symbol, read_all
from uuvnav.htn.planner import (
    DEFAULT_DECOMPOSITION_BUDGET,
    Plan,
    PlanStats,
    format_plan_text,
    goal_satisfied,
    plan,
)
from uuvnav.htn.validate import validate

import test_hddl_roundtrip
import test_htn_properties
from test_htn import RECURSIVE_DOMAIN
from test_htn_properties import ALTERNATIVES, PROPERTY

REPO = Path(__file__).resolve().parent.parent
# the package binds the name validate to the function, so the module is
# reached through the import system
validate_module = importlib.import_module("uuvnav.htn.validate")

# About half the examples take the default budget; small budgets run out.
BUDGETS = st.one_of(st.just(DEFAULT_DECOMPOSITION_BUDGET), st.integers(0, 8))


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------

@dataclass
class _Choice:
    methods: tuple
    next_index: int
    state: frozenset
    agenda: list
    trace_len: int


def reference_plan(tables, s0, w0, goal=None, max_decompositions=DEFAULT_DECOMPOSITION_BUDGET):
    """Search with a trace of applied actions and methods, then rebuild the
    tree by replaying the trace."""
    state = frozenset(s0)
    agenda = list(w0)
    trace = []
    stack = []
    nodes_expanded = 0
    decompositions = 0

    def try_next(choice):
        nonlocal decompositions, nodes_expanded, state, agenda
        i = choice.next_index
        while i < len(choice.methods):
            m = choice.methods[i]
            i += 1
            if m.applicable(choice.state):
                choice.next_index = i
                decompositions += 1
                nodes_expanded += 1
                if decompositions > max_decompositions:
                    raise PlanNotFound(
                        f"decomposition budget of {max_decompositions} exceeded"
                    )
                state = choice.state
                agenda = list(m.subtasks) + choice.agenda[1:]
                del trace[choice.trace_len :]
                trace.append(("method", m))
                return True
        choice.next_index = i
        return False

    while True:
        failed = False
        while agenda and tables.is_primitive(agenda[0]):
            action = tables.actions.get(agenda[0])
            if action is None or not action.applicable(state):
                failed = True
                break
            nodes_expanded += 1
            state = action.apply(state)
            trace.append(("action", action))
            agenda.pop(0)
        if not failed and not agenda:
            if goal_satisfied(goal, state):
                steps, nodes = reference_build_tree(trace)
                return Plan(
                    steps=steps, nodes=nodes, stats=PlanStats(nodes_expanded, decompositions)
                )
            failed = True
        if not failed:
            choice = _Choice(
                methods=tables.methods.get(agenda[0], ()),
                next_index=0,
                state=state,
                agenda=list(agenda),
                trace_len=len(trace),
            )
            stack.append(choice)
            failed = not try_next(choice)
        if failed:
            while stack:
                if try_next(stack[-1]):
                    break
                stack.pop()
            else:
                raise PlanNotFound("search space exhausted without a plan")


def reference_build_tree(trace):
    """One pass over the preorder trace with a stack of the methods still
    awaiting children, each with its node id and its count of subtasks not
    yet placed. Returns the steps and the (payload, parent id) nodes."""
    steps = []
    nodes = []
    awaiting = []
    for kind, payload in trace:
        parent = None
        if awaiting:
            top = awaiting[-1]
            parent = top[0]
            top[1] -= 1
            if top[1] == 0:
                awaiting.pop()
        if kind == "action":
            steps.append(payload)
        elif payload.subtasks:
            awaiting.append([len(nodes), len(payload.subtasks)])
        nodes.append((payload, parent))
    return tuple(steps), tuple(nodes)


def reference_format_plan_text(p):
    """The recursive walk from each root, numbering steps as it meets them."""
    lines = [f"plan: {len(p.steps)} step(s)"]
    children = [[] for _ in p.nodes]
    roots = []
    for node_id, (_, parent) in enumerate(p.nodes):
        (roots if parent is None else children[parent]).append(node_id)
    step = 0

    def walk(node_id, depth):
        nonlocal step
        payload = p.nodes[node_id][0]
        label = " ".join(payload.task)
        pad = "  " * depth
        if isinstance(payload, GroundAction):
            step += 1
            lines.append(f"{pad}{step}. {label}")
        else:
            lines.append(f"{pad}{label}  [{payload.name}]")
            for c in children[node_id]:
                walk(c, depth + 1)

    for r in roots:
        walk(r, 1)
    return "\n".join(lines) + "\n"


def reference_derive(tables, s0, w0, steps, max_decompositions):
    """Derivation search with [methods, next index, state, agenda, matched]
    frames and a backtracking closure."""
    state = frozenset(s0)
    agenda = list(w0)
    stack = []
    matched = 0
    best = 0
    decompositions = 0

    def backtrack():
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
            failed = True
        if not failed:
            decompositions += 1
            if decompositions > max_decompositions:
                return None, best
            stack.append([tables.methods.get(agenda[0], ()), 0, state, list(agenda), matched])
            failed = not backtrack()
        if failed and not backtrack():
            return False, best


def reference_validate(*args, **kwargs):
    """validate with the reference derivation search in place of _derive."""
    with mock.patch.object(validate_module, "_derive", reference_derive):
        return validate(*args, **kwargs)


def reference_is_subtype(domain, t, ancestor):
    """Walk t's parents, rebuilding the parent table on each call."""
    if ancestor == "object":
        return True
    parents = dict(domain.types)
    seen = set()
    while t not in seen:
        if t == ancestor:
            return True
        seen.add(t)
        t = parents.get(t, "object")
    return False


def reference_ground(domain, problem):
    """Enumerate every binding over each parameter's declared-type objects,
    keep the bindings whose atoms are well typed, and build the same
    instances from them. Returns (actions, methods, bindings kept)."""
    names = {"object"} | {t for pair in domain.types for t in pair}
    by_type = {
        t: [o for o, ot in problem.objects if reference_is_subtype(domain, ot, t)] for t in names
    }
    obj_types = dict(problem.objects)
    slot_types = {p.name: p.param_types for p in domain.predicates}

    def well_typed(lits, binding):
        return all(
            reference_is_subtype(domain, obj_types[binding[arg]], want)
            for lit in lits
            for arg, want in zip(lit.args, slot_types[lit.predicate])
        )

    def bindings(params):
        pools = [by_type.get(t, []) for _, t in params]
        for combo in itertools.product(*pools):
            yield dict(zip([v for v, _ in params], combo))

    kept = 0
    actions = {}
    for schema in domain.actions:
        for binding in bindings(schema.parameters):
            if not well_typed(schema.precondition + schema.effect, binding):
                continue
            kept += 1
            args = tuple(binding[v] for v, _ in schema.parameters)
            pos_pre, neg_pre = _split_literals(schema.precondition, binding)
            adds, dels = _split_literals(schema.effect, binding)
            action = GroundAction(schema.name, args, pos_pre, neg_pre, adds, dels)
            actions[action.task] = action
    methods = {}
    for schema in domain.methods:
        for binding in bindings(schema.parameters):
            if not well_typed(schema.precondition, binding):
                continue
            kept += 1
            task = (schema.task[0],) + tuple(binding[a] for a in schema.task[1:])
            pos_pre, neg_pre = _split_literals(schema.precondition, binding)
            subtasks = tuple((r[0],) + tuple(binding[a] for a in r[1:]) for r in schema.subtasks)
            method = GroundMethod(schema.name, task, pos_pre, neg_pre, subtasks)
            methods.setdefault(task, []).append(method)
    return actions, {task: tuple(ms) for task, ms in methods.items()}, kept


def reference_tokenize(text: str):
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, ch, line, col)
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and text[i] not in " \t\r\n;()":
                i += 1
                col += 1
            yield ("sym", text[start:i].lower(), line, start_col)


def reference_read_all(text: str):
    """Tokenize one character at a time into (kind, value, line, col)
    tuples, then build the forms from the token list."""
    toks = list(reference_tokenize(text))
    forms = []
    stack = []
    for kind, value, line, col in toks:
        if kind == "(":
            stack.append(([], line, col))
        elif kind == ")":
            if not stack:
                raise HddlError("unmatched ')'", line, col)
            items, oline, ocol = stack.pop()
            node = SList(tuple(items), oline, ocol)
            if stack:
                stack[-1][0].append(node)
            else:
                forms.append(node)
        else:
            sym = Symbol(value, line, col)
            if stack:
                stack[-1][0].append(sym)
            else:
                forms.append(sym)
    if stack:
        _, line, col = stack[-1]
        raise HddlError("unclosed '('", line, col)
    return forms


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def outcome(search, *args, **kwargs):
    """The plan a search finds, or the reason it gives for finding none."""
    try:
        return search(*args, **kwargs)
    except PlanNotFound as exc:
        return exc.reason


def mutants(steps, tables):
    """Every sequence one deletion, one insertion, one substitution or one
    swap of two steps away from steps."""
    steps = tuple(steps)
    out = set()
    for i in range(len(steps) + 1):
        for task in tables.actions:
            out.add(steps[:i] + (task,) + steps[i:])
            if i < len(steps):
                out.add(steps[:i] + (task,) + steps[i + 1 :])
        if i < len(steps):
            out.add(steps[:i] + steps[i + 1 :])
        for j in range(i + 1, len(steps)):
            swapped = list(steps)
            swapped[i], swapped[j] = steps[j], steps[i]
            out.add(tuple(swapped))
    out.discard(steps)
    return sorted(out)


def check_tree_against_network(found, w0):
    """The roots carry the network's tasks in order, each method node's
    children carry its method's subtasks in order, actions have no
    children, and the action nodes in preorder are the plan's steps."""
    roots = []
    child_tasks = [[] for _ in found.nodes]
    for node_id, (payload, parent) in enumerate(found.nodes):
        assert parent is None or parent < node_id
        (roots if parent is None else child_tasks[parent]).append(payload.task)
    assert roots == [tuple(task) for task in w0]
    for (payload, _), tasks in zip(found.nodes, child_tasks):
        want = list(payload.subtasks) if isinstance(payload, GroundMethod) else []
        assert tasks == want, payload
    assert tuple(p for p, _ in found.nodes if isinstance(p, GroundAction)) == found.steps


def check_plan_and_validate(tables, s0, w0, goal, budget):
    got = outcome(plan, tables, s0, w0, goal, max_decompositions=budget)
    want = outcome(reference_plan, tables, s0, w0, goal, max_decompositions=budget)
    assert got == want
    if isinstance(got, str):
        return got
    check_tree_against_network(got, w0)
    assert format_plan_text(got) == reference_format_plan_text(want)
    steps = tuple(action.task for action in got.steps)
    for candidate in [steps] + mutants(steps, tables):
        assert validate(tables, s0, w0, candidate, goal, budget) == reference_validate(
            tables, s0, w0, candidate, goal, budget
        ), candidate
    # the derivation's own budget, from none to just past what it needs
    for small in range(min(budget, got.stats.decompositions + 2)):
        assert validate(tables, s0, w0, steps, goal, small) == reference_validate(
            tables, s0, w0, steps, goal, small
        ), small
    return got


@st.composite
def layered_problems(draw):
    """Parameterless domains whose tasks t0, t1, t2 each have two or three
    methods, each of one or two actions and the next task in some order,
    and a goal on the final state, so the search often backtracks to a
    later method of a task before it finds a plan."""
    props = ["p0", "p1", "p2"]

    def literals(min_size, max_size):
        literal = st.builds(Literal, st.sampled_from(props), st.just(()), st.booleans())
        return tuple(draw(st.lists(literal, min_size=min_size, max_size=max_size)))

    tasks = ["t0", "t1", "t2"]
    actions = tuple(ActionAst(f"a{i}", (), literals(0, 1), literals(1, 2)) for i in range(3))
    methods = []
    for i, task in enumerate(tasks):
        for j in range(draw(st.integers(2, 3))):
            subtasks = draw(st.lists(st.sampled_from(["a0", "a1", "a2"]), min_size=1, max_size=2))
            subtasks = draw(st.permutations(subtasks + tasks[i + 1 : i + 2]))
            refs = tuple((name,) for name in subtasks)
            methods.append(MethodAst(f"m{i}-{j}", (), (task,), literals(0, 1), refs))
    domain = DomainAst(
        name="layered",
        requirements=(),
        types=(),
        predicates=tuple(PredicateDecl(p, ()) for p in props),
        tasks=tuple(TaskDecl(t, ()) for t in tasks),
        actions=actions,
        methods=tuple(methods),
    )
    problem = ProblemAst(
        name="layered-1",
        domain_name="layered",
        objects=(),
        init=tuple((p,) for p in props if draw(st.booleans())),
        htn=(("t0",),),
        goal=literals(0, 1),
    )
    return domain, problem


@PROPERTY
@given(test_hddl_roundtrip.problems(), BUDGETS)
def test_generated_domains_plan_and_validate_as_the_reference(domain_and_problem, budget):
    domain, problem = domain_and_problem
    tables = ground(domain, problem)
    check_plan_and_validate(tables, frozenset(problem.init), problem.htn, problem.goal, budget)


@PROPERTY
@given(layered_problems(), BUDGETS)
def test_layered_domains_plan_and_validate_as_the_reference(domain_and_problem, budget):
    domain, problem = domain_and_problem
    tables = ground(domain, problem)
    check_plan_and_validate(tables, frozenset(problem.init), problem.htn, problem.goal, budget)


@PROPERTY
@given(test_htn_properties.problems(alternatives=True), BUDGETS)
def test_bundled_domain_plans_and_validates_as_the_reference(problem, budget):
    tables = ground(ALTERNATIVES, problem)
    check_plan_and_validate(tables, frozenset(problem.init), problem.htn, None, budget)


@pytest.mark.parametrize("budget", [0, 1, 2, 7, 50])
def test_recursive_domain_runs_out_of_budget_as_the_reference(budget):
    domain = parse_domain(RECURSIVE_DOMAIN)
    problem = parse_problem(
        "(define (problem loop-1) (:domain loopy) (:objects t1 - thing)"
        " (:htn :ordered-subtasks (and (spin t1))) (:init))",
        domain,
    )
    tables = ground(domain, problem)
    reason = check_plan_and_validate(tables, frozenset(problem.init), problem.htn, None, budget)
    assert reason == f"decomposition budget of {budget} exceeded"


@pytest.mark.parametrize(
    "problem_path", sorted((REPO / "scenarios" / "problems").glob("*.hddl")), ids=lambda p: p.stem
)
def test_bundled_problems_plan_and_validate_as_the_reference(problem_path):
    domain = parse_domain((REPO / "domains" / "uuv-nav.hddl").read_text())
    problem = parse_problem(problem_path.read_text(), domain)
    tables = ground(domain, problem)
    found = check_plan_and_validate(
        tables, frozenset(problem.init), problem.htn, problem.goal, DEFAULT_DECOMPOSITION_BUDGET
    )
    assert isinstance(found, Plan)


def check_ground(domain, problem):
    tables = ground(domain, problem)
    actions, methods, kept = reference_ground(domain, problem)
    assert list(tables.actions.items()) == list(actions.items())
    assert list(tables.methods.items()) == list(methods.items())
    assert tables.instance_count == kept


@PROPERTY
@given(test_hddl_roundtrip.problems())
def test_generated_domains_ground_as_the_reference(domain_and_problem):
    # the generated schemas often put a variable in a slot narrower than
    # its declared type, so the reference drops bindings here
    check_ground(*domain_and_problem)


@pytest.mark.parametrize(
    "problem_path", sorted((REPO / "scenarios" / "problems").glob("*.hddl")), ids=lambda p: p.stem
)
def test_bundled_problems_ground_as_the_reference(problem_path):
    domain = parse_domain((REPO / "domains" / "uuv-nav.hddl").read_text())
    check_ground(domain, parse_problem(problem_path.read_text(), domain))


def read_outcome(reader, text):
    """The forms' repr, positions included, or the error's message and position."""
    try:
        return repr(reader(text))
    except HddlError as exc:
        return (str(exc), exc.line, exc.col)


# the characters the reader treats apart, letters of both cases and a
# non-ASCII letter; form feed and vertical tab are symbol characters
HDDL_TEXT = st.text(st.sampled_from(list("() ;\t\r\n\f\vaBxY?-\u00e9")), max_size=60)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(HDDL_TEXT)
def test_reader_matches_the_reference(text):
    assert read_outcome(read_all, text) == read_outcome(reference_read_all, text)


@pytest.mark.parametrize(
    "path",
    sorted((REPO / "domains").rglob("*.hddl")) + sorted((REPO / "scenarios").rglob("*.hddl")),
    ids=lambda p: str(p.relative_to(REPO)),
)
def test_bundled_hddl_reads_as_the_reference(path):
    text = path.read_text()
    assert read_outcome(read_all, text) == read_outcome(reference_read_all, text)
