"""Parser for the totally ordered HDDL 1.0 subset.

Accepted requirements: :typing, :hierarchy, :method-preconditions,
:negative-preconditions. Partial-order and temporal constructs are
recognized only to be rejected with an explanation; every error carries
the line:column of the offending form. The keyed sections (:task,
:action, :method, :htn) are all read by _section_map, so each rejects a
repeated, unknown, temporal or partial-order key in the same way. Every
top-level section but :task, :action and :method may appear only once.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import HddlError
from .ast import (
    ActionAst,
    DomainAst,
    Literal,
    MethodAst,
    PredicateDecl,
    ProblemAst,
    TaskDecl,
    TaskRef,
)
from .sexpr import Node, SList, Symbol, read_all

KNOWN_REQUIREMENTS = (
    ":typing",
    ":hierarchy",
    ":method-preconditions",
    ":negative-preconditions",
)
_TEMPORAL = {":duration", ":durative-action", ":durative-actions", ":duration-constraints"}
_QUANTIFIERS = {"forall", "exists", "when"}
_PARTIAL_ORDER = {":subtasks", ":tasks", ":ordering", ":order"}


def _pos(node: Node) -> tuple[int, int]:
    return (node.line, node.col)


def _err(msg: str, node: Node) -> HddlError:
    return HddlError(msg, node.line, node.col)


def _want_list(node: Node, what: str) -> SList:
    if not isinstance(node, SList):
        raise _err(f"expected {what}, got symbol {node.text!r}", node)
    return node


def _want_symbol(node: Node, what: str) -> Symbol:
    if not isinstance(node, Symbol):
        raise _err(f"expected {what}, got a list", node)
    return node


def _head(form: SList) -> str:
    if not form.items or not isinstance(form.items[0], Symbol):
        raise _err("expected a keyword-headed list", form)
    return form.items[0].text


def _parse_typed_items(nodes: tuple, what: str) -> tuple[tuple[str, str], ...]:
    """Parse 'a b - t c - u' groups into ((a, t), (b, t), (c, u), ...);
    untyped items default to object."""
    out: list[tuple[str, str]] = []
    pending: list[Symbol] = []
    i = 0
    while i < len(nodes):
        sym = _want_symbol(nodes[i], f"{what} name")
        if sym.text == "-":
            if not pending:
                raise _err(f"dangling '-' with no {what} names before it", sym)
            if i + 1 >= len(nodes):
                raise _err("missing type name after '-'", sym)
            type_sym = _want_symbol(nodes[i + 1], "type name")
            out.extend((p.text, type_sym.text) for p in pending)
            pending = []
            i += 2
        else:
            pending.append(sym)
            i += 1
    out.extend((p.text, "object") for p in pending)
    return tuple(out)


def _check_temporal(sym: Symbol):
    if sym.text in _TEMPORAL:
        raise _err(
            f"{sym.text} is temporal HDDL, which is out of scope here"
            " (only untimed totally ordered models are supported)",
            sym,
        )


def _parse_literal(node: Node, allow_negation: bool) -> Literal:
    form = _want_list(node, "an atom")
    if not form.items:
        raise _err("empty atom", form)
    head = _want_symbol(form.items[0], "predicate name")
    if head.text in _QUANTIFIERS:
        raise _err(f"{head.text} formulas are not supported (conjunctions only)", head)
    if head.text == "not":
        if not allow_negation:
            raise _err("negation is not allowed here", head)
        if len(form.items) != 2:
            raise _err("'not' takes exactly one atom", form)
        inner = _parse_literal(form.items[1], allow_negation=False)
        return Literal(inner.predicate, inner.args, negated=True)
    args = tuple(_want_symbol(a, "atom argument").text for a in form.items[1:])
    return Literal(head.text, args)


def _conjuncts(node: Node, what: str) -> tuple[Node, ...]:
    """The items of a formula that is (), a single item, or (and item ...)."""
    form = _want_list(node, what)
    if not form.items:
        return ()
    head = form.items[0]
    if isinstance(head, Symbol) and head.text == "and":
        return form.items[1:]
    return (form,)


def _parse_conjunction(node: Node, what: str) -> tuple[Literal, ...]:
    return tuple(_parse_literal(n, allow_negation=True) for n in _conjuncts(node, what))


def _parse_task_atom(node: Node) -> TaskRef:
    form = _want_list(node, "a task atom")
    if not form.items:
        raise _err("empty task atom", form)
    head = _want_symbol(form.items[0], "task name")
    return (head.text,) + tuple(_want_symbol(a, "task argument").text for a in form.items[1:])


def _parse_ordered_subtasks(node: Node) -> tuple[TaskRef, ...]:
    return tuple(_parse_task_atom(n) for n in _conjuncts(node, "a subtask list"))


def _parse_parameters(node: Node) -> tuple[tuple[str, str], ...]:
    return _parse_typed_items(_want_list(node, "parameter list").items, "parameter")


def _parse_define(text: str, kind: str) -> tuple[SList, str]:
    """Read the single (define (KIND NAME) section ...) form of a file."""
    forms = read_all(text)
    if len(forms) != 1:
        raise HddlError(f"expected one (define ...) form, found {len(forms)}", 1, 1)
    form = _want_list(forms[0], "(define ...)")
    if _head(form) != "define":
        raise _err(f"expected 'define', got {_head(form)!r}", form)
    if len(form.items) < 2:
        raise _err(f"define is missing the ({kind} NAME) header", form)
    header = _want_list(form.items[1], f"({kind} NAME)")
    if len(header.items) != 2 or _head(header) != kind:
        raise _err(f"expected ({kind} NAME)", header)
    return form, _want_symbol(header.items[1], f"{kind} name").text


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

def parse_domain(text: str) -> DomainAst:
    form, name = _parse_define(text, "domain")
    requirements: tuple[str, ...] = ()
    types: tuple[tuple[str, str], ...] = ()
    predicates: list[PredicateDecl] = []
    tasks: list[TaskDecl] = []
    actions: list[ActionAst] = []
    methods: list[MethodAst] = []

    seen: set[str] = set()
    for section_node in form.items[2:]:
        section = _want_list(section_node, "a domain section")
        key = _head(section)
        if key in seen:
            raise _err(f"duplicate {key} section", section)
        if key not in (":task", ":action", ":method"):
            seen.add(key)
        if key == ":requirements":
            reqs = []
            for r in section.items[1:]:
                sym = _want_symbol(r, "a requirement")
                _check_temporal(sym)
                if sym.text not in KNOWN_REQUIREMENTS:
                    raise _err(
                        f"unknown requirement {sym.text} (supported:"
                        f" {', '.join(KNOWN_REQUIREMENTS)})",
                        sym,
                    )
                reqs.append(sym.text)
            requirements = tuple(reqs)
        elif key == ":types":
            types = _parse_typed_items(section.items[1:], "type")
        elif key == ":predicates":
            for p in section.items[1:]:
                decl = _want_list(p, "a predicate declaration")
                if not decl.items:
                    raise _err("empty predicate declaration", decl)
                pname = _want_symbol(decl.items[0], "predicate name")
                params = _parse_typed_items(decl.items[1:], "parameter")
                predicates.append(
                    PredicateDecl(pname.text, tuple(t for _, t in params), _pos(decl))
                )
        elif key == ":task":
            tasks.append(_parse_task_decl(section))
        elif key == ":action":
            actions.append(_parse_action(section))
        elif key == ":method":
            methods.append(_parse_method(section))
        else:
            _check_temporal(section.items[0])
            raise _err(f"unknown domain section {key}", section)

    domain = DomainAst(
        name=name,
        requirements=requirements,
        types=types,
        predicates=tuple(predicates),
        tasks=tuple(tasks),
        actions=tuple(actions),
        methods=tuple(methods),
        pos=_pos(form),
    )
    _validate_domain(domain)
    return domain


def _section_map(
    section: SList, owner: str, readers: dict[str, Callable[[Node], Any]], start: int = 1
) -> dict[str, Any]:
    """Read ':key value' pairs from a section body in source order, each
    value through the reader for its key; a key with no reader is an error."""
    out: dict[str, Any] = {}
    items = section.items
    for i in range(start, len(items), 2):
        key = _want_symbol(items[i], f"a keyword in {owner}")
        _check_temporal(key)
        if not key.text.startswith(":"):
            raise _err(f"expected a :keyword in {owner}, got {key.text!r}", key)
        if i + 1 >= len(items):
            raise _err(f"{key.text} is missing its value", key)
        if key.text in out:
            raise _err(f"duplicate {key.text} in {owner}", key)
        if key.text in _PARTIAL_ORDER:
            raise _err(
                f"{key.text} expresses a partially ordered network; only totally"
                " ordered networks (:ordered-subtasks) are supported",
                key,
            )
        if key.text not in readers:
            raise _err(f"unexpected {key.text} in {owner}", key)
        out[key.text] = readers[key.text](items[i + 1])
    return out


def _section_name(section: SList, kind: str) -> str:
    if len(section.items) < 2:
        raise _err(f":{kind} needs a name", section)
    return _want_symbol(section.items[1], f"{kind} name").text


def _parse_task_decl(section: SList) -> TaskDecl:
    name = _section_name(section, "task")
    fields = _section_map(section, f"task {name}", {":parameters": _parse_parameters}, start=2)
    return TaskDecl(name, fields.get(":parameters", ()), _pos(section))


def _parse_action(section: SList) -> ActionAst:
    name = _section_name(section, "action")
    readers = {
        ":parameters": _parse_parameters,
        ":precondition": lambda n: _parse_conjunction(n, "precondition"),
        ":effect": lambda n: _parse_conjunction(n, "effect"),
    }
    fields = _section_map(section, f"action {name}", readers, start=2)
    return ActionAst(
        name,
        fields.get(":parameters", ()),
        fields.get(":precondition", ()),
        fields.get(":effect", ()),
        _pos(section),
    )


def _parse_method(section: SList) -> MethodAst:
    name = _section_name(section, "method")
    readers = {
        ":parameters": _parse_parameters,
        ":task": _parse_task_atom,
        ":precondition": lambda n: _parse_conjunction(n, "method precondition"),
        ":ordered-subtasks": _parse_ordered_subtasks,
    }
    fields = _section_map(section, f"method {name}", readers, start=2)
    for key in (":task", ":ordered-subtasks"):
        if key not in fields:
            raise _err(f"method {name} has no {key}", section)
    return MethodAst(
        name,
        fields.get(":parameters", ()),
        fields[":task"],
        fields.get(":precondition", ()),
        fields[":ordered-subtasks"],
        _pos(section),
    )


def _validate_domain(domain: DomainAst):
    type_names = domain.type_names()
    for t, parent in domain.types:
        if parent != "object" and parent not in {x for x, _ in domain.types} | {"object"}:
            raise HddlError(f"type {t} has undeclared parent {parent}", *domain.pos)

    seen_preds: dict[str, PredicateDecl] = {}
    for p in domain.predicates:
        if p.name in seen_preds:
            raise HddlError(f"duplicate predicate {p.name}", *p.pos)
        seen_preds[p.name] = p
        for t in p.param_types:
            if t not in type_names:
                raise HddlError(f"predicate {p.name} uses undeclared type {t}", *p.pos)

    task_names: dict[str, TaskDecl] = {}
    for t in domain.tasks:
        if t.name in task_names:
            raise HddlError(f"duplicate task {t.name}", *t.pos)
        task_names[t.name] = t
        _check_params(domain, t.parameters, f"task {t.name}", t.pos, type_names)

    action_names: dict[str, ActionAst] = {}
    for a in domain.actions:
        if a.name in action_names:
            raise HddlError(f"duplicate action {a.name}", *a.pos)
        if a.name in task_names:
            raise HddlError(f"action {a.name} collides with a task name", *a.pos)
        action_names[a.name] = a
        _check_params(domain, a.parameters, f"action {a.name}", a.pos, type_names)
        scope = dict(a.parameters)
        for lit in a.precondition + a.effect:
            _check_literal(seen_preds, scope, lit, f"action {a.name}", a.pos)

    decls: dict[str, TaskDecl | ActionAst] = {**task_names, **action_names}
    method_names: set[str] = set()
    for m in domain.methods:
        owner = f"method {m.name}"
        if m.name in method_names:
            raise HddlError(f"duplicate method {m.name}", *m.pos)
        method_names.add(m.name)
        _check_params(domain, m.parameters, owner, m.pos, type_names)
        scope = dict(m.parameters)
        tname, *targs = m.task
        if tname not in task_names:
            raise HddlError(f"{owner} decomposes undeclared task {tname}", *m.pos)
        _check_args("task", tname, targs, len(decls[tname].parameters), scope, owner, m.pos)
        for lit in m.precondition:
            _check_literal(seen_preds, scope, lit, owner, m.pos)
        for name, *args in m.subtasks:
            if name not in decls:
                raise HddlError(f"{owner} references unknown task {name}", *m.pos)
            _check_args("task", name, args, len(decls[name].parameters), scope, owner, m.pos)


def _check_params(domain, params, owner, pos, type_names):
    seen = set()
    for var, t in params:
        if not var.startswith("?"):
            raise HddlError(f"{owner}: parameter {var} must start with '?'", *pos)
        if var in seen:
            raise HddlError(f"{owner}: duplicate parameter {var}", *pos)
        seen.add(var)
        if t not in type_names:
            raise HddlError(f"{owner}: parameter {var} has undeclared type {t}", *pos)


def _check_literal(predicates, scope, lit: Literal, owner: str, pos):
    if lit.predicate not in predicates:
        raise HddlError(f"{owner}: undeclared predicate {lit.predicate}", *pos)
    arity = len(predicates[lit.predicate].param_types)
    _check_args("predicate", lit.predicate, lit.args, arity, scope, owner, pos)


def _check_args(kind: str, name: str, args, arity: int, scope, owner: str, pos):
    """A schema's use of a predicate or task: the argument count matches
    and every argument is a variable the schema binds."""
    if len(args) != arity:
        raise HddlError(
            f"{owner}: {kind} {name} takes {arity} arguments, got {len(args)}", *pos
        )
    for arg in args:
        if not arg.startswith("?"):
            raise HddlError(f"{owner}: constants are not supported, got {arg}", *pos)
        if arg not in scope:
            raise HddlError(f"{owner}: unbound variable {arg}", *pos)


# ---------------------------------------------------------------------------
# Problem
# ---------------------------------------------------------------------------

def parse_problem(text: str, domain: DomainAst) -> ProblemAst:
    form, name = _parse_define(text, "problem")
    domain_name: str | None = None
    objects: tuple[tuple[str, str], ...] = ()
    init: list[tuple[str, ...]] = []
    htn: tuple[TaskRef, ...] | None = None
    goal: tuple[Literal, ...] | None = None

    seen: set[str] = set()
    for section_node in form.items[2:]:
        section = _want_list(section_node, "a problem section")
        key = _head(section)
        if key in seen:
            raise _err(f"duplicate {key} section", section)
        seen.add(key)
        if key in (":domain", ":goal") and len(section.items) < 2:
            raise _err(f"{key} section is missing its value", section)
        if key == ":domain":
            sym = _want_symbol(section.items[1], "domain name")
            if sym.text != domain.name:
                raise _err(
                    f"problem requires domain {sym.text} but {domain.name} was loaded",
                    sym,
                )
            domain_name = sym.text
        elif key == ":objects":
            objects = _parse_typed_items(section.items[1:], "object")
            for obj, t in objects:
                if t not in domain.type_names():
                    raise _err(f"object {obj} has undeclared type {t}", section)
        elif key == ":htn":
            htn = _parse_htn(section)
        elif key == ":init":
            for atom_node in section.items[1:]:
                lit = _parse_literal(atom_node, allow_negation=False)
                init.append((lit.predicate,) + lit.args)
        elif key == ":goal":
            goal = _parse_conjunction(section.items[1], "goal")
        else:
            _check_temporal(section.items[0])
            raise _err(f"unknown problem section {key}", section)

    if domain_name is None:
        raise _err("problem has no (:domain ...) section", form)
    if htn is None:
        raise _err("problem has no (:htn ...) section", form)

    problem = ProblemAst(
        name=name,
        domain_name=domain_name,
        objects=objects,
        init=tuple(init),
        htn=htn,
        goal=goal,
        pos=_pos(form),
    )
    _validate_problem(domain, problem, form)
    return problem


def _no_parameters(node: Node) -> None:
    if _want_list(node, "parameter list").items:
        raise _err("nonempty :htn parameters are not supported", node)


def _parse_htn(section: SList) -> tuple[TaskRef, ...]:
    readers = {":parameters": _no_parameters, ":ordered-subtasks": _parse_ordered_subtasks}
    fields = _section_map(section, ":htn", readers)
    if ":ordered-subtasks" not in fields:
        raise _err(":htn has no :ordered-subtasks", section)
    return fields[":ordered-subtasks"]


def _validate_problem(domain: DomainAst, problem: ProblemAst, form: SList):
    obj_types = dict(problem.objects)
    if len(obj_types) != len(problem.objects):
        raise _err("duplicate object name", form)

    def check_args(what: str, name: str, args, arity: int):
        if len(args) != arity:
            raise _err(f"{what} {name} takes {arity} arguments, got {len(args)}", form)
        for arg in args:
            if arg not in obj_types:
                raise _err(f"{what} {name} references unknown object {arg}", form)

    preds = {p.name: p.param_types for p in domain.predicates}
    for pred, *args in problem.init:
        if pred not in preds:
            raise _err(f"init uses undeclared predicate {pred}", form)
        check_args("init atom", pred, args, len(preds[pred]))
        for arg, want in zip(args, preds[pred]):
            if not domain.is_subtype(obj_types[arg], want):
                raise _err(
                    f"init atom {pred}: object {arg} has type {obj_types[arg]},"
                    f" expected {want}",
                    form,
                )
    arities = {d.name: len(d.parameters) for d in domain.tasks + domain.actions}
    for tname, *targs in problem.htn:
        if tname not in arities:
            raise _err(f":htn references unknown task {tname}", form)
        check_args(":htn task", tname, targs, arities[tname])
    for lit in problem.goal or ():
        if lit.predicate not in preds:
            raise _err(f"goal uses undeclared predicate {lit.predicate}", form)
        check_args("goal atom", lit.predicate, lit.args, len(preds[lit.predicate]))
