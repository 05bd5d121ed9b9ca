"""Parser for the totally ordered HDDL 1.0 subset.

Accepted requirements: :typing, :hierarchy, :method-preconditions,
:negative-preconditions. Partial-order and temporal constructs are
recognized only to be rejected with an explanation.

Each file is read in one pass. _sections groups the (define ...) body
by keyword, in source order, and rejects an unknown, temporal or
repeated once-only section there. The groups are then read in
dependency order: a domain's :requirements, :types, :predicates, :task,
:action and :method; a problem's :domain, :objects, :htn, :init and
:goal. Each form is checked against the declarations read before it,
so every error carries the line:column of the form that is at fault.
The keyed sections (:task, :action, :method, :htn) are all split by
_fields, so each rejects a repeated, unknown, temporal or partial-order
key in the same way.
"""

from __future__ import annotations

from typing import Callable

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

# check(atom form, name, args) raises at the form if the use is wrong
Check = Callable[[SList, str, tuple[str, ...]], None]


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


def _parse_typed_items(
    nodes: tuple,
    what: str,
    types: set[str] | None = None,
    undeclared: Callable[[str, str], str] | None = None,
) -> list[tuple[Symbol, str]]:
    """Parse 'a b - t c - u' groups into [(a, t), (b, t), (c, u), ...],
    each item as its symbol; untyped items default to object. A type not
    in types is an error at the type's name, worded by
    undeclared(first item, type)."""
    out: list[tuple[Symbol, str]] = []
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
            if types is not None and type_sym.text not in types:
                raise _err(undeclared(pending[0].text, type_sym.text), type_sym)
            out.extend((p, type_sym.text) for p in pending)
            pending = []
            i += 2
        else:
            pending.append(sym)
            i += 1
    out.extend((p, "object") for p in pending)
    return out


def _check_temporal(sym: Symbol):
    if sym.text in _TEMPORAL:
        raise _err(
            f"{sym.text} is temporal HDDL, which is out of scope here"
            " (only untimed totally ordered models are supported)",
            sym,
        )


def _parse_literal(node: Node, allow_negation: bool, check: Check) -> Literal:
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
        inner = _parse_literal(form.items[1], False, check)
        return Literal(inner.predicate, inner.args, negated=True)
    args = tuple(_want_symbol(a, "atom argument").text for a in form.items[1:])
    check(form, head.text, args)
    return Literal(head.text, args)


def _conjuncts(node: Node | None, what: str) -> tuple[Node, ...]:
    """The items of a formula that is absent, (), a single item, or
    (and item ...)."""
    if node is None:
        return ()
    form = _want_list(node, what)
    if not form.items:
        return ()
    head = form.items[0]
    if isinstance(head, Symbol) and head.text == "and":
        return form.items[1:]
    return (form,)


def _parse_conjunction(node: Node | None, what: str, check: Check) -> tuple[Literal, ...]:
    return tuple(_parse_literal(n, True, check) for n in _conjuncts(node, what))


def _parse_task_atom(node: Node, check: Check) -> TaskRef:
    form = _want_list(node, "a task atom")
    if not form.items:
        raise _err("empty task atom", form)
    head = _want_symbol(form.items[0], "task name")
    args = tuple(_want_symbol(a, "task argument").text for a in form.items[1:])
    check(form, head.text, args)
    return (head.text,) + args


def _parse_ordered_subtasks(node: Node, check: Check) -> tuple[TaskRef, ...]:
    return tuple(_parse_task_atom(n, check) for n in _conjuncts(node, "a subtask list"))


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


def _sections(
    form: SList, kind: str, once: tuple[str, ...], many: tuple[str, ...] = ()
) -> dict[str, list[SList]]:
    """The sections of a (define ...) body grouped by keyword, each group
    in source order. An unknown or temporal section, or a second copy of a
    section in once, is an error at that section."""
    groups: dict[str, list[SList]] = {key: [] for key in once + many}
    for node in form.items[2:]:
        section = _want_list(node, f"a {kind} section")
        key = _head(section)
        if key not in groups:
            _check_temporal(section.items[0])
            raise _err(f"unknown {kind} section {key}", section)
        if key in once and groups[key]:
            raise _err(f"duplicate {key} section", section)
        groups[key].append(section)
    return groups


def _fields(section: SList, owner: str, keys: tuple[str, ...], start: int = 1) -> dict[str, Node]:
    """The ':key value' pairs of a section body, each value's node by its
    key; a key not in keys is an error."""
    out: dict[str, Node] = {}
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
        if key.text not in keys:
            raise _err(f"unexpected {key.text} in {owner}", key)
        out[key.text] = items[i + 1]
    return out


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

def parse_domain(text: str) -> DomainAst:
    form, name = _parse_define(text, "domain")
    groups = _sections(
        form, "domain", (":requirements", ":types", ":predicates"), (":task", ":action", ":method")
    )
    requirements = tuple(_requirement(r) for s in groups[":requirements"] for r in s.items[1:])

    types: tuple[tuple[str, str], ...] = ()
    for section in groups[":types"]:
        items = _parse_typed_items(section.items[1:], "type")
        declared = {"object"} | {sym.text for sym, _ in items}
        for sym, parent in items:
            if parent not in declared:
                raise _err(f"type {sym.text} has undeclared parent {parent}", sym)
        types = tuple((sym.text, parent) for sym, parent in items)
    type_names = {"object"} | {t for t, _ in types}

    predicates: dict[str, PredicateDecl] = {}
    for section in groups[":predicates"]:
        for node in section.items[1:]:
            decl = _want_list(node, "a predicate declaration")
            if not decl.items:
                raise _err("empty predicate declaration", decl)
            pname = _want_symbol(decl.items[0], "predicate name").text
            if pname in predicates:
                raise _err(f"duplicate predicate {pname}", decl)
            params = _parse_typed_items(
                decl.items[1:],
                "parameter",
                type_names,
                lambda _, t: f"predicate {pname} uses undeclared type {t}",
            )
            predicates[pname] = PredicateDecl(pname, tuple(t for _, t in params))
    pred_arities = {p: len(d.param_types) for p, d in predicates.items()}

    tasks: dict[str, TaskDecl] = {}
    for section in groups[":task"]:
        tname, _, _, params = _schema(section, "task", (), type_names, tasks)
        tasks[tname] = TaskDecl(tname, params)

    actions: dict[str, ActionAst] = {}
    for section in groups[":action"]:
        aname, owner, fields, params = _schema(
            section, "action", (":precondition", ":effect"), type_names, actions
        )
        if aname in tasks:
            raise _err(f"action {aname} collides with a task name", section)
        undeclared = f"{owner}: undeclared predicate"
        check = _variables_check(pred_arities, dict(params), owner, "predicate", undeclared)
        actions[aname] = ActionAst(
            aname,
            params,
            _parse_conjunction(fields.get(":precondition"), "precondition", check),
            _parse_conjunction(fields.get(":effect"), "effect", check),
        )

    task_arities = {t.name: len(t.parameters) for t in tasks.values()}
    decl_arities = {**task_arities, **{a.name: len(a.parameters) for a in actions.values()}}
    methods: dict[str, MethodAst] = {}
    for section in groups[":method"]:
        mname, owner, fields, params = _schema(
            section, "method", (":task", ":precondition", ":ordered-subtasks"), type_names, methods
        )
        for key in (":task", ":ordered-subtasks"):
            if key not in fields:
                raise _err(f"{owner} has no {key}", section)
        scope = dict(params)
        undeclared = f"{owner}: undeclared predicate"
        pre = _variables_check(pred_arities, scope, owner, "predicate", undeclared)
        undeclared = f"{owner} decomposes undeclared task"
        head = _variables_check(task_arities, scope, owner, "task", undeclared)
        undeclared = f"{owner} references unknown task"
        sub = _variables_check(decl_arities, scope, owner, "task", undeclared)
        methods[mname] = MethodAst(
            mname,
            params,
            _parse_task_atom(fields[":task"], head),
            _parse_conjunction(fields.get(":precondition"), "method precondition", pre),
            _parse_ordered_subtasks(fields[":ordered-subtasks"], sub),
        )

    return DomainAst(
        name=name,
        requirements=requirements,
        types=types,
        predicates=tuple(predicates.values()),
        tasks=tuple(tasks.values()),
        actions=tuple(actions.values()),
        methods=tuple(methods.values()),
    )


def _requirement(node: Node) -> str:
    sym = _want_symbol(node, "a requirement")
    _check_temporal(sym)
    if sym.text not in KNOWN_REQUIREMENTS:
        raise _err(
            f"unknown requirement {sym.text} (supported: {', '.join(KNOWN_REQUIREMENTS)})", sym
        )
    return sym.text


def _schema(section: SList, kind: str, keys: tuple[str, ...], types: set[str], seen: dict):
    """A :task, :action or :method section's name, its owner string for
    messages, its ':key value' fields and its checked parameters. A name
    already in seen is an error."""
    if len(section.items) < 2:
        raise _err(f":{kind} needs a name", section)
    name = _want_symbol(section.items[1], f"{kind} name").text
    if name in seen:
        raise _err(f"duplicate {kind} {name}", section)
    owner = f"{kind} {name}"
    fields = _fields(section, owner, (":parameters",) + keys, start=2)
    return name, owner, fields, _parse_parameters(fields.get(":parameters"), owner, types)


def _parse_parameters(
    node: Node | None, owner: str, types: set[str]
) -> tuple[tuple[str, str], ...]:
    if node is None:
        return ()
    items = _parse_typed_items(
        _want_list(node, "parameter list").items,
        "parameter",
        types,
        lambda var, t: f"{owner}: parameter {var} has undeclared type {t}",
    )
    seen: set[str] = set()
    for sym, _ in items:
        if not sym.text.startswith("?"):
            raise _err(f"{owner}: parameter {sym.text} must start with '?'", sym)
        if sym.text in seen:
            raise _err(f"{owner}: duplicate parameter {sym.text}", sym)
        seen.add(sym.text)
    return tuple((sym.text, t) for sym, t in items)


def _variables_check(
    arities: dict[str, int], scope: dict[str, str], owner: str, kind: str, unknown: str
) -> Check:
    """A schema's use of a predicate or task: the name is declared, the
    argument count matches and every argument is a variable the schema
    binds. unknown words the error for an undeclared name."""

    def check(form: SList, name: str, args: tuple[str, ...]) -> None:
        if name not in arities:
            raise _err(f"{unknown} {name}", form)
        if len(args) != arities[name]:
            raise _err(
                f"{owner}: {kind} {name} takes {arities[name]} arguments, got {len(args)}", form
            )
        for arg in args:
            if not arg.startswith("?"):
                raise _err(f"{owner}: constants are not supported, got {arg}", form)
            if arg not in scope:
                raise _err(f"{owner}: unbound variable {arg}", form)

    return check


# ---------------------------------------------------------------------------
# Problem
# ---------------------------------------------------------------------------

def parse_problem(text: str, domain: DomainAst) -> ProblemAst:
    form, name = _parse_define(text, "problem")
    groups = _sections(form, "problem", (":domain", ":objects", ":htn", ":init", ":goal"))
    for key in (":domain", ":htn"):
        if not groups[key]:
            raise _err(f"problem has no ({key} ...) section", form)
    for key in (":domain", ":goal"):
        for section in groups[key]:
            if len(section.items) < 2:
                raise _err(f"{key} section is missing its value", section)

    sym = _want_symbol(groups[":domain"][0].items[1], "domain name")
    if sym.text != domain.name:
        raise _err(f"problem requires domain {sym.text} but {domain.name} was loaded", sym)

    objects: dict[str, str] = {}
    for section in groups[":objects"]:
        for obj, t in _parse_typed_items(
            section.items[1:],
            "object",
            domain.type_names(),
            lambda obj, t: f"object {obj} has undeclared type {t}",
        ):
            if obj.text in objects:
                raise _err(f"duplicate object name {obj.text}", obj)
            objects[obj.text] = t

    preds = {p.name: p.param_types for p in domain.predicates}
    tasks = {d.name: tuple(t for _, t in d.parameters) for d in domain.tasks + domain.actions}
    check = _objects_check(domain, objects, tasks, ":htn task", ":htn references unknown task")
    htn = _parse_htn(groups[":htn"][0], check)
    check = _objects_check(domain, objects, preds, "init atom", "init uses undeclared predicate")
    init = [_parse_literal(n, False, check) for s in groups[":init"] for n in s.items[1:]]
    goal = None
    for section in groups[":goal"]:
        undeclared = "goal uses undeclared predicate"
        check = _objects_check(domain, objects, preds, "goal atom", undeclared)
        goal = _parse_conjunction(section.items[1], "goal", check)

    return ProblemAst(
        name=name,
        domain_name=domain.name,
        objects=tuple(objects.items()),
        init=tuple((lit.predicate,) + lit.args for lit in init),
        htn=htn,
        goal=goal,
    )


def _objects_check(
    domain: DomainAst,
    objects: dict[str, str],
    decls: dict[str, tuple[str, ...]],
    what: str,
    unknown: str,
) -> Check:
    """A problem's use of a predicate, task or action: the name is
    declared, the argument count matches and every argument is an object
    of the declared type. unknown words the error for an undeclared name."""

    def check(form: SList, name: str, args: tuple[str, ...]) -> None:
        if name not in decls:
            raise _err(f"{unknown} {name}", form)
        want = decls[name]
        if len(args) != len(want):
            raise _err(f"{what} {name} takes {len(want)} arguments, got {len(args)}", form)
        for arg, t in zip(args, want):
            if arg not in objects:
                raise _err(f"{what} {name} references unknown object {arg}", form)
            if not domain.is_subtype(objects[arg], t):
                raise _err(
                    f"{what} {name}: object {arg} has type {objects[arg]}, expected {t}", form
                )

    return check


def _parse_htn(section: SList, check: Check) -> tuple[TaskRef, ...]:
    fields = _fields(section, ":htn", (":parameters", ":ordered-subtasks"))
    if ":parameters" in fields and _want_list(fields[":parameters"], "parameter list").items:
        raise _err("nonempty :htn parameters are not supported", fields[":parameters"])
    if ":ordered-subtasks" not in fields:
        raise _err(":htn has no :ordered-subtasks", section)
    return _parse_ordered_subtasks(fields[":ordered-subtasks"], check)
