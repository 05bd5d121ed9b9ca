"""Parser for the totally ordered HDDL 1.0 subset.

Accepted requirements: :typing, :hierarchy, :method-preconditions,
:negative-preconditions. Partial-order and temporal constructs are
recognized only to be rejected with an explanation; every error carries
the line:column of the offending form.
"""

from __future__ import annotations

from ..errors import HddlError
from .ast import (
    ActionAst,
    DomainAst,
    Literal,
    MethodAst,
    PredicateDecl,
    ProblemAst,
    TaskDecl,
    TaskNetwork,
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


def _parse_conjunction(node: Node, what: str, allow_negation: bool) -> tuple[Literal, ...]:
    """A formula that is (), a single literal, or (and literal ...)."""
    form = _want_list(node, what)
    if not form.items:
        return ()
    head = form.items[0]
    if isinstance(head, Symbol) and head.text == "and":
        return tuple(_parse_literal(n, allow_negation) for n in form.items[1:])
    return (_parse_literal(form, allow_negation),)


def _parse_task_atom(node: Node) -> tuple[TaskRef, SList]:
    form = _want_list(node, "a task atom")
    if not form.items:
        raise _err("empty task atom", form)
    head = _want_symbol(form.items[0], "task name")
    args = tuple(_want_symbol(a, "task argument").text for a in form.items[1:])
    return (head.text, args), form


def _parse_subtask_network(
    items: tuple, start: int, owner: str, node_for_errors: Node
) -> tuple[tuple[TaskRef, ...], int]:
    """Parse the :ordered-subtasks section (rejecting partial-order syntax)."""
    key = _want_symbol(items[start], "a section keyword")
    if key.text in (":subtasks", ":tasks", ":ordering", ":order"):
        raise _err(
            f"{key.text} expresses a partially ordered network; only totally"
            " ordered networks (:ordered-subtasks) are supported",
            key,
        )
    if key.text != ":ordered-subtasks":
        raise _err(f"unexpected keyword {key.text} in {owner}", key)
    if start + 1 >= len(items):
        raise _err(":ordered-subtasks needs a task list", key)
    body = _want_list(items[start + 1], "a subtask list")
    if not body.items:
        return (), start + 2
    head = body.items[0]
    if isinstance(head, Symbol) and head.text == "and":
        refs = tuple(_parse_task_atom(n)[0] for n in body.items[1:])
    else:
        refs = (_parse_task_atom(body)[0],)
    return refs, start + 2


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------

def parse_domain(text: str) -> DomainAst:
    forms = read_all(text)
    if len(forms) != 1:
        raise HddlError(f"expected one (define ...) form, found {len(forms)}", 1, 1)
    form = _want_list(forms[0], "(define ...)")
    if _head(form) != "define":
        raise _err(f"expected 'define', got {_head(form)!r}", form)
    if len(form.items) < 2:
        raise _err("define is missing the (domain NAME) header", form)
    header = _want_list(form.items[1], "(domain NAME)")
    if len(header.items) != 2 or _head(header) != "domain":
        raise _err("expected (domain NAME)", header)
    name = _want_symbol(header.items[1], "domain name").text

    requirements: tuple[str, ...] = ()
    types: tuple[tuple[str, str], ...] = ()
    predicates: list[PredicateDecl] = []
    tasks: list[TaskDecl] = []
    actions: list[ActionAst] = []
    methods: list[MethodAst] = []

    for section_node in form.items[2:]:
        section = _want_list(section_node, "a domain section")
        key = _head(section)
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
            if isinstance(section.items[0], Symbol):
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


def _section_map(section: SList, owner: str, start: int = 1) -> dict[str, tuple[Node, Symbol]]:
    """Collect ':key value' pairs from a section body."""
    out: dict[str, tuple[Node, Symbol]] = {}
    items = section.items
    i = start
    while i < len(items):
        key = _want_symbol(items[i], f"a keyword in {owner}")
        _check_temporal(key)
        if not key.text.startswith(":"):
            raise _err(f"expected a :keyword in {owner}, got {key.text!r}", key)
        if i + 1 >= len(items):
            raise _err(f"{key.text} is missing its value", key)
        if key.text in out:
            raise _err(f"duplicate {key.text} in {owner}", key)
        out[key.text] = (items[i + 1], key)
        i += 2
    return out


def _parse_task_decl(section: SList) -> TaskDecl:
    if len(section.items) < 2:
        raise _err(":task needs a name", section)
    name = _want_symbol(section.items[1], "task name")
    fields = _section_map(section, f"task {name.text}", start=2)
    params: tuple[tuple[str, str], ...] = ()
    for key, (value, key_sym) in fields.items():
        if key == ":parameters":
            params = _parse_typed_items(_want_list(value, "parameter list").items, "parameter")
        else:
            raise _err(f"unexpected {key} in task declaration", key_sym)
    return TaskDecl(name.text, params, _pos(section))


def _parse_action(section: SList) -> ActionAst:
    if len(section.items) < 2:
        raise _err(":action needs a name", section)
    name = _want_symbol(section.items[1], "action name")
    fields = _section_map(section, f"action {name.text}", start=2)
    params: tuple[tuple[str, str], ...] = ()
    precondition: tuple[Literal, ...] = ()
    effect: tuple[Literal, ...] = ()
    for key, (value, key_sym) in fields.items():
        if key == ":parameters":
            params = _parse_typed_items(_want_list(value, "parameter list").items, "parameter")
        elif key == ":precondition":
            precondition = _parse_conjunction(value, "precondition", allow_negation=True)
        elif key == ":effect":
            effect = _parse_conjunction(value, "effect", allow_negation=True)
        else:
            raise _err(f"unexpected {key} in action {name.text}", key_sym)
    return ActionAst(name.text, params, precondition, effect, _pos(section))


def _parse_method(section: SList) -> MethodAst:
    if len(section.items) < 2:
        raise _err(":method needs a name", section)
    name = _want_symbol(section.items[1], "method name")
    items = section.items
    params: tuple[tuple[str, str], ...] = ()
    task: TaskRef | None = None
    precondition: tuple[Literal, ...] = ()
    subtasks: tuple[TaskRef, ...] | None = None
    i = 2
    while i < len(items):
        key = _want_symbol(items[i], f"a keyword in method {name.text}")
        _check_temporal(key)
        if key.text not in (":ordered-subtasks",) and i + 1 >= len(items):
            raise _err(f"{key.text} is missing its value", key)
        if key.text == ":parameters":
            params = _parse_typed_items(
                _want_list(items[i + 1], "parameter list").items, "parameter"
            )
            i += 2
        elif key.text == ":task":
            task, _ = _parse_task_atom(items[i + 1])
            i += 2
        elif key.text == ":precondition":
            precondition = _parse_conjunction(
                items[i + 1], "method precondition", allow_negation=True
            )
            i += 2
        elif key.text in (":ordered-subtasks", ":subtasks", ":tasks", ":ordering", ":order"):
            subtasks, i = _parse_subtask_network(items, i, f"method {name.text}", section)
        else:
            raise _err(f"unexpected {key.text} in method {name.text}", key)
    if task is None:
        raise _err(f"method {name.text} has no :task", section)
    if subtasks is None:
        raise _err(f"method {name.text} has no :ordered-subtasks", section)
    return MethodAst(name.text, params, task, precondition, subtasks, _pos(section))


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

    method_names: set[str] = set()
    for m in domain.methods:
        if m.name in method_names:
            raise HddlError(f"duplicate method {m.name}", *m.pos)
        method_names.add(m.name)
        _check_params(domain, m.parameters, f"method {m.name}", m.pos, type_names)
        scope = dict(m.parameters)
        tname, targs = m.task
        if tname not in task_names:
            raise HddlError(
                f"method {m.name} decomposes undeclared task {tname}", *m.pos
            )
        _check_task_ref(task_names, action_names, scope, m.task, f"method {m.name}", m.pos)
        for lit in m.precondition:
            _check_literal(seen_preds, scope, lit, f"method {m.name}", m.pos)
        for ref in m.subtasks:
            if ref[0] not in task_names and ref[0] not in action_names:
                raise HddlError(
                    f"method {m.name} references unknown task {ref[0]}", *m.pos
                )
            _check_task_ref(task_names, action_names, scope, ref, f"method {m.name}", m.pos)


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
    decl = predicates[lit.predicate]
    if len(lit.args) != len(decl.param_types):
        raise HddlError(
            f"{owner}: predicate {lit.predicate} takes {len(decl.param_types)}"
            f" arguments, got {len(lit.args)}",
            *pos,
        )
    for arg in lit.args:
        if arg.startswith("?"):
            if arg not in scope:
                raise HddlError(f"{owner}: unbound variable {arg}", *pos)
        else:
            raise HddlError(f"{owner}: constants are not supported, got {arg}", *pos)


def _check_task_ref(task_names, action_names, scope, ref: TaskRef, owner: str, pos):
    name, args = ref
    if name in task_names:
        arity = len(task_names[name].parameters)
    else:
        arity = len(action_names[name].parameters)
    if len(args) != arity:
        raise HddlError(
            f"{owner}: task {name} takes {arity} arguments, got {len(args)}", *pos
        )
    for arg in args:
        if arg.startswith("?"):
            if arg not in scope:
                raise HddlError(f"{owner}: unbound variable {arg}", *pos)
        else:
            raise HddlError(f"{owner}: constants are not supported, got {arg}", *pos)


# ---------------------------------------------------------------------------
# Problem
# ---------------------------------------------------------------------------

def parse_problem(text: str, domain: DomainAst) -> ProblemAst:
    forms = read_all(text)
    if len(forms) != 1:
        raise HddlError(f"expected one (define ...) form, found {len(forms)}", 1, 1)
    form = _want_list(forms[0], "(define ...)")
    if _head(form) != "define":
        raise _err(f"expected 'define', got {_head(form)!r}", form)
    if len(form.items) < 2:
        raise _err("define is missing the (problem NAME) header", form)
    header = _want_list(form.items[1], "(problem NAME)")
    if len(header.items) != 2 or _head(header) != "problem":
        raise _err("expected (problem NAME)", header)
    name = _want_symbol(header.items[1], "problem name").text

    domain_name: str | None = None
    objects: tuple[tuple[str, str], ...] = ()
    init: list[tuple[str, ...]] = []
    htn: TaskNetwork | None = None
    goal: tuple[Literal, ...] | None = None

    for section_node in form.items[2:]:
        section = _want_list(section_node, "a problem section")
        key = _head(section)
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
            htn = _parse_htn(section, name)
        elif key == ":init":
            for atom_node in section.items[1:]:
                lit = _parse_literal(atom_node, allow_negation=False)
                init.append((lit.predicate,) + lit.args)
        elif key == ":goal":
            goal = _parse_conjunction(section.items[1], "goal", allow_negation=True)
        else:
            if isinstance(section.items[0], Symbol):
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


def _parse_htn(section: SList, problem_name: str) -> TaskNetwork:
    items = section.items
    i = 1
    refs: tuple[TaskRef, ...] | None = None
    while i < len(items):
        key = _want_symbol(items[i], "a keyword in :htn")
        if key.text == ":parameters":
            if i + 1 >= len(items):
                raise _err(":parameters is missing its value", key)
            plist = _want_list(items[i + 1], "parameter list")
            if plist.items:
                raise _err("nonempty :htn parameters are not supported", plist)
            i += 2
        elif key.text in (":ordered-subtasks", ":subtasks", ":tasks", ":ordering", ":order"):
            refs, i = _parse_subtask_network(items, i, ":htn", section)
        else:
            raise _err(f"unexpected {key.text} in :htn", key)
    if refs is None:
        raise _err(":htn has no :ordered-subtasks", section)
    idents = tuple(f"t{k + 1}" for k in range(len(refs)))
    return TaskNetwork(idents, refs)


def _validate_problem(domain: DomainAst, problem: ProblemAst, form: SList):
    obj_types = dict(problem.objects)
    if len(obj_types) != len(problem.objects):
        raise _err("duplicate object name", form)
    preds = {p.name: p for p in domain.predicates}
    for atom in problem.init:
        pred, args = atom[0], atom[1:]
        if pred not in preds:
            raise _err(f"init uses undeclared predicate {pred}", form)
        decl = preds[pred]
        if len(args) != len(decl.param_types):
            raise _err(
                f"init atom {pred} takes {len(decl.param_types)} arguments,"
                f" got {len(args)}",
                form,
            )
        for arg, want in zip(args, decl.param_types):
            if arg not in obj_types:
                raise _err(f"init atom {pred} references unknown object {arg}", form)
            if not domain.is_subtype(obj_types[arg], want):
                raise _err(
                    f"init atom {pred}: object {arg} has type {obj_types[arg]},"
                    f" expected {want}",
                    form,
                )
    task_decls = {t.name: len(t.parameters) for t in domain.tasks}
    action_decls = {a.name: len(a.parameters) for a in domain.actions}
    for tname, targs in problem.htn.tasks:
        if tname in task_decls:
            arity = task_decls[tname]
        elif tname in action_decls:
            arity = action_decls[tname]
        else:
            raise _err(f":htn references unknown task {tname}", form)
        if len(targs) != arity:
            raise _err(
                f":htn task {tname} takes {arity} arguments, got {len(targs)}", form
            )
        for arg in targs:
            if arg not in obj_types:
                raise _err(f":htn task {tname} references unknown object {arg}", form)
    if problem.goal:
        for lit in problem.goal:
            if lit.predicate not in preds:
                raise _err(f"goal uses undeclared predicate {lit.predicate}", form)
            if len(lit.args) != len(preds[lit.predicate].param_types):
                raise _err(f"goal atom {lit.predicate} has wrong arity", form)
            for arg in lit.args:
                if arg not in obj_types:
                    raise _err(f"goal references unknown object {arg}", form)
