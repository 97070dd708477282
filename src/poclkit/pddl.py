"""Parser for a STRIPS subset of PDDL.

Supported requirements: ``:strips``, ``:typing``, ``:equality``. Everything
else is rejected loudly. Preconditions and goals must be positive literals,
save a precondition's ``(= ...)`` / ``(not (= ...))``, which grounding
compiles away. Errors carry ``file:line:col`` positions.

Each record carries where it was read: an :class:`Atom` the position of its
``(``, a :class:`TypedName` that of its name and of its written type, and a
:class:`DomainAst` or :class:`ProblemAst` its file name. These fields are left
out of equality and hashing, so records that differ only in where they were
read are equal, and positions out of ``repr``; a record built in code has
position ``(0, 0)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

SUPPORTED_REQUIREMENTS = frozenset({":strips", ":typing", ":equality"})
ROOT_TYPE = "object"


class PddlError(Exception):
    """Base error for domain/problem loading; message includes position."""

    def __init__(self, message: str, filename: str = "<input>", line: int = 0, col: int = 0):
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")


class ParseError(PddlError):
    pass


class UnsupportedRequirementError(PddlError):
    def __init__(self, requirement: str, **kw):
        self.requirement = requirement
        super().__init__(f"unsupported requirement {requirement}", **kw)


class UndeclaredNameError(PddlError):
    pass


# ── AST ──────────────────────────────────────────────────────────────────────

Position = tuple[int, int]    # (line, col) in the source text; (0, 0) if none


@dataclass(frozen=True)
class TypedName:
    name: str
    type: str = ROOT_TYPE
    pos: Position = field(default=(0, 0), compare=False, repr=False)        # of the name
    type_pos: Position = field(default=(0, 0), compare=False, repr=False)   # of a written type


def atom_text(pred: str, args: tuple[str, ...]) -> str:
    """``(pred arg ...)``: the text of an atom, and the name of a ground fact."""
    return "(" + " ".join((pred,) + args) + ")"


@dataclass(frozen=True)
class Atom:
    """Predicate applied to arguments (variables or object names)."""
    pred: str
    args: tuple[str, ...]
    pos: Position = field(default=(0, 0), compare=False, repr=False)   # of its "("

    def __str__(self) -> str:
        return atom_text(self.pred, self.args)


@dataclass(frozen=True)
class EqConstraint:
    """An (in)equality between two parameter/object terms."""
    left: str
    right: str
    equal: bool  # True for (= a b), False for (not (= a b))


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[TypedName, ...]
    precond: tuple[Atom, ...]
    eq_constraints: tuple[EqConstraint, ...]
    add: tuple[Atom, ...]
    delete: tuple[Atom, ...]


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: tuple[str, ...]
    types: tuple[TypedName, ...]          # (type, parent) pairs; parent defaults to object
    predicates: tuple[tuple[str, tuple[TypedName, ...]], ...]
    constants: tuple[TypedName, ...]
    schemas: tuple[ActionSchema, ...]
    filename: str = field(default="<domain>", compare=False, repr=False)   # where it was read

    def type_parents(self) -> dict[str, str]:
        parents = {ROOT_TYPE: ROOT_TYPE}
        for t in self.types:
            parents[t.name] = t.type
        return parents

    def declared_types(self) -> set[str]:
        """``object`` and every type ``:types`` names, as a type or a parent."""
        parents = self.type_parents()
        return set(parents) | set(parents.values())


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[TypedName, ...]
    init: tuple[Atom, ...]   # source order preserved
    goal: tuple[Atom, ...]
    filename: str = field(default="<problem>", compare=False)   # where it was parsed from
    domain_pos: Position = field(default=(0, 0), compare=False, repr=False)   # of its domain name


# ── S-expression reader ──────────────────────────────────────────────────────

# a newline, a comment, a parenthesis or a word; the " \t\r" between them is skipped
_LEXEME = re.compile(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+")


@dataclass
class _Token:
    value: str
    line: int
    col: int


class _Node:
    """S-expression node: a list with a source position, or a bare token."""
    __slots__ = ("items", "line", "col")

    def __init__(self, items: list, line: int, col: int):
        self.items = items
        self.line = line
        self.col = col


def _read_sexpr(text: str, filename: str) -> _Node:
    """The one top-level form of ``text``, read in one pass. Iterative, so
    nesting depth is bounded by memory only."""
    top = _Node([], 1, 1)       # holds the top-level form once it is read
    open_lists = [top]          # innermost last
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        lexeme = match.group()
        if lexeme == "\n":
            line += 1
            line_start = match.end()
            continue
        if lexeme[0] == ";":
            continue
        col = match.start() - line_start + 1
        if top.items and len(open_lists) == 1:
            raise ParseError("trailing content after top-level form", filename, line, col)
        if lexeme == "(":
            node = _Node([], line, col)
            open_lists[-1].items.append(node)
            open_lists.append(node)
        elif lexeme == ")":
            if len(open_lists) == 1:
                raise ParseError("unexpected ')'", filename, line, col)
            open_lists.pop()
        else:
            open_lists[-1].items.append(_Token(lexeme.lower(), line, col))
    if len(open_lists) > 1:
        raise ParseError("missing closing parenthesis", filename,
                         open_lists[-1].line, open_lists[-1].col)
    if not top.items:
        raise ParseError("unexpected end of input", filename, 1, 1)
    form = top.items[0]
    if isinstance(form, _Token):
        raise ParseError("expected a parenthesized form", filename, form.line, form.col)
    return form


def _is_word(item, value: str) -> bool:
    return isinstance(item, _Token) and item.value == value


def _expect_word(node, what: str, filename: str) -> _Token:
    if not isinstance(node, _Token):
        raise ParseError(f"expected {what}", filename, node.line, node.col)
    return node


def _word_at(node: _Node, i: int, what: str, filename: str) -> _Token:
    """``node.items[i]`` as a word; a missing item is an error at ``node``."""
    if i >= len(node.items):
        raise ParseError(f"expected {what}", filename, node.line, node.col)
    return _expect_word(node.items[i], what, filename)


def _parse_typed_list(items: list, filename: str) -> tuple[TypedName, ...]:
    """Parse ``n1 n2 - type n3 ...``; names without a type get ``object``."""
    out: list[TypedName] = []
    pending: list[_Token] = []
    i = 0
    while i < len(items):
        tok = _expect_word(items[i], "a name in typed list", filename)
        if tok.value == "-":
            if not pending:
                raise ParseError("dangling '-' in typed list", filename, tok.line, tok.col)
            if i + 1 >= len(items):
                raise ParseError("missing type after '-'", filename, tok.line, tok.col)
            ty = _expect_word(items[i + 1], "a type name", filename)
            out.extend(TypedName(p.value, ty.value, (p.line, p.col), (ty.line, ty.col))
                       for p in pending)
            pending = []
            i += 2
        else:
            pending.append(tok)
            i += 1
    out.extend(TypedName(p.value, ROOT_TYPE, (p.line, p.col)) for p in pending)
    return tuple(out)


def _parse_atom(node, filename: str) -> Atom:
    if not isinstance(node, _Node) or not node.items:
        raise ParseError("expected an atom", filename, node.line, node.col)
    head = _expect_word(node.items[0], "a predicate name", filename)
    args = tuple(_expect_word(a, "an argument", filename).value for a in node.items[1:])
    return Atom(head.value, args, (node.line, node.col))


def _literals(node: _Node, filename: str, negative: str = "", inequalities: bool = False):
    """Yield ``(positive, atom)`` for each literal of the formula ``node``:
    ``(and L ...)`` or one literal L, where an empty ``()`` is none. A literal
    is an atom, ``(= a b)`` included as an atom of predicate ``=``, or
    ``(not A)``, whose atom comes negative. ``negative``, if given, is the
    error a ``(not ...)`` raises at its ``(``; ``inequalities`` exempts
    ``(not (= a b))`` from it."""
    formulas = [node]
    if node.items and _is_word(node.items[0], "and"):
        formulas = node.items[1:]
        for sub in formulas:
            if not isinstance(sub, _Node):
                raise ParseError("expected a formula inside (and ...)", filename, sub.line, sub.col)
    for f in formulas:
        if not f.items:
            continue
        if _expect_word(f.items[0], "a formula head", filename).value != "not":
            yield True, _parse_atom(f, filename)
            continue
        body = f.items[1] if len(f.items) > 1 else None
        if negative and not (inequalities and isinstance(body, _Node) and body.items
                             and _is_word(body.items[0], "=")):
            raise ParseError(negative, filename, f.line, f.col)
        if len(f.items) != 2 or not isinstance(body, _Node):
            raise ParseError("expected one atom in (not ...)", filename, f.line, f.col)
        yield False, _parse_atom(body, filename)


def _check_atom(atom: Atom, arity: dict[str, int], scope: set[str], where: str,
                filename: str) -> None:
    """An UndeclaredNameError at ``atom``, its message ending ``in WHERE``,
    unless ``atom`` applies a predicate of ``arity`` to as many names in
    ``scope`` as it takes. In an action (``where`` is ``action NAME``) a name
    that begins with ``?`` is a variable."""
    if atom.pred not in arity:
        raise UndeclaredNameError(f"undeclared predicate {atom.pred} in {where}",
                                  filename, *atom.pos)
    if len(atom.args) != arity[atom.pred]:
        raise UndeclaredNameError(
            f"predicate {atom.pred} expects {arity[atom.pred]} arguments in {where}",
            filename, *atom.pos)
    for arg in atom.args:
        if arg not in scope:
            noun = "variable" if arg[0] == "?" and where.startswith("action ") else "object"
            raise UndeclaredNameError(f"undeclared {noun} {arg} in {where}", filename, *atom.pos)


# ── Domain / problem parsing ─────────────────────────────────────────────────

def _read_define(text: str, filename: str, kind: str):
    """Read ``(define (KIND NAME) SECTION...)``: the name, the root form and
    ``(keyword, section)`` pairs, checked one at a time as they are taken.
    Only ``:action`` may appear more than once; a second occurrence of any
    other section is a ParseError at its keyword."""
    root = _read_sexpr(text, filename)
    items = root.items
    if len(items) < 2 or not _is_word(items[0], "define"):
        raise ParseError(f"expected (define ({kind} ...) ...)", filename, root.line, root.col)
    head = items[1]
    if not (isinstance(head, _Node) and len(head.items) == 2
            and _expect_word(head.items[0], f"'{kind}'", filename).value == kind):
        raise ParseError(f"expected ({kind} NAME)", filename, root.line, root.col)
    name = _expect_word(head.items[1], f"a {kind} name", filename).value

    def sections():
        seen = set()
        for section in items[2:]:
            if not isinstance(section, _Node) or not section.items:
                raise ParseError(f"expected a {kind} section", filename,
                                 section.line, section.col)
            key = _expect_word(section.items[0], "a section keyword", filename)
            if key.value in seen:
                raise ParseError(f"repeated {key.value} section in {kind} {name}", filename,
                                 key.line, key.col)
            if key.value != ":action":
                seen.add(key.value)
            yield key, section

    return name, root, sections()


def _requirements(section: _Node, filename: str) -> tuple[str, ...]:
    reqs = []
    for r in section.items[1:]:
        tok = _expect_word(r, "a requirement", filename)
        if tok.value not in SUPPORTED_REQUIREMENTS:
            raise UnsupportedRequirementError(tok.value, filename=filename,
                                              line=tok.line, col=tok.col)
        reqs.append(tok.value)
    return tuple(reqs)


def _parse_action(node: _Node, arity: dict[str, int], constants: set[str],
                  filename: str) -> ActionSchema:
    items = node.items
    name = _word_at(node, 1, "an action name", filename).value
    sections: dict[str, _Node] = {}
    for i in range(2, len(items), 2):
        key = _expect_word(items[i], "an action section keyword", filename)
        if key.value not in (":parameters", ":precondition", ":effect"):
            raise ParseError(f"unknown action section {key.value}", filename, key.line, key.col)
        if i + 1 >= len(items):
            raise ParseError(f"missing body for {key.value}", filename, key.line, key.col)
        if key.value in sections:
            raise ParseError(f"repeated {key.value} in action {name}", filename,
                             key.line, key.col)
        if not isinstance(items[i + 1], _Node):
            raise ParseError(f"expected a parenthesized body for {key.value}", filename,
                             key.line, key.col)
        sections[key.value] = items[i + 1]

    absent = _Node([], node.line, node.col)     # a section left out reads as ()
    params = _parse_typed_list(sections.get(":parameters", absent).items, filename)
    seen = set()
    for p in params:
        if p.name in seen:
            raise ParseError(f"duplicate parameter {p.name} in action {name}", filename, *p.pos)
        seen.add(p.name)

    scope = seen | constants
    where = f"action {name}"
    precond: list[Atom] = []
    eqs: list[EqConstraint] = []
    for positive, atom in _literals(sections.get(":precondition", absent), filename,
                                    "negative preconditions are not supported (STRIPS)",
                                    inequalities=True):
        if atom.pred != "=":
            _check_atom(atom, arity, scope, where, filename)
            precond.append(atom)
        elif len(atom.args) == 2:
            _check_atom(atom, {"=": 2}, scope, where, filename)
            eqs.append(EqConstraint(*atom.args, positive))
        else:
            raise ParseError("(= ...) takes two arguments", filename, *atom.pos)

    add: list[Atom] = []
    delete: list[Atom] = []
    for positive, atom in _literals(sections.get(":effect", absent), filename):
        _check_atom(atom, arity, scope, where, filename)
        (add if positive else delete).append(atom)

    return ActionSchema(name, params, tuple(precond), tuple(eqs), tuple(add), tuple(delete))


def parse_domain(text: str, filename: str = "<domain>") -> DomainAst:
    """Parse PDDL domain text into a :class:`DomainAst`. A repeated constant,
    predicate or action name is a ParseError at the second one; a constant,
    predicate parameter or action parameter of a type that is not declared is
    an UndeclaredNameError at the first such type in the text."""
    name, _, sections = _read_define(text, filename, "domain")

    requirements: tuple[str, ...] = (":strips",)
    types: tuple[TypedName, ...] = ()
    constants: tuple[TypedName, ...] = ()
    predicates: list[tuple[str, tuple[TypedName, ...]]] = []
    arity: dict[str, int] = {}
    schemas: list[ActionSchema] = []

    for key, section in sections:
        if key.value == ":requirements":
            requirements = _requirements(section, filename)
        elif key.value == ":types":
            types = _parse_typed_list(section.items[1:], filename)
        elif key.value == ":constants":
            constants = _parse_typed_list(section.items[1:], filename)
            seen: set[str] = set()
            for c in constants:
                if c.name in seen:
                    raise ParseError(f"repeated constant {c.name} in domain {name}",
                                     filename, *c.pos)
                seen.add(c.name)
        elif key.value == ":predicates":
            for p in section.items[1:]:
                if not isinstance(p, _Node) or not p.items:
                    raise ParseError("expected a predicate declaration", filename,
                                     section.line, section.col)
                pname = _expect_word(p.items[0], "a predicate name", filename)
                if pname.value in arity:
                    raise ParseError(f"repeated predicate {pname.value} in domain {name}",
                                     filename, pname.line, pname.col)
                pparams = _parse_typed_list(p.items[1:], filename)
                predicates.append((pname.value, pparams))
                arity[pname.value] = len(pparams)
        elif key.value == ":action":
            aname = _word_at(section, 1, "an action name", filename)
            if any(s.name == aname.value for s in schemas):
                raise ParseError(f"repeated action {aname.value} in domain {name}",
                                 filename, aname.line, aname.col)
            schemas.append(_parse_action(section, arity, {c.name for c in constants},
                                         filename))
        else:
            raise ParseError(f"unsupported domain section {key.value}",
                             filename, key.line, key.col)

    domain = DomainAst(name, requirements, types, tuple(predicates), constants, tuple(schemas),
                       filename)
    declared = domain.declared_types()
    undeclared = [t for t in chain(constants, *(params for _, params in predicates),
                                   *(s.params for s in schemas)) if t.type not in declared]
    if undeclared:
        first = min(undeclared, key=lambda t: t.type_pos)    # the first in source order
        raise UndeclaredNameError(f"undeclared type {first.type}", filename, *first.type_pos)
    return domain


def parse_problem(text: str, filename: str = "<problem>") -> ProblemAst:
    """Parse PDDL problem text into a :class:`ProblemAst` (atom order preserved)."""
    name, root, sections = _read_define(text, filename, "problem")

    domain_name, domain_pos = "", (0, 0)
    objects: tuple[TypedName, ...] = ()
    init: list[Atom] = []
    goal: list[Atom] = []

    for key, section in sections:
        if key.value == ":domain":
            word = _word_at(section, 1, "a domain name", filename)
            if len(section.items) > 2:
                extra = section.items[2]
                raise ParseError("expected one domain name in (:domain ...)",
                                 filename, extra.line, extra.col)
            domain_name, domain_pos = word.value, (word.line, word.col)
        elif key.value == ":objects":
            objects = _parse_typed_list(section.items[1:], filename)
        elif key.value == ":init":
            for f in section.items[1:]:
                if not isinstance(f, _Node):
                    raise ParseError("expected an atom in :init", filename, f.line, f.col)
                init.append(_parse_atom(f, filename))
        elif key.value == ":goal":
            if len(section.items) != 2 or not isinstance(section.items[1], _Node):
                raise ParseError("expected one parenthesized formula in (:goal ...)",
                                 filename, section.line, section.col)
            goal.extend(atom for _, atom in _literals(
                section.items[1], filename, "negative goals are not supported (STRIPS)"))
        elif key.value == ":requirements":
            _requirements(section, filename)
        else:
            raise ParseError(f"unsupported problem section {key.value}",
                             filename, key.line, key.col)

    if not domain_name:
        raise ParseError("problem is missing (:domain ...)", filename, root.line, root.col)
    return ProblemAst(name, domain_name, objects, tuple(init), tuple(goal), filename,
                      domain_pos)


def check_problem(domain: DomainAst, problem: ProblemAst) -> None:
    """Validate a problem against its domain: names, arities, declared
    objects. An error is at the domain name, object or atom at fault; an
    object that repeats a constant or an earlier object is one."""
    filename = problem.filename
    if problem.domain_name != domain.name:
        raise UndeclaredNameError(
            f"problem declares domain {problem.domain_name}, expected {domain.name}", filename,
            *problem.domain_pos)
    declared = domain.declared_types()
    for o in problem.objects:
        if o.type not in declared:
            raise UndeclaredNameError(f"undeclared type {o.type} of object {o.name}",
                                      filename, *o.pos)
    known = {c.name for c in domain.constants}
    for o in problem.objects:
        if o.name in known:
            raise UndeclaredNameError(f"duplicate object name {o.name}", filename, *o.pos)
        known.add(o.name)
    arity = {p: len(params) for p, params in domain.predicates}
    for where, atoms in ((":init", problem.init), (":goal", problem.goal)):
        for atom in atoms:
            _check_atom(atom, arity, known, where, filename)


def load_domain(path: str) -> DomainAst:
    with open(path, encoding="utf-8") as fh:
        return parse_domain(fh.read(), filename=path)


def load_problem(path: str) -> ProblemAst:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read(), filename=path)
