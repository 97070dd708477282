"""Parser for a STRIPS subset of PDDL.

Supported requirements: ``:strips``, ``:typing``, ``:equality``. Everything
else is rejected loudly. Preconditions must be positive literals, except for
``(= ...)`` / ``(not (= ...))`` constraints, which are compiled away during
grounding. Errors carry ``file:line:col`` positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

@dataclass(frozen=True)
class TypedName:
    name: str
    type: str = ROOT_TYPE


@dataclass(frozen=True)
class Atom:
    """Predicate applied to arguments (variables or object names)."""
    pred: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return "(" + " ".join((self.pred,) + self.args) + ")"


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

    def type_parents(self) -> dict[str, str]:
        parents = {ROOT_TYPE: ROOT_TYPE}
        for t in self.types:
            parents[t.name] = t.type
        return parents


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain_name: str
    objects: tuple[TypedName, ...]
    init: tuple[Atom, ...]   # source order preserved
    goal: tuple[Atom, ...]
    filename: str = field(default="<problem>", compare=False)   # where it was parsed from


# ── Tokenizer / s-expression reader ──────────────────────────────────────────

@dataclass
class _Token:
    value: str
    line: int
    col: int


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
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
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            tokens.append(_Token(text[i:j].lower(), line, col))
            col += j - i
            i = j
    return tokens


class _Node:
    """S-expression node: a list with a source position, or a bare token."""
    __slots__ = ("items", "line", "col")

    def __init__(self, items: list, line: int, col: int):
        self.items = items
        self.line = line
        self.col = col


def _read_sexpr(tokens: list[_Token], filename: str) -> _Node:
    """One top-level form. Iterative, so nesting depth is bounded by memory only."""
    if not tokens:
        raise ParseError("unexpected end of input", filename, 1, 1)
    first = tokens[0]
    if first.value == ")":
        raise ParseError("unexpected ')'", filename, first.line, first.col)
    if first.value != "(":
        if len(tokens) > 1:
            raise ParseError("trailing content after top-level form", filename,
                             tokens[1].line, tokens[1].col)
        raise ParseError("expected a parenthesized form", filename, first.line, first.col)
    open_lists: list[tuple[_Token, list]] = [(first, [])]   # innermost last
    pos = 1
    while True:
        if pos >= len(tokens):
            tok = open_lists[-1][0]
            raise ParseError("missing closing parenthesis", filename, tok.line, tok.col)
        tok = tokens[pos]
        pos += 1
        if tok.value == "(":
            open_lists.append((tok, []))
        elif tok.value == ")":
            opener, items = open_lists.pop()
            node = _Node(items, opener.line, opener.col)
            if not open_lists:
                break
            open_lists[-1][1].append(node)
        else:
            open_lists[-1][1].append(tok)
    if pos != len(tokens):
        extra = tokens[pos]
        raise ParseError("trailing content after top-level form", filename, extra.line, extra.col)
    return node


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
            out.extend(TypedName(p.value, ty.value) for p in pending)
            pending = []
            i += 2
        else:
            pending.append(tok)
            i += 1
    out.extend(TypedName(p.value, ROOT_TYPE) for p in pending)
    return tuple(out)


def _parse_atom(node, filename: str) -> Atom:
    if not isinstance(node, _Node) or not node.items:
        line, col = (node.line, node.col)
        raise ParseError("expected an atom", filename, line, col)
    head = _expect_word(node.items[0], "a predicate name", filename)
    args = tuple(_expect_word(a, "an argument", filename).value for a in node.items[1:])
    return Atom(head.value, args)


def _conjunction(node: _Node, filename: str) -> list[_Node]:
    """Flatten (and f1 f2 ...) to [f1, f2, ...]; a bare formula is a singleton."""
    if node.items and isinstance(node.items[0], _Token) and node.items[0].value == "and":
        out = []
        for sub in node.items[1:]:
            if not isinstance(sub, _Node):
                raise ParseError("expected a formula inside (and ...)", filename, sub.line, sub.col)
            out.append(sub)
        return out
    if not node.items:
        return []   # () is the empty conjunction
    return [node]


def _parse_eq(node: _Node, equal: bool, filename: str) -> EqConstraint:
    atom = _parse_atom(node, filename)
    if len(atom.args) != 2:
        raise ParseError("(= ...) takes two arguments", filename, node.line, node.col)
    return EqConstraint(atom.args[0], atom.args[1], equal)


# ── Domain / problem parsing ─────────────────────────────────────────────────

def _read_define(text: str, filename: str, kind: str):
    """Read ``(define (KIND NAME) SECTION...)``: the name, the root form and
    ``(keyword, section)`` pairs, checked one at a time as they are taken.
    Only ``:action`` may appear more than once; a second occurrence of any
    other section is a ParseError at its keyword."""
    root = _read_sexpr(_tokenize(text, filename), filename)
    items = root.items
    if len(items) < 2 or not (isinstance(items[0], _Token) and items[0].value == "define"):
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


def _parse_action(node: _Node, arity: dict[str, int], filename: str) -> ActionSchema:
    items = node.items
    name = _word_at(node, 1, "an action name", filename).value
    sections: dict[str, object] = {}
    i = 2
    while i < len(items):
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
        i += 2

    params_node = sections.get(":parameters")
    params = _parse_typed_list(params_node.items, filename) if params_node is not None else ()
    seen = set()
    for p in params:
        if p.name in seen:
            raise ParseError(f"duplicate parameter {p.name} in action {name}",
                             filename, node.line, node.col)
        seen.add(p.name)

    def check_atom(atom: Atom, where: _Node):
        if atom.pred not in arity:
            raise UndeclaredNameError(f"undeclared predicate {atom.pred}",
                                      filename, where.line, where.col)
        if len(atom.args) != arity[atom.pred]:
            raise ParseError(f"predicate {atom.pred} expects {arity[atom.pred]} arguments",
                             filename, where.line, where.col)
        for arg in atom.args:
            if arg.startswith("?") and arg not in seen:
                raise UndeclaredNameError(f"variable {arg} is not a parameter of {name}",
                                          filename, where.line, where.col)

    precond: list[Atom] = []
    eqs: list[EqConstraint] = []
    pre_node = sections.get(":precondition")
    if pre_node is not None:
        for f in _conjunction(pre_node, filename):
            head = _expect_word(f.items[0], "a formula head", filename) if f.items else None
            if head is None:
                continue
            if head.value == "=":
                eqs.append(_parse_eq(f, True, filename))
            elif head.value == "not":
                inner = f.items[1] if len(f.items) > 1 else None
                if isinstance(inner, _Node) and inner.items and \
                        isinstance(inner.items[0], _Token) and inner.items[0].value == "=":
                    eqs.append(_parse_eq(inner, False, filename))
                else:
                    raise ParseError("negative preconditions are not supported (STRIPS)",
                                     filename, f.line, f.col)
            else:
                a = _parse_atom(f, filename)
                check_atom(a, f)
                precond.append(a)

    add: list[Atom] = []
    delete: list[Atom] = []
    eff_node = sections.get(":effect")
    if eff_node is not None:
        for f in _conjunction(eff_node, filename):
            head = _expect_word(f.items[0], "a formula head", filename) if f.items else None
            if head is None:
                continue
            if head.value == "not":
                inner = f.items[1] if len(f.items) > 1 else None
                if not isinstance(inner, _Node):
                    raise ParseError("malformed (not ...) effect", filename, f.line, f.col)
                a = _parse_atom(inner, filename)
                check_atom(a, inner)
                delete.append(a)
            else:
                a = _parse_atom(f, filename)
                check_atom(a, f)
                add.append(a)

    return ActionSchema(name, params, tuple(precond), tuple(eqs), tuple(add), tuple(delete))


def parse_domain(text: str, filename: str = "<domain>") -> DomainAst:
    """Parse PDDL domain text into a :class:`DomainAst`."""
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
        elif key.value == ":predicates":
            for p in section.items[1:]:
                if not isinstance(p, _Node) or not p.items:
                    raise ParseError("expected a predicate declaration", filename,
                                     section.line, section.col)
                pname = _expect_word(p.items[0], "a predicate name", filename).value
                pparams = _parse_typed_list(p.items[1:], filename)
                predicates.append((pname, pparams))
                arity[pname] = len(pparams)
        elif key.value == ":action":
            schemas.append(_parse_action(section, arity, filename))
        else:
            raise ParseError(f"unsupported domain section {key.value}",
                             filename, key.line, key.col)

    return DomainAst(name, requirements, types, tuple(predicates), constants, tuple(schemas))


def parse_problem(text: str, filename: str = "<problem>") -> ProblemAst:
    """Parse PDDL problem text into a :class:`ProblemAst` (atom order preserved)."""
    name, root, sections = _read_define(text, filename, "problem")

    domain_name = ""
    objects: tuple[TypedName, ...] = ()
    init: list[Atom] = []
    goal: list[Atom] = []

    for key, section in sections:
        if key.value == ":domain":
            domain_name = _word_at(section, 1, "a domain name", filename).value
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
            for f in _conjunction(section.items[1], filename):
                a = _parse_atom(f, filename)
                if a.pred == "not":
                    raise ParseError("negative goals are not supported (STRIPS)",
                                     filename, f.line, f.col)
                goal.append(a)
        elif key.value == ":requirements":
            _requirements(section, filename)
        else:
            raise ParseError(f"unsupported problem section {key.value}",
                             filename, key.line, key.col)

    if not domain_name:
        raise ParseError("problem is missing (:domain ...)", filename, root.line, root.col)
    return ProblemAst(name, domain_name, objects, tuple(init), tuple(goal), filename)


def check_problem(domain: DomainAst, problem: ProblemAst) -> None:
    """Validate a problem against its domain: names, arities, declared objects."""
    filename = problem.filename
    if problem.domain_name != domain.name:
        raise UndeclaredNameError(
            f"problem declares domain {problem.domain_name}, expected {domain.name}", filename)
    known: set[str] = set()
    for n in [c.name for c in domain.constants] + [o.name for o in problem.objects]:
        if n in known:
            raise UndeclaredNameError(f"duplicate object name {n}", filename)
        known.add(n)
    arity = {p: len(params) for p, params in domain.predicates}
    for where, atoms in (("init", problem.init), ("goal", problem.goal)):
        for atom in atoms:
            if atom.pred not in arity:
                raise UndeclaredNameError(f"undeclared predicate {atom.pred} in :{where}", filename)
            if len(atom.args) != arity[atom.pred]:
                raise UndeclaredNameError(
                    f"predicate {atom.pred} expects {arity[atom.pred]} arguments in :{where}",
                    filename)
            for a in atom.args:
                if a not in known:
                    raise UndeclaredNameError(f"undeclared object {a} in :{where}", filename)


# ── Pretty printing (round-trip support) ─────────────────────────────────────

def _fmt_typed_list(names: tuple[TypedName, ...]) -> str:
    return " ".join(f"{n.name} - {n.type}" for n in names)


def domain_to_pddl(domain: DomainAst) -> str:
    lines = [f"(define (domain {domain.name})"]
    lines.append("  (:requirements " + " ".join(domain.requirements) + ")")
    if domain.types:
        lines.append("  (:types " + _fmt_typed_list(domain.types) + ")")
    if domain.constants:
        lines.append("  (:constants " + _fmt_typed_list(domain.constants) + ")")
    preds = " ".join(
        "(" + " ".join((name,) + tuple(f"{p.name} - {p.type}" for p in params)) + ")"
        for name, params in domain.predicates)
    lines.append(f"  (:predicates {preds})")
    for s in domain.schemas:
        pre = [str(a) for a in s.precond]
        pre += [f"(= {e.left} {e.right})" if e.equal else f"(not (= {e.left} {e.right}))"
                for e in s.eq_constraints]
        eff = [str(a) for a in s.add] + [f"(not {a})" for a in s.delete]
        lines.append(f"  (:action {s.name}")
        lines.append(f"    :parameters ({_fmt_typed_list(s.params)})")
        lines.append("    :precondition (and " + " ".join(pre) + ")")
        lines.append("    :effect (and " + " ".join(eff) + "))")
    lines.append(")")
    return "\n".join(lines)


def problem_to_pddl(problem: ProblemAst) -> str:
    lines = [f"(define (problem {problem.name})",
             f"  (:domain {problem.domain_name})"]
    if problem.objects:
        lines.append("  (:objects " + _fmt_typed_list(problem.objects) + ")")
    lines.append("  (:init " + " ".join(str(a) for a in problem.init) + ")")
    lines.append("  (:goal (and " + " ".join(str(a) for a in problem.goal) + "))")
    lines.append(")")
    return "\n".join(lines)


def load_domain(path: str) -> DomainAst:
    with open(path, encoding="utf-8") as fh:
        return parse_domain(fh.read(), filename=path)


def load_problem(path: str) -> ProblemAst:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read(), filename=path)
