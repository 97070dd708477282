"""Parser and grounder tests, including round-trip and binding-count checks
and a token-mutation fuzz of the fixtures."""

from __future__ import annotations

import dataclasses
import os
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from poclkit import cli
from poclkit.grounding import ground
from poclkit.pddl import (ROOT_TYPE, Atom, EqConstraint, ParseError, PddlError, ProblemAst,
                          UndeclaredNameError, UnsupportedRequirementError, _Node, _read_sexpr,
                          load_domain, load_problem, parse_domain, parse_problem)

from conftest import FIXTURES, fixture_path
from oracles import domain_to_pddl, enumerate_bindings, problem_to_pddl, read_sexpr

MINI_DOMAIN = """
(define (domain mini)
  (:requirements :strips)
  (:predicates (p) (q))
  (:action go :parameters () :precondition (p) :effect (and (q) (not (p)))))
"""


def test_minimal_domain_one_schema():
    ast = parse_domain(MINI_DOMAIN)
    assert ast.name == "mini"
    assert len(ast.schemas) == 1
    assert ast.schemas[0].name == "go"


def test_durative_actions_rejected():
    text = "(define (domain t) (:requirements :strips :durative-actions))"
    with pytest.raises(UnsupportedRequirementError) as err:
        parse_domain(text)
    assert ":durative-actions" in str(err.value)


def test_gripper_domain_three_schemas():
    ast = load_domain(fixture_path("gripper.pddl"))
    assert [s.name for s in ast.schemas] == ["move", "pick", "drop"]


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_domain("(define (domain broken)\n  (:predicates (p))\n  (:action")
    assert err.value.line >= 1
    assert ":" in str(err.value)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_domain("(" * 5000)
    assert (err.value.line, err.value.col) == (1, 5000)
    assert "missing closing parenthesis" in str(err.value)
    with pytest.raises(ParseError):
        parse_problem("(" * 5000 + ")" * 5000)


def test_cli_deep_nesting_exits_with_input_error(tmp_path, capsys):
    domain = tmp_path / "deep.pddl"
    domain.write_text("(" * 5000)
    code = cli.main(["solve", str(domain), fixture_path("gripper-1.pddl")])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "missing closing parenthesis" in err and "Traceback" not in err


def _domain_with_precondition(pre: str) -> str:
    return ("(define (domain d) (:requirements :strips :equality) (:predicates (p ?x))\n"
            "  (:action a :parameters (?x)\n"
            "    :precondition\n"
            f"    {pre}\n"
            "    :effect (p ?x)))")


# malformed forms that once escaped as IndexError, or, with three arguments to
# =, were read with the third dropped: (kind, text, error position)
MALFORMED = {
    "domain-without-name": (
        "problem", "(define (problem p)\n  (:domain)\n  (:init) (:goal (and)))", (2, 3)),
    "action-without-name": (
        "domain", "(define (domain d) (:predicates (p))\n  (:action))", (2, 3)),
    "equality-with-one-argument": ("domain", _domain_with_precondition("(= ?x)"), (4, 5)),
    "inequality-with-one-argument": (
        "domain", _domain_with_precondition("(not (= ?x))"), (4, 10)),
    "equality-with-three-arguments": (
        "domain", _domain_with_precondition("(= ?x ?x ?x)"), (4, 5)),
    # extra items once dropped without a word: a (not ...) kept its first
    # atom, and (:domain ...) its first name
    "not-with-two-atoms": (
        "domain", "(define (domain d) (:predicates (p ?x) (q ?x))\n  (:action a :parameters (?x)\n"
        "    :effect (and (q ?x) (not (p ?x) (q ?x)))))", (3, 25)),
    "inequality-with-a-second-atom": (
        "domain", _domain_with_precondition("(not (= ?x ?x) (p ?x))"), (4, 5)),
    "domain-with-two-names": (
        "problem", "(define (problem p)\n  (:domain d junk)\n  (:init) (:goal (and)))", (2, 14)),
    # section bodies once read as empty (or, repeated, the last kept)
    "goal-without-parentheses": (
        "problem", "(define (problem p)\n  (:domain d)\n  (:init) (:goal q))", (3, 11)),
    "goal-without-body": ("problem", "(define (problem p)\n  (:domain d)\n  (:goal))", (3, 3)),
    "precondition-without-parentheses": ("domain", _domain_with_precondition("p"), (3, 5)),
    "effect-without-parentheses": (
        "domain", "(define (domain d) (:predicates (q))\n  (:action a :parameters ()\n"
        "    :effect q))", (3, 5)),
    "repeated-effect": (
        "domain", "(define (domain d) (:predicates (q) (r))\n  (:action a :parameters ()\n"
        "    :effect (q)\n    :effect (r)))", (4, 5)),
    # a repeated top-level section was kept last (or, for :predicates, :init
    # and :goal, concatenated); only :action may repeat
    **{f"repeated-domain-{section[1:]}": (
        "domain", f"(define (domain d)\n  ({section} {body})\n  ({section} {body}))", (3, 4))
       for section, body in ((":requirements", ":strips"), (":types", "t"),
                             (":constants", "c"), (":predicates", "(r)"))},
    **{f"repeated-problem-{section[1:]}": (
        "problem", f"(define (problem p)\n  ({section} {body})\n  ({section} {body}))", (3, 4))
       for section, body in ((":domain", "d"), (":requirements", ":strips"),
                             (":objects", "o"), (":init", "(q)"), (":goal", "(q)"))},
    # a repeated name was read as a second declaration: the later arity, and
    # a plan step named after either action
    "repeated-predicate": ("domain", "(define (domain d)\n  (:predicates (p) (q)\n    (p)))", (3, 6)),
    "repeated-action": (
        "domain", "(define (domain d) (:predicates (p) (q))\n  (:action a :effect (p))\n"
        "  (:action a :effect (q)))", (3, 12)),
    # a repeated parameter was reported at the action's parenthesis
    "duplicate-parameter": (
        "domain", "(define (domain d) (:predicates (p ?x))\n  (:action a :parameters (?x ?y\n"
        " ?x) :effect (p ?x)))", (3, 2)),
    # a repeated constant failed only in grounding, in the problem file at 0:0
    "repeated-constant": ("domain", "(define (domain d)\n  (:constants c1 c2\n    c1))", (3, 5)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_form_is_a_parse_error_at_its_position(case):
    kind, text, where = MALFORMED[case]
    parse = parse_domain if kind == "domain" else parse_problem
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == where


def test_cli_malformed_forms_exit_with_input_error(tmp_path, capsys):
    for case, (kind, text, (line, col)) in sorted(MALFORMED.items()):
        path = tmp_path / f"{case}.pddl"
        path.write_text(text)
        files = [str(path), fixture_path("gripper-1.pddl")] if kind == "domain" \
            else [fixture_path("gripper.pddl"), str(path)]
        assert cli.main(["solve", *files]) == cli.EXIT_INPUT, case
        err = capsys.readouterr().err
        assert f"{path}:{line}:{col}:" in err and "Traceback" not in err


def test_negative_precondition_rejected():
    text = """
    (define (domain neg)
      (:requirements :strips)
      (:predicates (p) (q))
      (:action bad :parameters () :precondition (not (p)) :effect (q)))
    """
    with pytest.raises(ParseError):
        parse_domain(text)


def test_empty_goal_conjunction():
    ast = parse_problem("(define (problem e) (:domain mini) (:init (p)) (:goal (and)))")
    assert ast.goal == ()


def test_gripper_problem_init_atoms():
    ast = load_problem(fixture_path("gripper-2.pddl"))
    at_atoms = [a for a in ast.init if a.pred == "at"]
    assert len(at_atoms) == 2
    assert len(ast.init) == 5   # 2 at + at-robby + 2 free
    assert ast.init[0].pred == "at-robby"   # source order preserved


def test_goal_with_unknown_object():
    domain = load_domain(fixture_path("gripper.pddl"))
    text = """
    (define (problem bad) (:domain gripper)
      (:objects rooma - room ball1 - ball left - gripper)
      (:init (at-robby rooma) (free left) (at ball1 rooma))
      (:goal (at ball1 nowhere)))
    """
    problem = parse_problem(text)
    with pytest.raises(UndeclaredNameError) as err:
        ground(domain, problem)
    assert "nowhere" in str(err.value)


def test_undeclared_predicate_in_action():
    text = """
    (define (domain u) (:requirements :strips) (:predicates (p))
      (:action a :parameters () :precondition (p) :effect (mystery)))
    """
    with pytest.raises(PddlError):
        parse_domain(text)


def test_undeclared_variable_in_action():
    text = """
    (define (domain u) (:requirements :strips) (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (p ?x) :effect (p ?y)))
    """
    with pytest.raises(UndeclaredNameError) as err:
        parse_domain(text)
    assert "?y" in str(err.value)


def test_duplicate_object_names_rejected():
    domain = load_domain(fixture_path("gripper.pddl"))
    text = """
    (define (problem dup) (:domain gripper)
      (:objects rooma rooma - room ball1 - ball left - gripper)
      (:init (at-robby rooma) (free left) (at ball1 rooma))
      (:goal (at ball1 rooma)))
    """
    with pytest.raises(UndeclaredNameError):
        ground(domain, parse_problem(text))


@pytest.mark.parametrize("old,new", [("(at-robby rooma)", "(at-robby roomz)"),
                                     ("(:domain gripper)", "(:domain grippy)"),
                                     ("(at ball1 rooma)", "(at left rooma)")])
def test_problem_check_errors_name_the_problem_file(tmp_path, capsys, old, new):
    with open(fixture_path("gripper-1.pddl")) as fh:
        text = fh.read()
    assert old in text
    path = str(tmp_path / "bad-problem.pddl")
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))
    with pytest.raises(UndeclaredNameError) as err:
        ground(load_domain(fixture_path("gripper.pddl")), load_problem(path))
    assert str(err.value).startswith(f"{path}:")
    assert cli.main(["solve", fixture_path("gripper.pddl"), path]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {path}:")


# problem-side errors once read file:0:0: (text replaced in gripper-1, its
# replacement, the message); the error is at the replacement's first object
# or atom
PROBLEM_ERRORS = {
    "undeclared-type": ("ball1 - ball", "ball1 - bin", "undeclared type bin"),
    "duplicate-object": ("right - gripper", "rooma - gripper", "duplicate object name rooma"),
    "undeclared-object-in-init": ("(free right)", "(free middle)", "undeclared object middle"),
    "undeclared-object-in-goal": ("(at ball1 roomb)", "(at ball1 roomz)",
                                  "undeclared object roomz"),
    "undeclared-predicate": ("(free left)", "(loose left)", "undeclared predicate loose"),
    "wrong-arity": ("(at-robby rooma)", "(at-robby rooma roomb)",
                    "predicate at-robby expects 1 arguments"),
    "not-type-consistent": ("(at ball1 rooma)", "(at left rooma)",
                            "atom (at left rooma) in :init is not type-consistent"),
    # the last problem-side error without a line: it is at the domain name
    "wrong-domain": ("gripper)\n  (:objects", "grippy)\n  (:objects",
                     "problem declares domain grippy, expected gripper"),
}


@pytest.mark.parametrize("case", sorted(PROBLEM_ERRORS))
def test_problem_check_errors_carry_their_position(tmp_path, capsys, case):
    old, new, message = PROBLEM_ERRORS[case]
    with open(fixture_path("gripper-1.pddl")) as fh:
        text = fh.read()
    assert text.count(old) == 1
    text = text.replace(old, new)
    before = text[:text.index(new)]
    line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
    path = str(tmp_path / "bad-problem.pddl")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(UndeclaredNameError) as err:
        ground(load_domain(fixture_path("gripper.pddl")), load_problem(path))
    assert str(err.value).startswith(f"{path}:{line}:{col}: {message}")
    assert cli.main(["solve", fixture_path("gripper.pddl"), path]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {path}:{line}:{col}: {message}")


def _typed_domain(constant: str = "c - ball", predicate: str = "?r - room",
                  parameter: str = "?r - room") -> str:
    return ("(define (domain t) (:requirements :strips :typing)\n"
            "  (:types ball room)\n"
            f"  (:constants {constant})\n"
            f"  (:predicates (at ?b - ball {predicate}))\n"
            f"  (:action go :parameters (?b - ball {parameter}) :effect (at ?b ?r)))")


TYPED_PROBLEM = "(define (problem t1) (:domain t) (:objects {}) (:init) (:goal (at c r1)))"


# an undeclared type once failed later, as an atom that is not type-consistent
# in <input>, or grounded an action to nothing: (domain, problem objects)
UNDECLARED_TYPES = {
    "constant": (_typed_domain(constant="c - bin"), "r1 - room"),
    "predicate-parameter": (_typed_domain(predicate="?r - bin"), "r1 - room"),
    "action-parameter": (_typed_domain(parameter="?r - bin"), "r1 - room"),
    "object": (_typed_domain(), "r1 - bin"),
}


@pytest.mark.parametrize("case", sorted(UNDECLARED_TYPES))
def test_undeclared_type_is_an_error_naming_it(tmp_path, capsys, case):
    domain_text, objects = UNDECLARED_TYPES[case]
    domain, problem = tmp_path / "domain.pddl", tmp_path / "problem.pddl"
    domain.write_text(domain_text)
    problem.write_text(TYPED_PROBLEM.format(objects))
    if case == "object":    # at the object, in the problem
        col = TYPED_PROBLEM.index("{}") + 1
        where = f"{problem}:1:{col}: undeclared type bin of object r1"
    else:
        line = next(i for i, text in enumerate(domain_text.split("\n"), 1) if "- bin" in text)
        col = domain_text.split("\n")[line - 1].index("- bin") + 3
        where = f"{domain}:{line}:{col}: undeclared type bin"
    with pytest.raises(UndeclaredNameError) as err:
        ground(load_domain(str(domain)), load_problem(str(problem)))
    assert str(err.value) == where
    assert cli.main(["solve", str(domain), str(problem)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {where}\n"


def _assert_input_error(tmp_path, capsys, domain_text: str, problem_text: str,
                        error: type, where) -> None:
    """Grounding the two texts, and ``pocl solve`` on them, fail with ``error``
    reading ``where(domain_path, problem_path)``; the CLI exits 3."""
    domain, problem = tmp_path / "d.pddl", tmp_path / "p.pddl"
    domain.write_text(domain_text)
    problem.write_text(problem_text)
    message = where(domain, problem)
    with pytest.raises(error) as err:
        ground(load_domain(str(domain)), load_problem(str(problem)))
    assert str(err.value) == message
    assert cli.main(["solve", str(domain), str(problem)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_repeated_constant_is_an_error_at_the_repeat(tmp_path, capsys):
    text = _typed_domain(constant="c1 c2 c1 - ball")
    line = text.split("\n")[2]
    col = line.index("c1", line.index("c1") + 1) + 1
    _assert_input_error(tmp_path, capsys, text, TYPED_PROBLEM.format("r1 - room"), ParseError,
                        lambda d, p: f"{d}:3:{col}: repeated constant c1 in domain t")


@pytest.mark.parametrize("objects,name", [("r1 - room c - ball", "c"),
                                          ("r1 - room b1 - ball b1 - ball", "b1")])
def test_an_object_that_repeats_a_name_is_an_error_at_the_object(tmp_path, capsys,
                                                                  objects, name):
    problem = TYPED_PROBLEM.format(objects)
    col = problem.rindex(f" {name} - ball") + 2
    _assert_input_error(tmp_path, capsys, _typed_domain(), problem, UndeclaredNameError,
                        lambda d, p: f"{p}:1:{col}: duplicate object name {name}")


def test_a_type_inconsistent_action_atom_is_reported_in_the_domain(tmp_path, capsys):
    # ?b ranges over every object, and (at r1 r1) is no fact; this once named
    # the problem file at 0:0
    text = ("(define (domain t) (:requirements :strips :typing)\n"
            "  (:types ball room)\n"
            "  (:predicates (at ?b - ball ?r - room))\n"
            "  (:action go :parameters (?b - object ?r - room)\n"
            "     :effect (at ?b ?r)))")
    col = text.split("\n")[4].index("(at") + 1
    problem = ("(define (problem t1) (:domain t) (:objects b1 - ball r1 - room) (:init)"
               " (:goal (and)))")
    _assert_input_error(
        tmp_path, capsys, text, problem, UndeclaredNameError,
        lambda d, p: f"{d}:5:{col}: atom (at r1 r1) in action go is not type-consistent")


PROBLEM = "(define (problem t) (:domain d) (:objects o1) (:init (p o1)) (:goal {}))"

# an action atom error, in the words of the problem side and at the atom:
# (precondition, column on line 4, message); the = cases once passed
# unchecked, (= ?x ?zz) making the search end exhausted, and o1, a problem
# object, once grounded as if it were a domain constant
ACTION_ERRORS = {
    "undeclared-predicate": ("(q ?x)", 5, "undeclared predicate q"),
    "wrong-arity": ("(p ?x ?x)", 5, "predicate p expects 1 arguments"),
    "undeclared-variable": ("(p ?y)", 5, "undeclared variable ?y"),
    "problem-object": ("(p o1)", 5, "undeclared object o1"),
    "equality-variable": ("(= ?x ?zz)", 5, "undeclared variable ?zz"),
    "inequality-variable": ("(not (= ?x ?zz))", 10, "undeclared variable ?zz"),
    "equality-object": ("(= ?x o1)", 5, "undeclared object o1"),
}


@pytest.mark.parametrize("case", sorted(ACTION_ERRORS))
def test_an_action_atom_error_is_reported_at_the_atom(tmp_path, capsys, case):
    pre, col, message = ACTION_ERRORS[case]
    _assert_input_error(tmp_path, capsys, _domain_with_precondition(pre),
                        PROBLEM.format("(p o1)"), UndeclaredNameError,
                        lambda d, p: f"{d}:4:{col}: {message} in action a")


def test_an_action_may_name_a_domain_constant():
    text = ("(define (domain d) (:constants c1) (:predicates (p ?x))\n"
            "  (:action a :parameters (?x) :precondition (and (p c1) (not (= ?x c1)))\n"
            "    :effect (p ?x)))")
    schema = parse_domain(text).schemas[0]
    assert schema.precond == (Atom("p", ("c1",)),)
    assert schema.eq_constraints == (EqConstraint("?x", "c1", False),)


@pytest.mark.parametrize("goal", ["(not (p o1))", "(and (p o1) (not (= o1 o1)))", "(not)"])
def test_a_negative_goal_is_an_error_at_the_literal(tmp_path, capsys, goal):
    # (not (p o1)) once read "expected an argument" at (p o1)
    problem = PROBLEM.format(goal)
    col = problem.index("(not") + 1
    _assert_input_error(tmp_path, capsys, _domain_with_precondition("(p ?x)"), problem,
                        ParseError,
                        lambda d, p: f"{p}:1:{col}: negative goals are not supported (STRIPS)")


def test_a_goal_is_read_as_a_precondition_is():
    # () is the empty conjunction, and a list is no formula head
    assert parse_problem(PROBLEM.format("(and (p o1) ())")).goal == (Atom("p", ("o1",)),)
    text = PROBLEM.format("(and ((p) o1))")
    with pytest.raises(ParseError) as err:
        parse_problem(text, "t.pddl")
    assert str(err.value) == f"t.pddl:1:{text.index('(p)') + 1}: expected a formula head"


def test_the_first_undeclared_type_in_the_text_is_reported():
    # the constants come last in the text, so source order is not record order
    text = ("(define (domain t) (:types ball) (:predicates (at ?b))\n"
            "  (:action go :parameters (?b - box) :effect (at ?b))\n"
            "  (:constants c - crate))")
    with pytest.raises(UndeclaredNameError) as err:
        parse_domain(text, "t.pddl")
    col = text.split("\n")[1].index("box") + 1
    assert str(err.value) == f"t.pddl:2:{col}: undeclared type box"


def test_a_parent_type_is_declared():
    ast = parse_domain("(define (domain t) (:types ball - thing box)\n"
                       "  (:constants c - thing d - object))")
    assert ast.declared_types() == {"object", "ball", "thing", "box"}


# ── Grounding ────────────────────────────────────────────────────────────────

def _gripper2():
    return (load_domain(fixture_path("gripper.pddl")),
            load_problem(fixture_path("gripper-2.pddl")))


def test_gripper_grounding_counts():
    task = ground(*_gripper2())
    by_schema = {}
    for act in task.actions:
        by_schema.setdefault(act.name.split()[0], []).append(act)
    # 2 balls x 2 rooms x 2 grippers = 8 for pick and drop; ordered room pairs
    # minus the equal ones = 2 for move
    assert len(by_schema["pick"]) == 8
    assert len(by_schema["drop"]) == 8
    assert len(by_schema["move"]) == 2


def test_grounding_matches_brute_force_binding_count():
    domain, problem = _gripper2()
    objects_by_type = {"room": ["rooma", "roomb"], "ball": ["ball1", "ball2"],
                       "gripper": ["left", "right"]}
    expected = 0
    for schema in domain.schemas:
        bindings = enumerate_bindings(objects_by_type, [p.type for p in schema.params])
        if schema.eq_constraints:
            names = [p.name for p in schema.params]
            bindings = [b for b in bindings
                        if all((dict(zip(names, b))[e.left] == dict(zip(names, b))[e.right])
                               == e.equal for e in schema.eq_constraints)]
        expected += len(bindings)
    task = ground(domain, problem)
    assert len(task.actions) == expected


def test_zero_parameter_schema_grounds_once():
    text = """
    (define (domain z) (:requirements :strips) (:predicates (p) (q))
      (:action zap :parameters () :precondition (p) :effect (q)))
    """
    problem = parse_problem("(define (problem z1) (:domain z) (:init (p)) (:goal (q)))")
    task = ground(parse_domain(text), problem)
    assert len(task.actions) == 1


def test_grounding_deterministic():
    domain, problem = _gripper2()
    a = ground(domain, problem)
    b = ground(domain, problem)
    assert a.facts == b.facts
    assert [x.name for x in a.actions] == [x.name for x in b.actions]
    assert a.init == b.init and a.goal == b.goal


def test_add_delete_disjoint_invariant():
    domain, problem = _gripper2()
    task = ground(domain, problem)
    for act in task.actions:
        assert not (act.add & act.delete)


def test_typed_hierarchy_grounding():
    domain = load_domain(fixture_path("logistics.pddl"))
    problem = load_problem(fixture_path("logistics-2c.pddl"))
    task = ground(domain, problem)
    # trucks drive between the three in-city places; airplane only at airports
    drives = [a for a in task.actions if a.name.startswith("drive-truck")]
    flies = [a for a in task.actions if a.name.startswith("fly-airplane")]
    assert len(drives) == 6     # 1 truck x (3x3 - 3) place pairs x 1 city
    assert len(flies) == 0      # a single airport leaves no from != to pair


# ── Round-trips ──────────────────────────────────────────────────────────────

def test_domain_round_trip():
    for name in ("gripper.pddl", "logistics.pddl", "blocks.pddl"):
        ast = load_domain(fixture_path(name))
        assert parse_domain(domain_to_pddl(ast)) == ast


def test_problem_round_trip():
    for name in ("gripper-2.pddl", "logistics-3a.pddl", "blocks-rev-3.pddl"):
        ast = load_problem(fixture_path(name))
        assert parse_problem(problem_to_pddl(ast)) == ast


# ── Fuzzing ──────────────────────────────────────────────────────────────────

FIXTURE_NAMES = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".pddl"))
TOKEN_POOL = ("(", ")", "define", "domain", "problem", ":domain", ":action", ":parameters",
              ":precondition", ":effect", ":requirements", ":types", ":constants",
              ":predicates", ":objects", ":init", ":goal", "and", "not", "=", "-", "?x",
              "object", ":strips", ":typing")


def _fixture_tokens(name: str) -> list[str]:
    with open(fixture_path(name), encoding="utf-8") as fh:
        text = re.sub(r";[^\n]*", "", fh.read())
    return re.findall(r"[()]|[^\s()]+", text)


def _at(name: str, token: str, nth: int = 0) -> int:
    """Index of the ``nth`` occurrence of ``token`` in a fixture's tokens."""
    return [i for i, t in enumerate(_fixture_tokens(name)) if t == token][nth]


def _mutate(tokens: list[str], edits) -> str:
    """Apply (op, position, token) edits; positions wrap around the list."""
    out = list(tokens)
    for op, pos, tok in edits:
        if op == "insert":
            out.insert(pos % (len(out) + 1), tok)
        elif out and op == "delete":
            del out[pos % len(out)]
        elif out:
            out[pos % len(out)] = tok
    return " ".join(out)


def _parse_and_ground(name: str, text: str) -> None:
    """Parse a mutated fixture and ground it with its unmutated partner file."""
    if "-" in name:   # problem files are named DOMAIN-...
        ground(load_domain(fixture_path(name.split("-")[0] + ".pddl")), parse_problem(text))
    else:
        partner = min(n for n in FIXTURE_NAMES if n.startswith(name[:-len(".pddl")] + "-"))
        ground(parse_domain(text), load_problem(fixture_path(partner)))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_fixture_parses_and_grounds(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        _parse_and_ground(name, fh.read())


EDITS = st.lists(st.tuples(st.sampled_from(("delete", "insert", "replace")),
                           st.integers(0, 10_000), st.sampled_from(TOKEN_POOL)),
                 min_size=1, max_size=3)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(FIXTURE_NAMES), edits=EDITS)
@example(name="gripper-1.pddl", edits=[("delete", _at("gripper-1.pddl", ":domain") + 1, "(")])
@example(name="gripper.pddl", edits=[("insert", _at("gripper.pddl", ":action", -1) + 1, ")"),
                                     ("delete", -2, ")")])
@example(name="gripper.pddl", edits=[("replace", _at("gripper.pddl", "at-robby", 1), "=")])
@example(name="gripper.pddl", edits=[("delete", _at("gripper.pddl", "=") + 2, "(")])
def test_fuzzed_pddl_raises_only_pddl_errors(name, edits):
    # the examples make (:domain), (:action), (= ?from) and (not (= ?from))
    try:
        _parse_and_ground(name, _mutate(_fixture_tokens(name), edits))
    except PddlError:
        pass


def _tree(form):
    """A read form as the reference reader gives it."""
    if isinstance(form, _Node):
        return ("(", form.line, form.col, tuple(_tree(item) for item in form.items))
    return (form.value, form.line, form.col)


WORDS = st.sampled_from(["a", "Bc", "?x", "-", ":init", "\u00e9", "x\fy"])
GAPS = st.sampled_from(["", " ", "\n", "\t", "\r\n", " ;note (\n", "  "])
FORMS = st.recursive(WORDS, lambda forms: st.tuples(st.lists(st.tuples(GAPS, forms)), GAPS).map(
    lambda t: "(" + "".join(gap + form for gap, form in t[0]) + t[1] + ")"), max_leaves=20)


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(st.tuples(GAPS, FORMS, GAPS).map("".join),
                      st.lists(st.one_of(WORDS, GAPS, st.sampled_from("();")), max_size=30)
                      .map("".join)))
def test_reader_agrees_with_a_recursive_reference(text):
    try:
        expected = read_sexpr(text)
    except ParseError:
        with pytest.raises(ParseError):
            _read_sexpr(text, "t")
        return
    assert _tree(_read_sexpr(text, "t")) == expected


# ── Source positions ─────────────────────────────────────────────────────────

def _records(ast) -> tuple[list, list]:
    """The atoms and typed names a parsed domain or problem holds."""
    if isinstance(ast, ProblemAst):
        return list(ast.init + ast.goal), list(ast.objects)
    atoms = [a for s in ast.schemas for a in s.precond + s.add + s.delete]
    names = list(ast.types + ast.constants) + [n for _, params in ast.predicates
                                                for n in params]
    return atoms, names + [p for s in ast.schemas for p in s.params]


def _reads(lines: list[str], pos: tuple[int, int], word: str, opener: str = "") -> bool:
    """Whether the text at ``pos`` is ``opener`` and then the token ``word``."""
    line, col = pos
    rest = lines[line - 1][col - 1:].lower()
    return re.match(rf"{opener}{re.escape(word)}(?=[\s();]|$)", rest) is not None


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_record_carries_its_source_position(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    parse = parse_problem if "-" in name else parse_domain    # problems are DOMAIN-...
    ast = parse(text, fixture_path(name))
    atoms, names = _records(ast)
    assert atoms and names
    for atom in atoms:
        assert _reads(lines, atom.pos, atom.pred, opener=r"\(\s*"), atom
    for n in names:
        assert _reads(lines, n.pos, n.name), n
        if n.type_pos == (0, 0):
            assert n.type == ROOT_TYPE, n
        else:
            assert _reads(lines, n.type_pos, n.type), n
    # the same text two lines down: every position moves, no record changes
    moved = parse("\n\n" + text, "moved.pddl")
    assert moved == ast and hash(moved) == hash(ast)
    moved_atoms, moved_names = _records(moved)
    assert [a.pos for a in moved_atoms] == [(a.pos[0] + 2, a.pos[1]) for a in atoms]
    assert [n.pos for n in moved_names] == [(n.pos[0] + 2, n.pos[1]) for n in names]
    for record in atoms + names:
        unplaced = dataclasses.replace(record, pos=(0, 0))
        assert unplaced == record and hash(unplaced) == hash(record)
