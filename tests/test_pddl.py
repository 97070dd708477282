"""Parser and grounder tests, including round-trip and binding-count checks
and a token-mutation fuzz of the fixtures."""

from __future__ import annotations

import os
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from poclkit import cli
from poclkit.grounding import ground
from poclkit.pddl import (ParseError, PddlError, UndeclaredNameError,
                          UnsupportedRequirementError, domain_to_pddl, load_domain,
                          load_problem, parse_domain, parse_problem, problem_to_pddl)

from conftest import FIXTURES, fixture_path
from oracles import enumerate_bindings

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
                                     ("(:domain gripper)", "(:domain grippy)")])
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
