"""tools/ab_search.py: two checkouts side by side in one process."""

from __future__ import annotations

import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import ab_search  # noqa: E402


def test_a_checkout_agrees_with_itself(capsys):
    assert ab_search.main([ROOT, ROOT, "--workload", "suite-reuse", "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert ("suite-reuse, 2 rounds, CPU seconds; outputs identical; grounded tasks identical"
            in out)
    # each round times the searches and the set-up (parse, ground, tables) of both sides
    rounds = [line for line in out.splitlines() if line.startswith("round ")]
    assert len(rounds) == 2 and all(";  set-up A " in line for line in rounds)
    assert out.count("B faster in") == 2
    assert "  search B/A of medians " in out and "  set-up B/A of medians " in out


def test_the_learn_workload_agrees_with_itself(capsys):
    # the tuned-model cell is built from its spec, model:FILE:enhanced
    assert ab_search.main([ROOT, ROOT, "--workload", "learn", "--rounds", "1"]) == 0
    assert "learn, 1 rounds, CPU seconds; outputs identical" in capsys.readouterr().out


def _copy(tmp_path):
    """A copy of this checkout's package and fixtures."""
    other = tmp_path / "other"
    shutil.copytree(os.path.join(ROOT, "src", "poclkit"), other / "src" / "poclkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "tests", "fixtures"), other / "tests" / "fixtures")
    return other


def test_checkouts_that_ground_differently_are_reported(tmp_path, capsys):
    # a copy whose gripper domain names its move action go
    other = _copy(tmp_path)
    domain = other / "tests" / "fixtures" / "gripper.pddl"
    text = domain.read_text()
    assert text.count("(:action move") == 1
    domain.write_text(text.replace("(:action move", "(:action go"))
    assert ab_search.main([ROOT, str(other), "--workload", "suite-reuse", "--rounds", "1"]) == 1
    captured = capsys.readouterr()
    assert "the sides ground different tasks: A ('gripper-1'" in captured.err
    assert "round 0" not in captured.out


def test_checkouts_that_search_differently_are_reported(tmp_path, capsys):
    # a copy whose copy bound is 1 generates other children on some problems
    other = _copy(tmp_path)
    plans = other / "src" / "poclkit" / "plans.py"
    text = plans.read_text()
    assert "\nMAX_COPIES = 2 " in text
    plans.write_text(text.replace("\nMAX_COPIES = 2 ", "\nMAX_COPIES = 1 "))
    assert ab_search.main([ROOT, str(other), "--workload", "suite-reuse", "--rounds", "1"]) == 1
    assert "round 0: the sides differ" in capsys.readouterr().err


def test_checkouts_that_write_other_plans_are_reported(tmp_path, capsys):
    # a copy whose plan text differs while every count stays the same
    other = _copy(tmp_path)
    plans = other / "src" / "poclkit" / "plans.py"
    text = plans.read_text()
    assert text.count('f";; makespan=') == 1
    plans.write_text(text.replace('f";; makespan=', 'f";; span='))
    assert ab_search.main([ROOT, str(other), "--workload", "suite-reuse", "--rounds", "1"]) == 1
    assert "round 0: the sides differ" in capsys.readouterr().err
