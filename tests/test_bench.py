"""IPC-style scoring arithmetic, suite runs, report format, CLI surface."""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import re
import subprocess
import sys

import pytest

from poclkit import bench, cli, search
from poclkit.bench import (SuiteConfig, build_evaluator, makespan_score, nodes_score,
                           parse_suite_config, quality_score, run_suite, time_score,
                           REPORT_HEADER)
from poclkit.grounding import load_task
from poclkit.heuristics import build_tables
from poclkit.learning import LinearModel, save_model
from poclkit.plans import format_plan
from poclkit.search import FeatureEvaluator, ModelEvaluator, SearchLimits, gbfs

from conftest import fixture_path, load_fixture_task


# ── score arithmetic ─────────────────────────────────────────────────────────

def test_quality_score():
    assert quality_score(10, 10) == 1.0
    assert quality_score(12, 10) == pytest.approx(10 / 12, abs=1e-12)
    assert quality_score(None, 10) == 0.0


def test_time_score_full_under_one_second():
    assert time_score(0.4, 0.1) == 1.0
    assert time_score(1.0, 0.2) == 1.0


def test_time_score_log_falloff():
    assert time_score(10, 10) == 1.0
    assert time_score(100, 10) == pytest.approx(0.5, abs=1e-12)
    assert time_score(None, 1) == 0.0


def test_nodes_and_makespan_scores():
    assert nodes_score(500, 500) == 1.0
    assert nodes_score(1000, 500) == 0.5
    assert makespan_score(8, 4) == 0.5
    assert makespan_score(4, 4) == 1.0
    assert nodes_score(None, 1) == 0.0
    assert makespan_score(None, 1) == 0.0


# ── evaluator specs ──────────────────────────────────────────────────────────

def test_build_evaluator_base_features(gripper2_tables):
    for spec, feature in (("gval", "h_gval"), ("oc", "h_oc"), ("add", "h_add"),
                          ("add_w", "h_add_w"), ("add_r", "h_add_r"),
                          ("add_w_r", "h_add_w_r")):
        evaluator = build_evaluator(spec, gripper2_tables)
        assert isinstance(evaluator, FeatureEvaluator)
        assert evaluator.name == feature


def test_build_evaluator_model_specs(tmp_path, gripper2_tables):
    path = str(tmp_path / "m.json")
    save_model(LinearModel((1.0,), 0.0, (2,), {"base_heuristic": "h_add"}), path)
    plain = build_evaluator(f"model:{path}", gripper2_tables)
    assert isinstance(plain, ModelEvaluator) and plain.tracker is None
    enhanced = build_evaluator(f"model:{path}:enhanced", gripper2_tables)
    assert isinstance(enhanced, ModelEvaluator)
    assert enhanced.model == plain.model
    assert enhanced.tracker.observations == 0
    # fresh tracker per construction
    other = build_evaluator(f"model:{path}:enhanced", gripper2_tables)
    assert other.tracker is not enhanced.tracker


def test_build_evaluator_unknown_spec(gripper2_tables):
    with pytest.raises(ValueError):
        build_evaluator("h-add", gripper2_tables)


# ── suite config ─────────────────────────────────────────────────────────────

def test_parse_suite_config(tmp_path):
    text = """
    # comment
    domain = gripper.pddl
    problem = gripper-1.pddl
    problem = gripper-2.pddl
    evaluator = add
    evaluator = oc
    flaws = mc-loc
    max_nodes = 1234
    timeout = 5.5
    out_dir = out
    workers = 1
    """
    config = parse_suite_config(text, base_dir="/base")
    assert config.domain == "/base/gripper.pddl"
    assert config.problems == ["/base/gripper-1.pddl", "/base/gripper-2.pddl"]
    assert config.evaluators == ["add", "oc"]
    assert config.strategy == "mc-loc"
    assert config.max_generated == 1234
    assert config.wall_time == 5.5
    assert config.workers == 1


def test_parse_suite_config_defaults_are_suite_config_defaults():
    text = "domain = d.pddl\nproblem = p.pddl\nevaluator = add\nevaluator = oc\n"
    assert parse_suite_config(text, base_dir="/base") == SuiteConfig(
        "/base/d.pddl", ["/base/p.pddl"], ["add", "oc"], out_dir="/base/bench-out")


def test_parse_suite_config_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_suite_config("domain gripper.pddl")
    with pytest.raises(ValueError):
        parse_suite_config("domain=d.pddl\nevaluator=add")   # no problems


def test_parse_suite_config_rejects_unknown_keys(tmp_path, capsys):
    # a misspelt key, and seed, which no part of a run ever read
    for key in ("max_node", "seed"):
        text = f"domain = d.pddl\nproblem = p.pddl\nevaluator = add\n{key} = 10\n"
        with pytest.raises(ValueError, match=rf"line 4: unknown key '{key}'"):
            parse_suite_config(text)
        config_path = tmp_path / "suite.cfg"
        config_path.write_text(text)
        assert cli.main(["bench", str(config_path)]) == cli.EXIT_INPUT
        assert f"unknown key '{key}'" in capsys.readouterr().err


def test_parse_suite_config_rejects_repeated_keys(tmp_path, capsys):
    text = (f"domain = {fixture_path('gripper.pddl')}\nproblem = p.pddl\nevaluator = add\n"
            f"domain = {fixture_path('blocks.pddl')}\n")
    with pytest.raises(ValueError, match=r"line 4: repeated key 'domain' \(first on line 1\)"):
        parse_suite_config(text)
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(text)
    assert cli.main(["bench", str(config_path)]) == cli.EXIT_INPUT
    assert "repeated key 'domain'" in capsys.readouterr().err


@pytest.mark.parametrize("key, first, second", [
    ("problem", "gripper-1.pddl", "gripper-1.pddl"),
    ("problem", "gripper-1.pddl", "./gripper-1.pddl"),
    ("evaluator", "add", "add"),
    ("evaluator", "model:m.json:enhanced", "model:m.json:enhanced"),
])
def test_parse_suite_config_rejects_duplicate_entries(tmp_path, capsys, key, first, second):
    other = {"problem": "evaluator = oc", "evaluator": "problem = gripper-2.pddl"}[key]
    text = f"domain = gripper.pddl\n{key} = {first}\n{other}\n{key} = {second}\n"
    with pytest.raises(ValueError, match=rf"line 4: repeated {key} .*\(first on line 2\)"):
        parse_suite_config(text)
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(text)
    assert cli.main(["bench", str(config_path)]) == cli.EXIT_INPUT
    assert f"repeated {key}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("max_nodes", "-3"), ("max_nodes", "0"), ("max_nodes", "1.5"), ("timeout", "-1"),
    ("timeout", "0"), ("timeout", "nan"), ("max_copies", "-1"), ("max_copies", "0"),
    ("workers", "-1"), ("flaws", "xx"), ("evaluator", "bogus"), ("evaluator", "model:"),
    ("evaluator", "model::enhanced"),
])
def test_parse_suite_config_rejects_out_of_range_numbers(tmp_path, capsys, key, value):
    # a limit no search can meet, or an evaluator no search has, would run
    # cells that cannot succeed
    text = (f"domain = {fixture_path('gripper.pddl')}\n"
            f"problem = {fixture_path('gripper-1.pddl')}\nevaluator = add\n"
            f"out_dir = {tmp_path / 'out'}\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"line 5: {key} must be .*got '{value}'"):
        parse_suite_config(text)
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(text)
    assert cli.main(["bench", str(config_path)]) == cli.EXIT_INPUT
    assert f"{key} must be" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_parse_suite_config_accepts_boundary_numbers():
    text = ("domain = d.pddl\nproblem = p.pddl\nevaluator = add\n"
            "max_nodes = 1\ntimeout = 0.5\nmax_copies = 1\nworkers = 0\n")
    config = parse_suite_config(text)
    assert (config.max_generated, config.wall_time, config.max_copies,
            config.workers) == (1, 0.5, 1, 0)
    assert parse_suite_config(text.replace("max_copies = 1", "max_copies = none")) \
        .max_copies is None


def test_parse_suite_config_rebases_model_paths():
    text = """
    domain = d.pddl
    problem = p.pddl
    evaluator = add
    evaluator = model:m.json
    evaluator = model:m.json:enhanced
    """
    config = parse_suite_config(text, base_dir="/base")
    assert config.evaluators == ["add", "model:/base/m.json", "model:/base/m.json:enhanced"]


def _suite(tmp_path, problems=("gripper-1.pddl", "gripper-2.pddl"),
           evaluators=("add", "oc"), workers=1, max_nodes=20000):
    return SuiteConfig(
        domain=fixture_path("gripper.pddl"),
        problems=[fixture_path(p) for p in problems],
        evaluators=list(evaluators),
        strategy="mw-loc",
        max_generated=max_nodes,
        wall_time=20.0,
        out_dir=str(tmp_path / "out"),
        workers=workers,
    )


@pytest.mark.parametrize("name, value", [
    ("max_generated", 0), ("strategy", "bogus"), ("max_copies", 0), ("wall_time", -1.0),
    ("wall_time", math.nan), ("workers", -1),
])
def test_run_suite_rejects_bad_settings_before_any_cell(tmp_path, monkeypatch, name, value):
    # a limit no search can meet would otherwise make every row unsolved, and
    # workers = -1 would mean one worker per core
    monkeypatch.setattr(bench, "_run_cell", lambda cell: pytest.fail("a cell ran"))
    config = _suite(tmp_path)
    setattr(config, name, value)
    with pytest.raises(ValueError, match=rf"^{name} must be .*got {re.escape(repr(value))}$"):
        run_suite(config)
    assert not os.path.exists(config.out_dir)


def test_run_suite_makes_out_dir_before_any_cell(tmp_path, monkeypatch):
    # an out_dir that cannot be made must fail before the suite is searched
    monkeypatch.setattr(bench, "_run_cell", lambda cell: pytest.fail("a cell ran"))
    config = _suite(tmp_path, problems=("gripper-1.pddl",), evaluators=("add",))
    config.out_dir = str(tmp_path / "taken")
    (tmp_path / "taken").write_text("a file, not a directory\n")
    with pytest.raises(OSError):
        run_suite(config)


def test_time_s_is_the_search_time(tmp_path, monkeypatch, capsys):
    def timed_gbfs(*args, **kwargs):
        result = search.gbfs(*args, **kwargs)
        result.elapsed = 12.3456
        return result

    monkeypatch.setattr(bench, "gbfs", timed_gbfs)
    monkeypatch.setattr(cli, "gbfs", timed_gbfs)
    report = run_suite(_suite(tmp_path, problems=("gripper-1.pddl",), evaluators=("add",)))
    assert report.rows[0].time_s == 12.3456
    assert cli.main(["solve", fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl")]) == 0
    assert "time_s=12.346\n" in capsys.readouterr().out


def test_run_suite_report(tmp_path):
    report = run_suite(_suite(tmp_path))
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.solved
        assert 0.0 <= row.quality <= 1.0
        assert 0.0 <= row.nodes_score <= 1.0
    # the per-problem best solver scores exactly 1.0 on each metric
    for problem in ("gripper-1", "gripper-2"):
        rows = [r for r in report.rows if r.problem == problem]
        assert max(r.quality for r in rows) == 1.0
        assert max(r.nodes_score for r in rows) == 1.0
        assert max(r.makespan_score for r in rows) == 1.0
    # aggregates equal the column sums recomputed from the CSV
    with open(report.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == REPORT_HEADER
    for evaluator in ("add", "oc"):
        sums = {k: 0.0 for k in ("quality", "time_score", "nodes_score", "makespan_score")}
        coverage = 0
        for row in rows:
            if row["evaluator"] == evaluator:
                coverage += int(row["solved"])
                for k in sums:
                    sums[k] += float(row[k])
        agg = report.aggregates[evaluator]
        assert coverage == agg["coverage"]
        assert sums["quality"] == pytest.approx(agg["quality"], abs=1e-6)
        assert sums["nodes_score"] == pytest.approx(agg["nodes"], abs=1e-6)
        assert sums["makespan_score"] == pytest.approx(agg["makespan"], abs=1e-6)


def test_run_suite_unsolved_rows_score_zero(tmp_path):
    config = _suite(tmp_path, problems=("gripper-1.pddl",), evaluators=("add",),
                    max_nodes=1)
    report = run_suite(config)
    row = report.rows[0]
    assert not row.solved
    assert row.quality == row.time_score == row.nodes_score == row.makespan_score == 0.0
    assert report.aggregates["add"]["coverage"] == 0


def _report_without_time(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    idx = rows[0].index("time_s")
    return [[v for i, v in enumerate(row) if i != idx] for row in rows]


def test_run_suite_parallel_deterministic(tmp_path):
    r1 = run_suite(_suite(tmp_path / "a", workers=2))
    r2 = run_suite(_suite(tmp_path / "b", workers=2))
    assert _report_without_time(r1.csv_path) == _report_without_time(r2.csv_path)


@pytest.mark.parametrize("workers, problems, evaluators, pools", [
    (0, ("gripper-1.pddl",), ("add", "oc"), [2]),
    (0, ("gripper-1.pddl",), ("add",), []),
    (8, ("gripper-1.pddl", "gripper-2.pddl"), ("add", "oc"), [4]),
    (3, ("gripper-1.pddl", "gripper-2.pddl"), ("add", "oc"), [3]),
    (1, ("gripper-1.pddl", "gripper-2.pddl"), ("add", "oc"), []),
])
def test_run_suite_starts_no_more_workers_than_cells(tmp_path, monkeypatch, workers, problems,
                                                     evaluators, pools):
    # the pool forks every worker up front, so one per core on a 2-cell suite
    # would start idle processes; this stand-in maps in this process
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    report = run_suite(_suite(tmp_path, problems, evaluators, workers, max_nodes=2000))
    assert made == pools
    assert len(report.rows) == len(problems) * len(evaluators)


def test_run_suite_writes_plan_files(tmp_path):
    report = run_suite(_suite(tmp_path, problems=("gripper-1.pddl",), evaluators=("add",)))
    plans = os.listdir(os.path.join(report.csv_path.rsplit(os.sep, 1)[0], "plans"))
    assert len(plans) == 1
    assert plans[0].endswith(".plan")


def test_run_suite_reports_unsimulated_plan_as_unsolved(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "validate", lambda task, sequence: False)
    report = run_suite(_suite(tmp_path, problems=("gripper-1.pddl",), evaluators=("add",)))
    (row,) = report.rows
    assert not row.solved and row.plan_text == ""
    assert "gripper-1" in row.error and "re-simulate" in row.error
    assert report.aggregates["add"]["coverage"] == 0
    assert os.listdir(tmp_path / "out" / "plans") == []


def test_run_suite_survives_bad_problem(tmp_path):
    config = _suite(tmp_path)
    config.problems.append(str(tmp_path / "missing.pddl"))
    report = run_suite(config)
    bad = [r for r in report.rows if r.problem == "missing"]
    assert len(bad) == len(config.evaluators)
    assert all(not r.solved and r.error for r in bad)


def test_run_suite_loads_each_problem_once(tmp_path, monkeypatch):
    loads = []

    def counting_load(domain, problem):
        loads.append(problem)
        return load_task(domain, problem)

    monkeypatch.setattr(bench, "load_task", counting_load)
    config = _suite(tmp_path / "serial", evaluators=("add", "oc", "gval"))
    config.problems.append(str(tmp_path / "missing.pddl"))
    report = run_suite(config)
    # a problem that fails to load is tried again by each of its cells
    assert loads == config.problems[:2] + [config.problems[2]] * 3

    # each cell as if searched on its own freshly loaded task
    for row in report.rows:
        if row.problem == "missing":
            assert not row.solved and "missing.pddl" in row.error
            continue
        task = load_task(config.domain, fixture_path(row.problem + ".pddl"))
        tables = build_tables(task)
        result = gbfs(task, build_evaluator(row.evaluator, tables), config.strategy,
                      SearchLimits(config.max_generated, config.wall_time), tables)
        assert (row.solved, row.visited, row.generated, row.plan_length, row.makespan,
                row.plan_text) == (True, result.visited, result.generated,
                                   result.plan_length, result.makespan,
                                   format_plan(result.plan))
    assert [(r.problem, r.evaluator) for r in report.rows] == \
        [(p, e) for p in ("gripper-1", "gripper-2", "missing") for e in config.evaluators]

    # the pool runs the same jobs and writes the same report
    config.out_dir = str(tmp_path / "pool" / "out")
    config.workers = 2
    pooled = run_suite(config)
    assert _report_without_time(pooled.csv_path) == _report_without_time(report.csv_path)
    assert bench._load.cache_info().currsize == 0     # no task outlives its suite


def test_run_suite_reads_problem_files_anew_each_suite(tmp_path):
    # a problem's task is kept between its cells, never between suites
    problem = tmp_path / "p.pddl"
    config = _suite(tmp_path, evaluators=("add",))
    config.problems = [str(problem)]
    lengths = []
    for source in ("gripper-1.pddl", "gripper-2.pddl"):
        with open(fixture_path(source), encoding="utf-8") as fh:
            problem.write_text(fh.read())
        lengths.append(run_suite(config).rows[0].plan_length)
    reference = run_suite(_suite(tmp_path / "ref", evaluators=("add",)))
    assert lengths == [r.plan_length for r in reference.rows]
    assert lengths[0] != lengths[1]


def test_run_suite_rejects_problems_sharing_a_name(tmp_path, capsys):
    # rows, scores and plan files are keyed by file stem, so these two would
    # be scored against each other and write one plan file
    paths = []
    for folder, source in (("a", "gripper-1.pddl"), ("b", "gripper-2.pddl")):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / "gripper-1.pddl"
        with open(fixture_path(source)) as fh:
            path.write_text(fh.read())
        paths.append(str(path))
    config = _suite(tmp_path, evaluators=("add",))
    config.problems = paths
    with pytest.raises(ValueError) as err:
        run_suite(config)
    assert paths[0] in str(err.value) and paths[1] in str(err.value)
    assert not os.path.exists(config.out_dir)

    config_path = tmp_path / "suite.cfg"
    config_path.write_text(f"domain = {config.domain}\nproblem = {paths[0]}\n"
                           f"problem = {paths[1]}\nevaluator = add\nworkers = 1\n"
                           f"out_dir = {tmp_path / 'cli-out'}\n")
    assert cli.main(["bench", str(config_path)]) == cli.EXIT_INPUT
    message = capsys.readouterr().err
    assert paths[0] in message and paths[1] in message
    assert not os.path.exists(tmp_path / "cli-out")


@pytest.mark.parametrize("evaluators, plan_file", [
    # listed twice: the parser rejects this, but a config built in code
    # would also count the problem twice toward coverage
    (("add", "add"), "gripper-1__add.plan"),
    # two model files whose specs give one file-name tag
    (("model:/x/models/a/b.json", "model:/x/models/a_b.json"),
     "gripper-1__model_x_models_a_b.json.plan"),
])
def test_run_suite_rejects_cells_sharing_a_plan_file(tmp_path, monkeypatch, evaluators,
                                                     plan_file):
    # the second cell's plan file would overwrite the first's
    monkeypatch.setattr(bench, "_run_cell", lambda cell: pytest.fail("a cell ran"))
    config = _suite(tmp_path, problems=("gripper-1.pddl",), evaluators=evaluators)
    first, second = (f"{config.problems[0]} x {e}" for e in evaluators)
    with pytest.raises(ValueError) as err:
        run_suite(config)
    assert str(err.value) == \
        f"cells {first} and {second} would write one plan file {plan_file!r}"
    assert not os.path.exists(config.out_dir)


# ── CLI ──────────────────────────────────────────────────────────────────────

def test_cli_solve_exit_codes(tmp_path, capsys):
    plan_out = str(tmp_path / "plan.txt")
    code = cli.main(["solve", fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl"),
                     "--eval", "add", "--plan-out", plan_out])
    assert code == 0
    out = capsys.readouterr().out
    assert ";; outcome=solved" in out
    assert os.path.exists(plan_out)
    with open(plan_out) as fh:
        assert ";; makespan=" in fh.read()


def test_cli_solve_limit_exit_code(capsys):
    code = cli.main(["solve", fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl"),
                     "--max-nodes", "1"])
    assert code == 1


def test_cli_solve_missing_file(capsys):
    code = cli.main(["solve", "/nonexistent/d.pddl", "/nonexistent/p.pddl"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_solve_bad_eval_spec(capsys):
    code = cli.main(["solve", fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl"),
                     "--eval", "bogus"])
    assert code == 3


@pytest.mark.parametrize("spec", ["model:", "model::enhanced"])
def test_cli_solve_empty_model_path_names_the_spec(capsys, spec):
    code = cli.main(["solve", fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl"),
                     "--eval", spec])
    assert code == 3
    assert f"model spec {spec!r} names no model file" in capsys.readouterr().err


def test_cli_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["solve"])   # missing required arguments
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "D", "P", "--max-nodes", "-5"],
    ["solve", "D", "P", "--max-nodes", "0"],
    ["solve", "D", "P", "--timeout", "-1"],
    ["solve", "D", "P", "--timeout", "0"],
    ["learn", "dataset", "D", "P", "--seeds-per-problem", "0", "--out", "OUT"],
])
def test_cli_non_positive_limits_are_usage_errors(tmp_path, capsys, argv):
    files = {"D": fixture_path("gripper.pddl"), "P": fixture_path("gripper-1.pddl"),
             "OUT": str(tmp_path / "data.csv")}
    with pytest.raises(SystemExit) as err:
        cli.main([files.get(a, a) for a in argv])
    assert err.value.code == cli.EXIT_USAGE
    assert "expected a positive" in capsys.readouterr().err
    assert not os.path.exists(files["OUT"])


@pytest.mark.parametrize("argv", [
    ["--corr-low", "2"],
    ["--corr-low", "nan"],
    ["--corr-low", "-0.1"],
    ["--corr-high", "1.5"],
    ["--corr-high", "x"],
])
def test_cli_correlation_thresholds_outside_unit_interval_are_usage_errors(tmp_path, capsys,
                                                                           argv):
    model = str(tmp_path / "model.json")
    with pytest.raises(SystemExit) as err:
        cli.main(["learn", "fit", str(tmp_path / "data.csv"), "--out", model] + argv)
    assert err.value.code == cli.EXIT_USAGE
    assert "expected a number in [0, 1]" in capsys.readouterr().err
    assert not os.path.exists(model)


def test_cli_learn_dataset_prints_draws_per_problem(tmp_path, capsys):
    code = cli.main(["learn", "dataset", fixture_path("gripper.pddl"),
                     fixture_path("gripper-1.pddl"), fixture_path("gripper-train-2.pddl"),
                     "--seeds-per-problem", "2", "--out", str(tmp_path / "data.csv")])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "draws: 3/4 solved" in out
    assert "  gripper-1: 2/2 draws solved\n  gripper-train-2: 1/2 draws solved\n" in out


def test_cli_learn_dataset_and_fit(tmp_path, capsys):
    data = str(tmp_path / "data.csv")
    code = cli.main(["learn", "dataset", fixture_path("gripper.pddl"),
                     fixture_path("gripper-1.pddl"), fixture_path("gripper-2.pddl"),
                     "--base", "add", "--seeds-per-problem", "6", "--seed", "4",
                     "--out", data])
    assert code == 0
    assert os.path.exists(data)
    out = capsys.readouterr().out
    assert "draws: 9/12 solved, 99.3% of draw nodes in failed draws" in out
    model = str(tmp_path / "model.json")
    code = cli.main(["learn", "fit", data, "--out", model])
    assert code == 0
    doc = json.loads(open(model).read())
    assert doc["technique"] == "linear_regression"
    assert len(doc["weights"]) == len(doc["mask"]) >= 1
    # the fitted model is usable as an evaluator spec
    code = cli.main(["solve", fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl"),
                     "--eval", f"model:{model}:enhanced", "--max-nodes", "20000"])
    assert code == 0


def test_cli_bench(tmp_path, capsys):
    config_path = str(tmp_path / "suite.cfg")
    with open(config_path, "w") as fh:
        fh.write(f"""
domain = {fixture_path('gripper.pddl')}
problem = {fixture_path('gripper-1.pddl')}
evaluator = add
evaluator = oc
flaws = mw-loc
max_nodes = 20000
timeout = 10
out_dir = bench-out
workers = 1
""")
    code = cli.main(["bench", config_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "coverage" in out
    assert os.path.exists(str(tmp_path / "bench-out" / "report.csv"))


def test_cli_bench_prints_cells_that_failed_with_an_error(tmp_path, monkeypatch, capsys):
    # a missing file makes unsolved rows; only these, not a search that hit
    # its node limit, get an error line, and the exit code stays 0
    monkeypatch.setenv("POCL_LOG", "off")
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(f"domain = {fixture_path('gripper.pddl')}\n"
                           f"problem = {fixture_path('gripper-2.pddl')}\n"
                           "problem = missing.pddl\nevaluator = add\nmax_nodes = 5\n"
                           f"out_dir = {tmp_path / 'out'}\nworkers = 1\n")
    assert cli.main(["bench", str(config_path)]) == cli.EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: missing x add: ")
    assert "missing.pddl" in lines[0]
    with open(tmp_path / "out" / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["problem"], r["solved"]) for r in rows] == [("gripper-2", "0"), ("missing", "0")]


def test_cli_bench_logs_each_record_once_per_call(tmp_path, monkeypatch, capsys):
    # each main() call configures logging; a second call must not print twice
    logger = logging.getLogger("poclkit")
    monkeypatch.setattr(logger, "handlers", list(logger.handlers))
    monkeypatch.setenv("POCL_LOG", "info")
    config_path = tmp_path / "suite.cfg"
    config_path.write_text(f"domain = {fixture_path('gripper.pddl')}\n"
                           f"problem = {fixture_path('gripper-1.pddl')}\nevaluator = add\n"
                           f"max_nodes = 20000\nout_dir = {tmp_path / 'out'}\nworkers = 1\n")
    level = logger.level
    try:
        for _ in range(2):
            assert cli.main(["bench", str(config_path)]) == cli.EXIT_OK
            assert capsys.readouterr().err.count("suite done") == 1
    finally:
        logger.setLevel(level)


def test_cli_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "poclkit.cli", "solve",
                           fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert ";; outcome=solved" in proc.stdout


def test_no_command_imports_numpy(tmp_path):
    # numpy set to None in sys.modules makes any import of it fail
    script = f"""
import sys
sys.modules["numpy"] = None
from poclkit import cli
gripper = {fixture_path('gripper.pddl')!r}
data, model = {str(tmp_path / 'data.csv')!r}, {str(tmp_path / 'model.json')!r}
print(cli.main(["solve", gripper, {fixture_path('gripper-1.pddl')!r}]),
      cli.main(["learn", "dataset", gripper, {fixture_path('gripper-1.pddl')!r},
                {fixture_path('gripper-2.pddl')!r}, "--seeds-per-problem", "3",
                "--out", data]),
      cli.main(["learn", "fit", data, "--out", model]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 0"


@pytest.mark.parametrize("value", ["of", "", "debug", "infos"])
def test_pocl_log_value_not_known_is_an_input_error(monkeypatch, capsys, value):
    monkeypatch.setenv("POCL_LOG", value)
    code = cli.main(["solve", fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl")])
    assert code == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: POCL_LOG must be off, info or trace, got {value!r}\n"


def test_pocl_log_env_controls_stderr(tmp_path):
    config_path = str(tmp_path / "suite.cfg")
    with open(config_path, "w") as fh:
        fh.write(f"domain = {fixture_path('gripper.pddl')}\n"
                 f"problem = {fixture_path('gripper-1.pddl')}\n"
                 "evaluator = add\nmax_nodes = 20000\ntimeout = 10\n"
                 f"out_dir = {tmp_path / 'out'}\nworkers = 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    quiet = subprocess.run([sys.executable, "-m", "poclkit.cli", "bench", config_path],
                           capture_output=True, text=True,
                           env=dict(env, POCL_LOG="off"))
    chatty = subprocess.run([sys.executable, "-m", "poclkit.cli", "bench", config_path],
                            capture_output=True, text=True,
                            env=dict(env, POCL_LOG="info"))
    assert quiet.returncode == chatty.returncode == 0
    assert "suite done" not in quiet.stderr
    assert "suite done" in chatty.stderr
