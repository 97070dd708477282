"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Numbered criteria:

 1  telescoping identity on >= 20 recorded traces (exact, < 5 s)
 2  enhancement base case: one unit-cost step from a solution gives 1
 3  closed-form vs geometric enhancement on the epsilon x h grid (1e-9)
 4  planner soundness across the bundled suite (every solved plan validates)
 5  additive cost tables match a brute-force Bellman oracle (50 random tasks)
 6  OLS recovery of noiseless/noisy linear targets vs a closed-form oracle
 7  training targets recomputed from stored plans; failures add nothing
 8  learned-model trend on Gripper (trained on 1-2 balls, tested on 3-4)
 9  scoring arithmetic worked examples (1e-12) and aggregate = column sums
10  byte-identical bench reports modulo the wall-time column
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import wraps
from random import Random

import pytest

from poclkit.bench import (SuiteConfig, build_evaluator, makespan_score, nodes_score,
                           quality_score, run_suite, time_score)
from poclkit.grounding import load_task
from poclkit.heuristics import FeatureVector, additive_costs, build_tables
from poclkit.learning import (DatasetConfig, TrainingInstance, Dataset, correlation_select,
                              fit_linear, generate_dataset, save_model)
from poclkit.plans import is_solution, step_sequence, validate
from poclkit.search import FeatureEvaluator, SearchLimits, gbfs
from poclkit.tuning import ErrorTracker, read_trace, replay_telescoping, step_error, write_trace

from conftest import FIXTURES, fixture_path, make_task, random_task
from oracles import bellman_costs, ols_line, random_linearization

WORKERS = os.cpu_count() or 2

BENCH_PROBLEMS = (
    "gripper-1", "gripper-2", "gripper-3", "gripper-4",
    "logistics-2a", "logistics-2b", "logistics-2c", "logistics-3a", "logistics-3b",
    "blocks-2", "blocks-3", "blocks-4", "blocks-5", "blocks-rev-2", "blocks-rev-3",
)
BASE_EVALUATORS = ("gval", "oc", "add", "add_w", "add_r", "add_w_r")
GRIPPER_TRAIN = ("gripper-1", "gripper-2", "gripper-train-1", "gripper-train-2",
                 "gripper-train-3", "gripper-train-4", "gripper-train-5",
                 "gripper-train-6", "gripper-train-7")


def criterion(number: int, summary: str):
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {summary}")
                raise
            print(f"PASS criterion {number}: {summary}")
        return wrapper
    return decorate


def _domain_for(problem: str) -> str:
    return fixture_path(problem.split("-")[0] + ".pddl")


# ── criterion 1 ──────────────────────────────────────────────────────────────

@criterion(1, "telescoping identity holds exactly on 20 recorded traces")
def test_criterion_01_telescoping(tmp_path):
    cases = [(p, e) for p in ("gripper-1", "gripper-2", "blocks-rev-2", "logistics-2c")
             for e in ("h_add", "h_add_w", "h_add_r", "h_add_w_r", "h_oc")]
    assert len(cases) >= 20
    start = time.monotonic()
    for i, (problem, feature) in enumerate(cases):
        task = load_task(_domain_for(problem), fixture_path(problem + ".pddl"))
        tables = build_tables(task)
        result = gbfs(task, FeatureEvaluator(feature, tables), "mw-loc",
                      SearchLimits(50000, 10.0), tables, record_trace=True)
        assert result.solved, f"{problem}/{feature} did not solve"
        path = str(tmp_path / f"trace-{i}.csv")
        write_trace(path, result.trace)
        report = replay_telescoping(read_trace(path), result.solution_node_id)
        assert report.new_steps == result.plan_length
        assert report.h_root + report.error_sum == report.new_steps   # tolerance 0
    assert time.monotonic() - start < 5.0


# ── criterion 2 ──────────────────────────────────────────────────────────────

@criterion(2, "base case: parent one unit-cost step from a solution gives 1")
def test_criterion_02_base_case():
    for h_parent in (0.0, 0.5, 1.0, 3.0, 7.25, 100.0):
        enhanced = h_parent + step_error(h_parent, 0.0, 1.0)
        assert enhanced == 1.0    # tolerance 0


# ── criterion 3 ──────────────────────────────────────────────────────────────

@criterion(3, "closed-form and geometric enhancement agree to 1e-9 on the grid")
def test_criterion_03_geometric_equivalence():
    for eps in (-0.9, -0.5, 0.0, 0.3, 0.6, 0.89):
        tracker = ErrorTracker(error_sum=eps, observations=1)
        for h in (0.0, 1.0, 7.0, 100.0):
            assert abs(tracker.enhance(h) - tracker.geometric_enhance(h, 64)) <= 1e-9


# ── criterion 4 ──────────────────────────────────────────────────────────────

def _solve_and_check(args: tuple) -> tuple:
    problem, evaluator_spec = args
    task = load_task(_domain_for(problem), os.path.join(FIXTURES, problem + ".pddl"))
    tables = build_tables(task)
    evaluator = build_evaluator(evaluator_spec, tables)
    result = gbfs(task, evaluator, "mw-loc", SearchLimits(20000, 1.5), tables)
    if not result.solved:
        return problem, evaluator_spec, False, True
    assert is_solution(result.plan)
    rng = Random(f"{problem}:{evaluator_spec}")
    ok = all(validate(task, step_sequence(result.plan, random_linearization(result.plan, rng)))
             for _ in range(10))
    return problem, evaluator_spec, True, ok


@criterion(4, "every solved plan in the bundled suite validates (10 linearizations)")
def test_criterion_04_soundness():
    cells = [(p, e) for p in BENCH_PROBLEMS for e in BASE_EVALUATORS]
    start = time.monotonic()
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        rows = list(pool.map(_solve_and_check, cells))
    elapsed = time.monotonic() - start
    solved = [r for r in rows if r[2]]
    violations = [r for r in rows if r[2] and not r[3]]
    assert len(rows) == len(BENCH_PROBLEMS) * 6 >= 90
    assert solved, "nothing solved; suite misconfigured"
    assert not violations, f"invalid solutions: {violations}"
    assert elapsed < 120.0
    print(f"  [criterion 4] {len(solved)}/{len(rows)} cells solved, "
          f"0 violations, {elapsed:.1f}s")


# ── criterion 5 ──────────────────────────────────────────────────────────────

@criterion(5, "additive cost tables equal the Bellman oracle on 50 random tasks")
def test_criterion_05_cost_oracle():
    rng = Random(1234)
    for _ in range(50):
        task = random_task(rng, max_facts=12, max_actions=10)
        for variant in ("plain", "effort"):
            assert list(additive_costs(task, variant).fact_cost) == \
                bellman_costs(task, variant)


# ── criterion 6 ──────────────────────────────────────────────────────────────

def _vec(x: float) -> FeatureVector:
    return FeatureVector(0.0, 0.0, x, 0.0, 0.0, 0.0)


@criterion(6, "OLS recovers linear targets (noiseless 1e-9, noisy 0.05) vs oracle")
def test_criterion_06_regression_recovery():
    rng = Random(2024)
    xs = [rng.uniform(0, 10) for _ in range(100)]

    clean = [TrainingInstance(_vec(x), 3.0 * x + 2.0) for x in xs]
    model = fit_linear(Dataset("synthetic", "h_add", clean, 0), (2,))
    slope, intercept = ols_line(xs, [3.0 * x + 2.0 for x in xs])
    assert abs(model.weights[0] - slope) <= 1e-9
    assert abs(model.intercept - intercept) <= 1e-9
    assert abs(model.weights[0] - 3.0) <= 1e-9

    noisy_y = [3.0 * x + 2.0 + rng.uniform(-0.01, 0.01) for x in xs]
    noisy = [TrainingInstance(_vec(x), y) for x, y in zip(xs, noisy_y)]
    model = fit_linear(Dataset("synthetic", "h_add", noisy, 0), (2,))
    slope, intercept = ols_line(xs, noisy_y)
    assert abs(model.weights[0] - slope) <= 1e-9      # matches the oracle
    assert abs(model.weights[0] - 3.0) <= 0.05        # recovers the truth
    assert abs(model.intercept - 2.0) <= 0.1


# ── criterion 7 ──────────────────────────────────────────────────────────────

@criterion(7, "targets equal stored-plan differences; failures add nothing")
def test_criterion_07_target_consistency():
    solvable = load_task(_domain_for("gripper-1"), fixture_path("gripper-1.pddl"))
    hopeless = make_task(2, [], {0}, {1})
    config = DatasetConfig(seeds_per_problem=8, seed_max_generated=5000,
                           seed_wall_time=5.0, rng_seed=11)
    dataset = generate_dataset([solvable, hopeless], "h_add", config)
    assert dataset.instances
    for inst in dataset.instances:
        assert is_solution(inst.solution_plan)
        assert inst.target == inst.solution_plan.action_count - inst.seed_plan.action_count
    failures = [d for d in dataset.draws if not d.solved]
    assert failures, "expected failing draws from the unsolvable problem"
    for d in failures:
        assert d.pool_after == d.pool_before    # no new seeds
    assert all(d.problem == hopeless.problem_name or d.solved for d in dataset.draws[-8:])
    n_solved = sum(1 for d in dataset.draws if d.solved)
    assert len(dataset.instances) == n_solved   # no instances from failures


# ── criterion 8 ──────────────────────────────────────────────────────────────

@criterion(8, "learned-model trend: coverage and node score vs base features")
def test_criterion_08_learning_trend(tmp_path):
    train_tasks = [load_task(_domain_for(p), fixture_path(p + ".pddl"))
                   for p in GRIPPER_TRAIN]
    config = DatasetConfig(seeds_per_problem=15, seed_max_generated=8000,
                           seed_wall_time=5.0, rng_seed=0)
    dataset = generate_dataset(train_tasks, "h_add", config)
    model = fit_linear(dataset, correlation_select(dataset))
    model_path = str(tmp_path / "gripper-model.json")
    save_model(model, model_path)

    suite = SuiteConfig(
        domain=fixture_path("gripper.pddl"),
        problems=[fixture_path("gripper-3.pddl"), fixture_path("gripper-4.pddl")],
        evaluators=list(BASE_EVALUATORS) + [f"model:{model_path}"],
        strategy="mw-loc",
        max_generated=50_000,
        wall_time=60.0,
        out_dir=str(tmp_path / "trend"),
        workers=WORKERS,
    )
    report = run_suite(suite)
    model_spec = suite.evaluators[-1]
    coverage = {e: report.aggregates[e]["coverage"] for e in suite.evaluators}
    nodes = {e: report.aggregates[e]["nodes"] for e in suite.evaluators}
    print(f"  [criterion 8] coverage={coverage}")
    print(f"  [criterion 8] node scores={ {k: round(v, 3) for k, v in nodes.items()} }")
    worst_base_coverage = min(coverage[e] for e in BASE_EVALUATORS)
    assert coverage[model_spec] >= worst_base_coverage
    assert nodes[model_spec] >= nodes["add"]    # the base the model was trained from


# ── criterion 9 ──────────────────────────────────────────────────────────────

@criterion(9, "scoring arithmetic worked examples (1e-12); aggregates = CSV sums")
def test_criterion_09_scoring(tmp_path):
    assert abs(quality_score(10, 10) - 1.0) <= 1e-12
    assert abs(quality_score(12, 10) - 10.0 / 12.0) <= 1e-12
    assert quality_score(None, 10) == 0.0
    assert abs(time_score(0.4, 0.1) - 1.0) <= 1e-12
    assert abs(time_score(10, 10) - 1.0) <= 1e-12
    assert abs(time_score(100, 10) - 0.5) <= 1e-12
    assert abs(nodes_score(500, 500) - 1.0) <= 1e-12
    assert abs(nodes_score(1000, 500) - 0.5) <= 1e-12
    assert abs(makespan_score(8, 4) - 0.5) <= 1e-12
    assert makespan_score(None, 4) == 0.0

    suite = SuiteConfig(
        domain=fixture_path("gripper.pddl"),
        problems=[fixture_path("gripper-1.pddl"), fixture_path("gripper-2.pddl")],
        evaluators=["add", "oc", "gval"],
        strategy="mw-loc",
        max_generated=20_000,
        wall_time=10.0,
        out_dir=str(tmp_path / "scores"),
        workers=1,
    )
    report = run_suite(suite)
    sums = {e: {"quality": 0.0, "time": 0.0, "nodes": 0.0, "makespan": 0.0, "coverage": 0}
            for e in suite.evaluators}
    with open(report.csv_path, newline="") as fh:
        for row in csv.DictReader(fh):
            agg = sums[row["evaluator"]]
            agg["coverage"] += int(row["solved"])
            agg["quality"] += float(row["quality"])
            agg["time"] += float(row["time_score"])
            agg["nodes"] += float(row["nodes_score"])
            agg["makespan"] += float(row["makespan_score"])
    for e in suite.evaluators:
        for key in ("quality", "time", "nodes", "makespan"):
            assert abs(sums[e][key] - report.aggregates[e][key]) <= 1e-6
        assert sums[e]["coverage"] == report.aggregates[e]["coverage"]


# ── criterion 10 ─────────────────────────────────────────────────────────────

@criterion(10, "bench reports byte-identical modulo the wall-time column")
def test_criterion_10_determinism(tmp_path):
    def run_once(tag: str) -> list[list[str]]:
        suite = SuiteConfig(
            domain=fixture_path("gripper.pddl"),
            problems=[fixture_path("gripper-1.pddl"), fixture_path("gripper-2.pddl")],
            evaluators=["add", "oc"],
            strategy="mw-loc",
            max_generated=20_000,
            wall_time=10.0,
            out_dir=str(tmp_path / tag),
            workers=2,
        )
        report = run_suite(suite)
        with open(report.csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("time_s")
        return [[v for i, v in enumerate(row) if i != drop] for row in rows]

    assert run_once("a") == run_once("b")
