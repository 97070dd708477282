"""Dataset preparation semantics, feature selection, OLS fitting, persistence."""

from __future__ import annotations

import json
import math
import re
from random import Random
from unittest.mock import patch

import pytest

from poclkit import cli, learning, search
from poclkit.heuristics import FEATURE_NAMES, FeatureVector, build_tables, feature_vector
from poclkit.learning import (Dataset, DatasetConfig, DatasetError, DegenerateDatasetError,
                              DrawRecord, EmptyDatasetError, LinearModel, MalformedModelError,
                              TrainingInstance, correlation_select, fit_linear,
                              generate_dataset, load_dataset, load_model,
                              save_dataset, save_model)
from poclkit.plans import format_plan, is_solution, null_plan
from poclkit.search import FeatureEvaluator, ModelEvaluator, SearchLimits, gbfs, select_flaw

from conftest import fixture_path, live_plans, load_fixture_task, make_task
from oracles import ols_line

INF = math.inf


def vec(*values) -> FeatureVector:
    return FeatureVector(*[float(v) for v in values])


def synthetic_dataset(instances, seed=0) -> Dataset:
    return Dataset("synthetic", "h_add", instances, seed)


# ── generate_dataset ─────────────────────────────────────────────────────────

def test_target_is_new_action_count():
    task = load_fixture_task("gripper.pddl", "gripper-1.pddl")
    config = DatasetConfig(seeds_per_problem=6, seed_max_generated=5000,
                           seed_wall_time=10.0, rng_seed=3)
    dataset = generate_dataset([task], "h_add", config)
    assert dataset.instances
    for inst in dataset.instances:
        assert inst.seed_plan is not None and inst.solution_plan is not None
        assert is_solution(inst.solution_plan)
        recomputed = inst.solution_plan.action_count - inst.seed_plan.action_count
        assert inst.target == recomputed >= 0
        assert inst.features.h_gval == inst.seed_plan.action_count


def test_seed_already_solution_gives_zero_target():
    task = make_task(2, [({0}, {1}, set())], {0}, set())   # empty goal
    config = DatasetConfig(seeds_per_problem=2, rng_seed=0)
    dataset = generate_dataset([task], "h_add", config)
    assert all(inst.target == 0 for inst in dataset.instances)


def test_failed_refinements_add_nothing():
    solvable = load_fixture_task("gripper.pddl", "gripper-1.pddl")
    hopeless = make_task(2, [], {0}, {1})    # unreachable goal: every draw fails
    config = DatasetConfig(seeds_per_problem=4, seed_max_generated=2000, rng_seed=1)
    dataset = generate_dataset([solvable, hopeless], "h_add", config)
    failed = [d for d in dataset.draws if not d.solved]
    assert failed
    for d in failed:
        assert d.pool_after == d.pool_before
    hopeless_draws = [d for d in dataset.draws if d.problem == hopeless.problem_name]
    assert all(not d.solved and d.pool_before == 1 for d in hopeless_draws)
    assert all(inst.seed_plan is not None for inst in dataset.instances)


def test_successful_draw_grows_pool():
    task = load_fixture_task("gripper.pddl", "gripper-1.pddl")
    config = DatasetConfig(seeds_per_problem=3, rng_seed=0)
    dataset = generate_dataset([task], "h_add", config)
    solved = [d for d in dataset.draws if d.solved]
    assert solved
    for d in solved:
        assert d.pool_after > d.pool_before


@pytest.mark.parametrize("field, value", [
    ("seeds_per_problem", 0), ("seeds_per_problem", -1), ("seed_max_generated", 0),
    ("seed_wall_time", 0.0), ("seed_wall_time", -1.0), ("seed_wall_time", math.nan),
    ("max_copies", 0),
])
def test_dataset_config_rejects_limits_no_draw_can_meet(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        DatasetConfig(**{field: value})


@pytest.mark.parametrize("strategy", ["best-first", "", None, "MW-LOC", select_flaw])
def test_dataset_config_rejects_unknown_strategy(strategy):
    with pytest.raises(ValueError, match=r"^strategy must be one of mc-loc, mw-loc, got "):
        DatasetConfig(strategy=strategy)


def test_dataset_config_accepts_named_strategies():
    for strategy in ("mc-loc", "mw-loc"):
        assert DatasetConfig(strategy=strategy).strategy is strategy


def test_dataset_config_accepts_boundaries():
    config = DatasetConfig(seeds_per_problem=1, seed_max_generated=1,
                           seed_wall_time=math.inf, max_copies=None)
    assert (config.seeds_per_problem, config.seed_wall_time, config.max_copies) == \
        (1, math.inf, None)


def test_empty_dataset_error():
    hopeless = make_task(2, [], {0}, {1})
    with pytest.raises(EmptyDatasetError):
        generate_dataset([hopeless], "h_add", DatasetConfig(seeds_per_problem=2))


def test_dataset_reproducible():
    task = load_fixture_task("gripper.pddl", "gripper-2.pddl")
    config = DatasetConfig(seeds_per_problem=5, seed_max_generated=5000, rng_seed=9)
    d1 = generate_dataset([task], "h_add", config)
    d2 = generate_dataset([task], "h_add", config)
    assert [i.features for i in d1.instances] == [i.features for i in d2.instances]
    assert [i.target for i in d1.instances] == [i.target for i in d2.instances]


def collecting_dataset(tasks, base_heuristic, config):
    """Reference: the single-pass seed-pool loop, every draw recorded so that
    it keeps its generated plans, as ``generate_dataset`` ran before it
    replayed only the solved draws."""
    draws, instances = [], []
    limits = SearchLimits(config.seed_max_generated, config.seed_wall_time)
    for pidx, task in enumerate(tasks):
        rng = Random(f"{config.rng_seed}:{pidx}")
        tables = build_tables(task)
        evaluator = FeatureEvaluator(base_heuristic, tables)
        pool = [null_plan(task)]
        for _ in range(config.seeds_per_problem):
            before = len(pool)
            index = rng.randrange(before)
            sp = pool[index]
            result = gbfs(task, evaluator, config.strategy, limits, tables, root=sp,
                          max_copies=config.max_copies, record_trace=True)
            if result.solved:
                instances.append(TrainingInstance(
                    feature_vector(sp, tables), result.plan.action_count - sp.action_count,
                    sp, result.plan))
                pool.extend(result.generated_plans)
            draws.append(DrawRecord(task.problem_name, index, result.solved, before,
                                    len(pool), result.generated))
    return draws, instances


def test_replayed_draws_match_collecting_every_draw():
    tasks = [load_fixture_task("gripper.pddl", "gripper-1.pddl"),
             load_fixture_task("gripper.pddl", "gripper-train-1.pddl"),
             make_task(2, [], {0}, {1})]                     # hopeless
    config = DatasetConfig(seeds_per_problem=4, seed_max_generated=8000, rng_seed=0)
    dataset = generate_dataset(tasks, "h_add", config)
    draws, instances = collecting_dataset(tasks, "h_add", config)
    assert dataset.draws == draws
    assert {d.problem for d in draws if d.solved} == {"gripper-1"}
    assert {d.generated for d in draws if d.problem == "gripper-train-1"} == {8000}
    assert [i.features for i in dataset.instances] == [i.features for i in instances]
    assert [i.target for i in dataset.instances] == [i.target for i in instances]
    for ours, ref in zip(dataset.instances, instances, strict=True):
        assert format_plan(ours.seed_plan) == format_plan(ref.seed_plan)
        assert format_plan(ours.solution_plan) == format_plan(ref.solution_plan)


def test_dataset_draws_and_instances_are_pinned():
    # recorded when gbfs built every child at generation: queueing new-step
    # children unbuilt in the first pass must leave the pool sizes per draw
    # and the instances as they were
    tasks = [load_fixture_task("gripper.pddl", p)
             for p in ("gripper-1.pddl", "gripper-2.pddl", "gripper-train-2.pddl")]
    config = DatasetConfig(seeds_per_problem=3, seed_max_generated=4000, rng_seed=0)
    dataset = generate_dataset(tasks, "h_add", config)
    assert [(d.problem, d.solved, d.pool_before, d.pool_after, d.generated)
            for d in dataset.draws] == [
        ("gripper-1", True, 1, 17, 17), ("gripper-1", True, 17, 38, 22),
        ("gripper-1", True, 38, 40, 3), ("gripper-2", True, 1, 51, 51),
        ("gripper-2", True, 51, 90, 40), ("gripper-2", False, 90, 90, 1),
        ("gripper-train-2", False, 1, 1, 4000), ("gripper-train-2", False, 1, 1, 4000),
        ("gripper-train-2", False, 1, 1, 4000)]
    assert [(i.target, tuple(i.features)) for i in dataset.instances] == [
        (3, (0.0, 1.0, 3.0, 9.0, 3.0, 9.0)), (2, (3.0, 4.0, 2.0, 6.0, 2.0, 6.0)),
        (0, (3.0, 1.0, 0.0, 0.0, 0.0, 0.0)), (5, (0.0, 2.0, 6.0, 18.0, 6.0, 18.0)),
        (4, (3.0, 4.0, 5.0, 15.0, 5.0, 15.0))]


def test_draw_records_the_pool_index_it_drew():
    # gripper-train-2 fails on the null plan, so every draw picks index 0 and
    # the two after the first reuse its outcome; gripper-1 grows its pool
    tasks = [load_fixture_task("gripper.pddl", p)
             for p in ("gripper-1.pddl", "gripper-train-2.pddl")]
    config = DatasetConfig(seeds_per_problem=3, seed_max_generated=4000, rng_seed=0)
    dataset = generate_dataset(tasks, "h_add", config)
    for pidx, task in enumerate(tasks):
        rng = Random(f"{config.rng_seed}:{pidx}")
        draws = [d for d in dataset.draws if d.problem == task.problem_name]
        assert [d.seed_index for d in draws] == [rng.randrange(d.pool_before) for d in draws]
        assert all(0 <= d.seed_index < d.pool_before for d in draws)
    hopeless = [d for d in dataset.draws if d.problem == "gripper-train-2"]
    assert [d.seed_index for d in hopeless] == [0, 0, 0]


def test_tasks_sharing_a_problem_name_rejected(tmp_path, capsys):
    task = load_fixture_task("gripper.pddl", "gripper-1.pddl")
    with pytest.raises(ValueError, match=r"^tasks 0 and 1 share the problem name 'gripper-1'$"):
        generate_dataset([task, task], "h_add", DatasetConfig(seeds_per_problem=2))
    problem = fixture_path("gripper-1.pddl")
    out = str(tmp_path / "d.csv")
    code = cli.main(["learn", "dataset", fixture_path("gripper.pddl"), problem, problem,
                     "--seeds-per-problem", "2", "--out", out])
    assert code == cli.EXIT_INPUT
    assert "share the problem name 'gripper-1'" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_failed_draw_keeps_only_its_open_list():
    # gripper-train-1's first draw fails at 8,000 nodes; by its 3,000th
    # expansion a recorded search would hold every plan it generated.
    task = load_fixture_task("gripper.pddl", "gripper-train-1.pddl")
    seen = {"visits": 0}

    def probe(plan, strategy, tables):
        seen["visits"] += 1
        if seen["visits"] == 3000:
            seen["live"] = live_plans()
        return select_flaw(plan, strategy, tables)

    config = DatasetConfig(seeds_per_problem=1, seed_max_generated=8000, rng_seed=0)
    with patch.object(search, "select_flaw", probe), pytest.raises(EmptyDatasetError):
        generate_dataset([task], "h_add", config)
    assert seen["live"] < 3000


def _counting_gbfs(monkeypatch, alter=None):
    """Patch ``learning.gbfs`` to record the first-pass searches it runs
    (replays aside), passing each result through ``alter`` if given."""
    real_gbfs, first_passes = learning.gbfs, []

    def counting(*args, **kwargs):
        result = real_gbfs(*args, **kwargs)
        if not kwargs.get("record_trace"):
            first_passes.append(result.outcome)
            if alter is not None:
                alter(result)
        return result

    monkeypatch.setattr(learning, "gbfs", counting)
    return first_passes


def test_failed_seed_drawn_again_is_searched_once(monkeypatch):
    # gripper-train-2 draws the null plan three times; each would stop on the
    # node budget, and the first search settles all three
    first_passes = _counting_gbfs(monkeypatch)
    task = load_fixture_task("gripper.pddl", "gripper-train-2.pddl")
    config = DatasetConfig(seeds_per_problem=3, seed_max_generated=4000, rng_seed=0)
    with pytest.raises(EmptyDatasetError):
        generate_dataset([task], "h_add", config)
    assert first_passes == ["limit-hit"]


@pytest.mark.parametrize("generated, elapsed", [
    (3999, 0.0),      # stopped on wall time below the node budget
    (4000, 11.0),     # stopped on wall time exactly at the budget's count
])
def test_failed_seed_stopped_on_wall_time_is_searched_again(monkeypatch, generated, elapsed):
    def wall_stop(result):
        result.outcome, result.generated, result.elapsed = "limit-hit", generated, elapsed

    first_passes = _counting_gbfs(monkeypatch, wall_stop)
    task = load_fixture_task("gripper.pddl", "gripper-train-2.pddl")
    config = DatasetConfig(seeds_per_problem=3, seed_max_generated=4000,
                           seed_wall_time=10.0, rng_seed=0)
    with pytest.raises(EmptyDatasetError):
        generate_dataset([task], "h_add", config)
    assert first_passes == ["limit-hit"] * 3


def test_exhausted_seed_drawn_again_is_searched_once(monkeypatch):
    first_passes = _counting_gbfs(monkeypatch)
    hopeless = make_task(2, [], {0}, {1})
    with pytest.raises(EmptyDatasetError):
        generate_dataset([hopeless], "h_add", DatasetConfig(seeds_per_problem=4))
    assert first_passes == ["exhausted"]


def test_replay_that_differs_is_an_error(monkeypatch):
    real_gbfs = learning.gbfs

    def drifting(*args, **kwargs):
        result = real_gbfs(*args, **kwargs)
        if kwargs.get("record_trace"):
            result.generated += 1
        return result

    monkeypatch.setattr(learning, "gbfs", drifting)
    task = load_fixture_task("gripper.pddl", "gripper-1.pddl")
    with pytest.raises(RuntimeError, match="replay"):
        generate_dataset([task], "h_add", DatasetConfig(seeds_per_problem=1))


# ── correlation_select ───────────────────────────────────────────────────────

def test_feature_identical_to_target_retained():
    rng = Random(4)
    instances = []
    for _ in range(30):
        t = rng.randint(0, 9)
        noise = [rng.random() for _ in range(4)]
        instances.append(TrainingInstance(vec(t, noise[0], noise[1], noise[2],
                                              noise[3], 5.0), t))
    mask = correlation_select(synthetic_dataset(instances))
    assert 0 in mask        # the copy of the target survives
    assert 5 not in mask    # the constant column is dropped


def test_constant_feature_dropped():
    rng = Random(8)
    instances = [TrainingInstance(vec(rng.random(), 3.0, rng.random(), rng.random(),
                                      rng.random(), rng.random()), rng.randint(0, 5))
                 for _ in range(25)]
    mask = correlation_select(synthetic_dataset(instances))
    assert 1 not in mask


def test_duplicate_features_keep_one():
    rng = Random(15)
    instances = []
    for _ in range(40):
        t = rng.randint(0, 9)
        x = t + rng.gauss(0, 0.2)
        other = rng.random()
        instances.append(TrainingInstance(vec(x, x, other, rng.random(),
                                              rng.random(), rng.random()), t))
    mask = correlation_select(synthetic_dataset(instances))
    assert (0 in mask) != (1 in mask)   # exactly one of the two copies


def test_irrelevant_feature_dropped_by_low_threshold():
    # block-structured noise columns are exactly uncorrelated with the target
    instances = []
    for i in range(200):
        t = i % 10
        block = 1.0 if (i // 10) % 2 == 0 else -1.0
        instances.append(TrainingInstance(vec(t, block, -block, 2 * block,
                                              block, 3 * block), t))
    mask = correlation_select(synthetic_dataset(instances))
    assert mask == (0,)


def test_constant_target_degenerate():
    instances = [TrainingInstance(vec(i, i + 1, 0, 0, 0, 0), 5) for i in range(10)]
    with pytest.raises(DegenerateDatasetError):
        correlation_select(synthetic_dataset(instances))


def test_mask_never_empty():
    # all features constant: fall back to the single best-correlated column
    instances = [TrainingInstance(vec(1, 2, 3, 4, 5, 6), i % 3) for i in range(12)]
    mask = correlation_select(synthetic_dataset(instances))
    assert len(mask) == 1


# ── fit_linear / predict ─────────────────────────────────────────────────────

def test_exact_interpolation():
    points = [((0, 0), 0), ((1, 0), 1), ((0, 1), 2), ((1, 1), 3)]
    instances = [TrainingInstance(vec(a, b, 0, 0, 0, 0), t) for (a, b), t in points]
    model = fit_linear(synthetic_dataset(instances), (0, 1))
    assert model.weights[0] == pytest.approx(1.0, abs=1e-9)
    assert model.weights[1] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    for (a, b), t in points:
        assert model.predict(vec(a, b, 0, 0, 0, 0)) == pytest.approx(t, abs=1e-9)


def test_constant_target_rejected():
    instances = [TrainingInstance(vec(i, 2 * i, 0, 0, 0, 0), 5) for i in range(10)]
    with pytest.raises(DegenerateDatasetError):
        fit_linear(synthetic_dataset(instances), (0, 1))


def test_too_few_instances_rejected():
    instances = [TrainingInstance(vec(1, 2, 3, 4, 5, 6), 1),
                 TrainingInstance(vec(2, 3, 4, 5, 6, 7), 2)]
    with pytest.raises(Exception):
        fit_linear(synthetic_dataset(instances), (0, 1, 2))


def test_noisy_recovery_matches_closed_form():
    rng = Random(77)
    xs, ys, instances = [], [], []
    for _ in range(100):
        x = rng.uniform(0, 10)
        y = 3.0 * x + 2.0 + rng.uniform(-0.01, 0.01)
        xs.append(x)
        ys.append(y)
        instances.append(TrainingInstance(vec(0, 0, x, 0, 0, 0), y))
    model = fit_linear(synthetic_dataset(instances), (2,))
    slope, intercept = ols_line(xs, ys)
    assert model.weights[0] == pytest.approx(slope, abs=1e-9)
    assert model.intercept == pytest.approx(intercept, abs=1e-9)
    assert abs(model.weights[0] - 3.0) <= 0.05
    assert abs(model.intercept - 2.0) <= 0.1


def test_noiseless_recovery_tight():
    rng = Random(13)
    instances = []
    for _ in range(100):
        a, b = rng.uniform(0, 5), rng.uniform(0, 5)
        instances.append(TrainingInstance(vec(a, 0, b, 0, 0, 0), 2.5 * a - 1.25 * b + 4.0))
    model = fit_linear(synthetic_dataset(instances), (0, 2))
    assert model.weights[0] == pytest.approx(2.5, abs=1e-9)
    assert model.weights[1] == pytest.approx(-1.25, abs=1e-9)
    assert model.intercept == pytest.approx(4.0, abs=1e-9)


def test_singular_gram_gets_ridge():
    # two identical columns make the normal equations singular
    rng = Random(3)
    instances = []
    for _ in range(30):
        x = rng.uniform(0, 4)
        instances.append(TrainingInstance(vec(x, x, 0, 0, 0, 0), 2 * x + 1))
    model = fit_linear(synthetic_dataset(instances), (0, 1))
    assert model.metadata.get("ridge") == 1e-8
    assert model.predict(vec(2, 2, 0, 0, 0, 0)) == pytest.approx(5.0, abs=1e-3)


def test_subsampling_caps_instances():
    rng = Random(55)
    instances = [TrainingInstance(vec(x := rng.uniform(0, 9), 0, 0, 0, 0, 0), 2 * x)
                 for _ in range(600)]
    model = fit_linear(synthetic_dataset(instances), (0,))
    assert model.metadata["instances"] == 350
    assert model.weights[0] == pytest.approx(2.0, abs=1e-6)


def test_predict_arithmetic():
    model = LinearModel((1.0, 2.0), 0.0, (0, 1))
    assert model.predict(vec(3, 4, 0, 0, 0, 0)) == 11.0


def test_predict_clamps_negative():
    model = LinearModel((1.0,), -10.0, (0,))
    assert model.predict(vec(2, 0, 0, 0, 0, 0)) == 0.0


def test_predict_infinite_passthrough():
    model = LinearModel((1.0, 1.0), 0.0, (2, 3))
    assert model.predict(vec(0, 0, INF, 1, 0, 0)) == INF


def test_predict_monotone_in_positive_weight():
    model = LinearModel((0.5, 2.0), 1.0, (1, 2))
    lo = model.predict(vec(0, 1, 1, 0, 0, 0))
    hi = model.predict(vec(0, 1, 3, 0, 0, 0))
    assert hi > lo


# ── persistence ──────────────────────────────────────────────────────────────

def test_model_round_trip(tmp_path):
    model = LinearModel((0.12345678901234567, -2.5), 1.0 / 3.0, (1, 2),
                        {"domain": "gripper", "base_heuristic": "h_add",
                         "instances": 42, "seed": 7, "r2": 0.9})
    path = str(tmp_path / "model.json")
    save_model(model, path)
    back = load_model(path)
    assert back.weights == model.weights
    assert back.intercept == model.intercept
    assert back.mask == model.mask
    assert back.metadata["domain"] == "gripper"
    assert back.metadata["instances"] == 42


def test_model_file_fields(tmp_path):
    model = LinearModel((1.0,), 0.5, (2,), {"domain": "d", "base_heuristic": "h_add"})
    path = str(tmp_path / "m.json")
    save_model(model, path)
    doc = json.loads(open(path).read())
    for key in ("domain", "base_heuristic", "mask", "weights", "intercept",
                "instances", "seed", "technique"):
        assert key in doc
    assert doc["mask"] == ["h_add"]


def test_model_length_mismatch_rejected(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"mask": ["h_add", "h_oc"], "weights": [1.0], "intercept": 0.0}, fh)
    with pytest.raises(MalformedModelError) as err:
        load_model(path)
    assert err.value.field == "weights"


def test_model_unknown_feature_rejected(tmp_path):
    path = str(tmp_path / "bad2.json")
    with open(path, "w") as fh:
        json.dump({"mask": ["h_mystery"], "weights": [1.0], "intercept": 0.0}, fh)
    with pytest.raises(MalformedModelError):
        load_model(path)


@pytest.mark.parametrize("doc", [3, None, ["mask", "weights", "intercept"],
                                 {"mask": ["h_add"], "weights": 1.0, "intercept": 0.0},
                                 # a NaN weight would make every prediction clamp to 0
                                 {"mask": ["h_add"], "weights": [math.nan], "intercept": 1.0},
                                 {"mask": ["h_add"], "weights": [math.inf], "intercept": 1.0},
                                 {"mask": ["h_add"], "weights": [1.0], "intercept": math.nan},
                                 {"mask": ["h_add"], "weights": [1.0], "intercept": -math.inf},
                                 # float() would read each of these as a number
                                 {"mask": ["h_add"], "weights": [True], "intercept": 0.0},
                                 {"mask": ["h_add"], "weights": ["2.5"], "intercept": 0.0},
                                 {"mask": ["h_add"], "weights": [1.0], "intercept": "1"},
                                 {"mask": ["h_add", "h_add"], "weights": [1.0, 1.0],
                                  "intercept": 0.0},
                                 # an integer no float holds
                                 {"mask": ["h_add"], "weights": [10 ** 400], "intercept": 0.0}])
def test_model_of_wrong_shape_rejected(tmp_path, capsys, doc):
    path = str(tmp_path / "shape.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(MalformedModelError, match=re.escape(path)):
        load_model(path)
    code = cli.main(["solve", fixture_path("gripper.pddl"), fixture_path("gripper-1.pddl"),
                     "--eval", f"model:{path}"])
    assert code == cli.EXIT_INPUT
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("weights, intercept, fld", [
    ((math.nan, 1.0), 0.0, "weights"), ((1.0, -math.inf), 0.0, "weights"),
    ((1.0, 1.0), math.inf, "intercept"), ((1.0, 1.0), math.nan, "intercept")])
def test_save_model_rejects_a_value_that_is_not_finite(tmp_path, weights, intercept, fld):
    # json would write NaN or Infinity, which ``load_model`` rejects, so no
    # file is written
    path = tmp_path / "m.json"
    with pytest.raises(MalformedModelError, match=rf": {fld} must be finite") as err:
        save_model(LinearModel(weights, intercept, (0, 2)), str(path))
    assert err.value.field == fld
    assert not path.exists()


def test_hand_written_model_predicts(tmp_path):
    path = str(tmp_path / "hand.json")
    with open(path, "w") as fh:
        json.dump({"domain": "", "base_heuristic": "", "mask": ["h_gval", "h_oc"],
                   "weights": [1.0, 2.0], "intercept": 0.0, "instances": 0, "seed": 0},
                  fh)
    model = load_model(path)
    assert model.predict(vec(3, 4, 0, 0, 0, 0)) == 11.0


def test_score_is_predict_at_the_masked_values():
    model = LinearModel((0.5, -2.0), 6.0, (3, 1))
    assert model.score([4.0, 2.0]) == model.predict(vec(9, 2, 7, 4, 8, 6)) == 4.0
    assert model.score([INF, 2.0]) == model.score([4.0, INF]) == INF
    assert LinearModel((), -1.0, ()).score([]) == 0.0


@pytest.mark.parametrize("intercept", [-2.5, 0.0, 1.5])
def test_hand_written_empty_mask_model_ranks_every_child_alike(tmp_path, intercept):
    path = str(tmp_path / "empty.json")
    with open(path, "w") as fh:
        json.dump({"mask": [], "weights": [], "intercept": intercept}, fh)
    model = load_model(path)
    assert model.mask == () and model.weights == ()
    task = load_fixture_task("gripper.pddl", "gripper-1.pddl")
    tables = build_tables(task)
    result = gbfs(task, ModelEvaluator(model, tables), limits=SearchLimits(300),
                  tables=tables, record_trace=True)
    assert len(result.trace) == result.generated > 1
    assert {row.h for row in result.trace} == {max(0.0, intercept)}


def test_dataset_csv_round_trip(tmp_path):
    instances = [TrainingInstance(vec(1, 2, 3.5, 4, 0, 6), 7),
                 TrainingInstance(vec(0, 0, 1e300, 0, 0, 0), 2)]
    dataset = synthetic_dataset(instances)
    path = str(tmp_path / "data.csv")
    save_dataset(dataset, path)
    with open(path) as fh:
        assert fh.readline().strip() == "h_gval,h_oc,h_add,h_add_w,h_add_r,h_add_w_r,target"
    back = load_dataset(path)
    assert [i.features for i in back.instances] == [i.features for i in instances]
    assert [i.target for i in back.instances] == [7, 2]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_save_dataset_rejects_a_feature_that_is_not_finite(tmp_path, value):
    # ``load_dataset`` would reject the file, so none is written
    instances = [TrainingInstance(vec(1, 2, 3, 4, 5, 6), 7),
                 TrainingInstance(vec(0, 0, 1, 0, value, 0), 2)]
    path = tmp_path / "data.csv"
    with pytest.raises(DatasetError,
                       match=re.escape(f"instance 1: feature h_add_r {value!r} is not finite")):
        save_dataset(synthetic_dataset(instances), str(path))
    assert not path.exists()


def _write_dataset(path, targets):
    with open(path, "w") as fh:
        fh.write(",".join(learning.DATASET_HEADER) + "\n")
        for i, target in enumerate(targets):
            fh.write(f"{i},1,2,3,4,5,{target}\n")


def test_dataset_whole_number_targets_accepted(tmp_path):
    path = str(tmp_path / "data.csv")
    _write_dataset(path, ["3", "3.0", "0"])
    assert [i.target for i in load_dataset(path).instances] == [3, 3, 0]


@pytest.mark.parametrize("target", ["inf", "nan", "2.5"])
def test_dataset_target_not_a_whole_number_rejected(tmp_path, capsys, target):
    path = str(tmp_path / "data.csv")
    _write_dataset(path, ["3", target])
    with pytest.raises(DatasetError, match=re.escape(f"{path}:3: target")):
        load_dataset(path)
    assert cli.main(["learn", "fit", path, "--out", str(tmp_path / "m.json")]) == cli.EXIT_INPUT
    assert f"{path}:3: target" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [(0, "nan"), (2, "inf"), (5, "-inf"), (3, "NaN")])
def test_dataset_feature_not_finite_rejected(tmp_path, capsys, column, value):
    # numpy would drop such a column in correlation_select with only warnings
    path = str(tmp_path / "data.csv")
    _write_dataset(path, ["3", "4"])
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[2].split(",")
    cells[column] = value
    lines[2] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    message = f"{path}:3: feature {FEATURE_NAMES[column]} {value!r} is not finite"
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_dataset(path)
    assert cli.main(["learn", "fit", path, "--out", str(tmp_path / "m.json")]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()
