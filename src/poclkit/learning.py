"""Offline learning of plan-ranking models.

Dataset preparation draws random seed partial plans from a growing pool,
refines each to a solution with a base feature heuristic, and records the
feature vector together with the number of new actions the refinement added.
A seed whose refinement failed is searched once per problem: drawn again, it
reuses the first search's outcome and node count. A correlation filter picks
features; ordinary least squares fits the model, which reads only the
features its mask names.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grounding import GroundTask
from .heuristics import FEATURE_NAMES, FeatureVector, build_tables, feature_vector
from .plans import MAX_COPIES, PartialPlan, null_plan
from .search import STRATEGIES, FeatureEvaluator, SearchLimits, SearchResult, gbfs

log = logging.getLogger("poclkit.learning")

BASE_FEATURES = ("h_add", "h_add_w", "h_add_r", "h_add_w_r")
MAX_FIT_INSTANCES = 350


class DatasetError(Exception):
    pass


class EmptyDatasetError(DatasetError):
    """No seed refined to a solution within the limits."""


class DegenerateDatasetError(DatasetError):
    """The target column is constant; nothing to regress on."""


class MalformedModelError(Exception):
    def __init__(self, message: str, fld: str = ""):
        self.field = fld
        super().__init__(message)


@dataclass
class TrainingInstance:
    features: FeatureVector
    target: int
    seed_plan: Optional[PartialPlan] = None
    solution_plan: Optional[PartialPlan] = None


@dataclass
class DrawRecord:
    """One seed draw during dataset prep, for auditing pool updates."""
    problem: str
    seed_index: int
    solved: bool
    pool_before: int
    pool_after: int
    generated: int        # nodes of the draw's search, not of its replay; a
                          # reused failed seed's are those of its first search


@dataclass
class Dataset:
    domain_name: str
    base_heuristic: str
    instances: list[TrainingInstance]
    rng_seed: int
    draws: list[DrawRecord] = field(default_factory=list)

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.array([inst.features for inst in self.instances], dtype=float)
        y = np.array([inst.target for inst in self.instances], dtype=float)
        return x, y


@dataclass
class DatasetConfig:
    """Limits and choices of dataset generation.

    ``strategy`` is a named flaw rule (``mc-loc`` or ``mw-loc``) or a
    callable ``(plan, tables) -> Flaw``. A callable must be deterministic:
    the replay of a solved draw and the reuse of a failed seed's outcome
    both assume that a search from the same seed goes the same way.
    """
    seeds_per_problem: int = 10
    seed_max_generated: int = 500_000
    seed_wall_time: float = 180.0
    rng_seed: int = 0
    strategy: Union[str, Callable] = "mw-loc"
    max_copies: Optional[int] = MAX_COPIES

    def __post_init__(self):
        for name, ok, need in (
                ("seeds_per_problem", self.seeds_per_problem >= 1, ">= 1"),
                ("seed_max_generated", self.seed_max_generated >= 1, ">= 1"),
                ("seed_wall_time", self.seed_wall_time > 0, "> 0"),
                ("max_copies", self.max_copies is None or self.max_copies >= 1,
                 "None or >= 1"),
                ("strategy", callable(self.strategy) or self.strategy in STRATEGIES,
                 f"one of {', '.join(STRATEGIES)} or a callable")):
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")


def generate_dataset(tasks: Sequence[GroundTask], base_heuristic: str,
                     config: Optional[DatasetConfig] = None,
                     domain_name: str = "") -> Dataset:
    """Run the seed-pool refinement loop over every task and collect instances.

    Each draw takes a random plan from the pool and refines it with the base
    heuristic. A successful refinement emits one instance (features of the
    seed, target = new actions added) and feeds the plans generated along the
    way back into the pool; a failed one contributes neither.

    A failed seed is searched once per problem. The pool only grows, so a
    pool index always names the same plan, and a failed search that ended
    exhausted or on the node budget ends the same way every time. A later
    draw of that index records the first search's outcome and node count
    without searching; ``Dataset.draws``, and with them the printed share of
    draw nodes in failed draws, still count each draw's nodes. A seed whose
    search stopped on the wall-time limit is searched again when drawn again.

    Each searched draw runs in two passes. The first searches without keeping the
    plans it generates, so a failed draw holds only its open list. Only a
    solved draw is searched again from the same seed with
    ``collect_generated``, bounded by the first pass's node count; search is
    deterministic, so the replay reaches the same solution and the pool and
    instances equal those of a single collecting pass. Besides the pool,
    memory holds one search's open list, plus every plan of the one solved
    draw being replayed.
    """
    if config is None:
        config = DatasetConfig()
    if base_heuristic not in FEATURE_NAMES:
        raise ValueError(f"unknown base heuristic {base_heuristic!r}")
    if not domain_name and tasks:
        domain_name = tasks[0].domain_name

    dataset = Dataset(domain_name, base_heuristic, [], config.rng_seed)
    limits = SearchLimits(config.seed_max_generated, config.seed_wall_time)
    for pidx, task in enumerate(tasks):
        rng = Random(f"{config.rng_seed}:{pidx}")
        tables = build_tables(task)
        evaluator = FeatureEvaluator(base_heuristic, tables)
        pool: list[PartialPlan] = [null_plan(task)]
        failed: dict[int, int] = {}    # pool index -> nodes of its settled failed search
        for draw in range(config.seeds_per_problem):
            before = len(pool)
            index = rng.randrange(before)
            solved, generated = False, failed.get(index)
            if generated is None:
                sp = pool[index]
                result = gbfs(task, evaluator, config.strategy, limits, tables,
                              root=sp, max_copies=config.max_copies)
                solved, generated = result.solved, result.generated
                if solved:
                    replay = gbfs(task, evaluator, config.strategy,
                                  SearchLimits(generated, math.inf), tables, root=sp,
                                  max_copies=config.max_copies, collect_generated=True)
                    _check_replay(result, replay, task.problem_name, draw)
                    target = replay.plan.action_count - sp.action_count
                    dataset.instances.append(TrainingInstance(
                        feature_vector(sp, tables), target, sp, replay.plan))
                    pool.extend(replay.generated_plans)
                elif _settled(result, limits):
                    failed[index] = generated
            dataset.draws.append(DrawRecord(task.problem_name, draw, solved,
                                            before, len(pool), generated))
            log.debug("problem=%s draw=%d solved=%s generated=%d pool=%d",
                      task.problem_name, draw, solved, generated, len(pool))

    if not dataset.instances:
        raise EmptyDatasetError("no seed refined to a solution within the limits")
    return dataset


def _settled(result: SearchResult, limits: SearchLimits) -> bool:
    """Whether a failed search would end the same way if run again: it
    exhausted its open list, or it stopped on the node budget. A wall-time
    stop leaves its elapsed time past the limit, so even one that stopped at
    the budget's count is not settled: run on, it might have solved."""
    if result.outcome == "exhausted":
        return True
    return result.generated >= limits.max_generated and result.elapsed <= limits.wall_time


def _check_replay(first: SearchResult, replay: SearchResult, problem: str, draw: int) -> None:
    """A replay must retrace the first pass; anything else means search is
    not deterministic and the pool would hold plans of a different search."""
    if not (replay.solved and replay.generated == first.generated
            and replay.plan == first.plan):
        raise RuntimeError(
            f"{problem} draw {draw}: replay gave {replay.outcome} after "
            f"{replay.generated} nodes, first pass solved after {first.generated}")


# ── Feature selection ────────────────────────────────────────────────────────

def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def correlation_select(dataset: Dataset, low_threshold: float = 0.1,
                       high_threshold: float = 0.95) -> tuple[int, ...]:
    """Indices of features to keep: drop target-uncorrelated and constant
    columns, then the weaker member of any near-duplicate pair. Never empty."""
    if not (0.0 <= low_threshold <= 1.0 and 0.0 <= high_threshold <= 1.0):
        raise ValueError("correlation thresholds must lie in [0, 1]")
    if len(dataset.instances) < 2:
        raise DatasetError("need at least 2 instances for feature selection")
    x, y = dataset.matrix()
    if y.std() == 0.0:
        raise DegenerateDatasetError("target is constant")

    target_r = [_pearson(x[:, i], y) for i in range(x.shape[1])]
    relevant = [i for i in range(x.shape[1])
                if x[:, i].std() > 0.0 and abs(target_r[i]) >= low_threshold]

    kept: list[int] = []
    for i in sorted(relevant, key=lambda i: -abs(target_r[i])):
        if all(abs(_pearson(x[:, i], x[:, j])) <= high_threshold for j in kept):
            kept.append(i)

    if not kept:
        kept = [max(range(x.shape[1]), key=lambda i: abs(target_r[i]))]
    return tuple(sorted(kept))


# ── Model fitting and prediction ─────────────────────────────────────────────

@dataclass
class LinearModel:
    weights: tuple[float, ...]       # one per masked feature
    intercept: float
    mask: tuple[int, ...]            # indices into FEATURE_NAMES
    metadata: dict = field(default_factory=dict)

    def score(self, values: Sequence[float]) -> float:
        """The model at the masked features ``values``, in mask order: +inf
        if any value is, else the intercept plus the weighted sum, clamped
        at 0."""
        total = self.intercept
        for w, f in zip(self.weights, values):
            if f == math.inf:
                return math.inf
            total += w * f
        return max(0.0, total)

    def predict(self, features: FeatureVector) -> float:
        return self.score([features[i] for i in self.mask])


def fit_linear(dataset: Dataset, mask: Sequence[int]) -> LinearModel:
    """Ordinary least squares over the masked features via normal equations.

    Datasets above MAX_FIT_INSTANCES rows are subsampled (seeded by the
    dataset's rng seed). A near-singular Gram matrix gets a small ridge term,
    recorded in the model metadata.
    """
    mask = tuple(mask)
    x, y = dataset.matrix()
    if y.std() == 0.0:
        raise DegenerateDatasetError("target is constant")
    n = len(y)
    if n < len(mask) + 1:
        raise DatasetError(f"{n} instances cannot fit {len(mask)} weights + intercept")

    if n > MAX_FIT_INSTANCES:
        rng = Random(f"fit:{dataset.rng_seed}")
        keep = sorted(rng.sample(range(n), MAX_FIT_INSTANCES))
        x, y = x[keep], y[keep]
        n = MAX_FIT_INSTANCES

    design = np.column_stack([np.ones(n), x[:, mask]])
    gram = design.T @ design
    rhs = design.T @ y
    metadata = {
        "domain": dataset.domain_name,
        "base_heuristic": dataset.base_heuristic,
        "technique": "linear_regression",
        "instances": n,
        "seed": dataset.rng_seed,
    }
    if np.linalg.cond(gram) > 1e12:
        gram = gram + 1e-8 * np.eye(gram.shape[0])
        metadata["ridge"] = 1e-8
    beta = np.linalg.solve(gram, rhs)

    residuals = y - design @ beta
    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    metadata["r2"] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    metadata["residual_std"] = float(residuals.std())

    return LinearModel(tuple(float(b) for b in beta[1:]), float(beta[0]), mask, metadata)


# ── Persistence ──────────────────────────────────────────────────────────────

def save_model(model: LinearModel, path: str) -> None:
    doc = {
        "domain": model.metadata.get("domain", ""),
        "base_heuristic": model.metadata.get("base_heuristic", ""),
        "technique": model.metadata.get("technique", "linear_regression"),
        "mask": [FEATURE_NAMES[i] for i in model.mask],
        "weights": list(model.weights),
        "intercept": model.intercept,
        "instances": model.metadata.get("instances", 0),
        "seed": model.metadata.get("seed", 0),
    }
    for key in ("r2", "residual_std", "ridge"):
        if key in model.metadata:
            doc[key] = model.metadata[key]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> LinearModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedModelError(f"{path}: not valid JSON ({exc})") from exc

    if not isinstance(doc, dict):
        raise MalformedModelError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key in ("mask", "weights", "intercept"):
        if key not in doc:
            raise MalformedModelError(f"{path}: missing field {key!r}", key)
    names = doc["mask"]
    if not isinstance(names, list) or any(n not in FEATURE_NAMES for n in names):
        raise MalformedModelError(f"{path}: mask must list known feature names", "mask")
    weights = doc["weights"]
    if not isinstance(weights, list) or len(weights) != len(names):
        raise MalformedModelError(
            f"{path}: weights must list one number per mask entry ({len(names)})", "weights")
    try:
        weights = tuple(float(w) for w in weights)
        intercept = float(doc["intercept"])
    except (TypeError, ValueError) as exc:
        raise MalformedModelError(f"{path}: non-numeric weight or intercept", "weights") from exc
    if not all(map(math.isfinite, weights + (intercept,))):
        raise MalformedModelError(f"{path}: weights and intercept must be finite", "weights")

    metadata = {
        "domain": doc.get("domain", ""),
        "base_heuristic": doc.get("base_heuristic", ""),
        "technique": doc.get("technique", "linear_regression"),
        "instances": doc.get("instances", 0),
        "seed": doc.get("seed", 0),
    }
    for key in ("r2", "residual_std", "ridge"):
        if key in doc:
            metadata[key] = doc[key]
    mask = tuple(FEATURE_NAMES.index(n) for n in names)
    return LinearModel(weights, intercept, mask, metadata)


DATASET_HEADER = FEATURE_NAMES + ("target",)


def save_dataset(dataset: Dataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for inst in dataset.instances:
            writer.writerow([repr(v) for v in inst.features] + [inst.target])


def load_dataset(path: str, domain_name: str = "", base_heuristic: str = "",
                 rng_seed: int = 0) -> Dataset:
    """Read a dataset CSV. The CSV carries no provenance metadata, so domain,
    base heuristic, and seed must be supplied if they matter downstream."""
    instances = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != DATASET_HEADER:
            raise DatasetError(f"{path}: expected header {','.join(DATASET_HEADER)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(DATASET_HEADER):
                raise DatasetError(f"{where}: row with {len(row)} columns")
            try:
                *values, target = map(float, row)
            except ValueError as exc:
                raise DatasetError(f"{where}: {exc}") from exc
            if not (math.isfinite(target) and target.is_integer()):
                raise DatasetError(f"{where}: target {row[-1]!r} is not a whole number")
            instances.append(TrainingInstance(FeatureVector(*values), int(target)))
    if not instances:
        raise EmptyDatasetError(f"{path}: no instances")
    return Dataset(domain_name, base_heuristic, instances, rng_seed)
