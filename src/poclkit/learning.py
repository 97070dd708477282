"""Offline learning of plan-ranking models.

Dataset preparation draws random seed partial plans from a growing pool,
refines each to a solution with a base feature heuristic, and records the
feature vector together with the number of new actions the refinement added.
A seed whose refinement failed is searched once per problem: drawn again, it
reuses the first search's outcome and node count. A correlation filter picks
features; ordinary least squares fits the model, which reads only the
features its mask names.

Selection and fitting are plain Python over at most ``MAX_FIT_INSTANCES``
rows and seven columns, so the package has no runtime dependency: sums are
``math.fsum``, the condition number comes from Jacobi eigenvalues and the
normal equations are solved by Gaussian elimination.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Sequence

from .grounding import GroundTask
from .heuristics import FEATURE_NAMES, FeatureVector, build_tables, feature_vector
from .plans import PartialPlan, null_plan
from .search import FeatureEvaluator, SearchLimits, SearchResult, gbfs

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
    seed_index: int       # the pool index drawn: the seed plan the draw refined
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

    def matrix(self) -> tuple[list[list[float]], list[float]]:
        """The feature rows and the targets, as floats."""
        x = [[float(v) for v in inst.features] for inst in self.instances]
        y = [float(inst.target) for inst in self.instances]
        return x, y


@dataclass
class DatasetConfig:
    """Limits of dataset generation and its seed. Each draw searches with
    ``gbfs``'s own flaw rule and copy bound."""
    seeds_per_problem: int = 10
    seed_max_generated: int = 500_000
    seed_wall_time: float = 180.0
    rng_seed: int = 0

    def __post_init__(self):
        for name, ok, need in (
                ("seeds_per_problem", self.seeds_per_problem >= 1, ">= 1"),
                ("seed_max_generated", self.seed_max_generated >= 1, ">= 1"),
                ("seed_wall_time", self.seed_wall_time > 0, "> 0")):
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)!r}")


def generate_dataset(tasks: Sequence[GroundTask], base_heuristic: str,
                     config: Optional[DatasetConfig] = None) -> Dataset:
    """Run the seed-pool refinement loop over every task and collect instances.

    Each draw takes a random plan from the pool and refines it with the base
    heuristic. A successful refinement emits one instance (features of the
    seed, target = new actions added) and feeds the plans generated along the
    way back into the pool; a failed one contributes neither. Draws are
    recorded by problem name, so two tasks with one name are a ValueError.
    The dataset's domain is the first task's.

    A failed seed is searched once per problem. The pool only grows, so a
    pool index always names the same plan, and a failed search that ended
    exhausted or on the node budget ends the same way every time. A later
    draw of that index records the first search's outcome and node count
    without searching; ``Dataset.draws``, and with them the printed share of
    draw nodes in failed draws, still count each draw's nodes. A seed whose
    search stopped on the wall-time limit is searched again when drawn again.

    Each searched draw runs in two passes. The first searches without
    recording, so a failed draw holds only its open list. Only a solved draw
    is searched again from the same seed with ``record_trace``, bounded by
    the first pass's node count; search is deterministic, so the replay
    reaches the same solution, and its ``generated_plans`` feed the pool.
    Besides the pool, memory holds one search's open list, plus every plan
    of the one solved draw being replayed.
    """
    if config is None:
        config = DatasetConfig()
    if base_heuristic not in FEATURE_NAMES:
        raise ValueError(f"unknown base heuristic {base_heuristic!r}")
    names: dict[str, int] = {}
    for pidx, task in enumerate(tasks):
        if task.problem_name in names:
            raise ValueError(f"tasks {names[task.problem_name]} and {pidx} share the problem "
                             f"name {task.problem_name!r}")
        names[task.problem_name] = pidx

    dataset = Dataset(tasks[0].domain_name if tasks else "", base_heuristic, [],
                      config.rng_seed)
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
                result = gbfs(task, evaluator, limits=limits, tables=tables, root=sp)
                solved, generated = result.solved, result.generated
                if solved:
                    replay = gbfs(task, evaluator, limits=SearchLimits(generated, math.inf),
                                  tables=tables, root=sp, record_trace=True)
                    _check_replay(result, replay, task.problem_name, draw)
                    target = replay.plan.action_count - sp.action_count
                    dataset.instances.append(TrainingInstance(
                        feature_vector(sp, tables), target, sp, replay.plan))
                    pool.extend(replay.generated_plans)
                elif _settled(result, limits):
                    failed[index] = generated
            dataset.draws.append(DrawRecord(task.problem_name, index, solved,
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

def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    """Population standard deviation (divisor n)."""
    m = _mean(values)
    return math.sqrt(math.fsum((v - m) ** 2 for v in values) / len(values))


def _pearson(a: Sequence[float], b: Sequence[float]) -> float:
    sa, sb = _std(a), _std(b)
    if sa == 0.0 or sb == 0.0:
        return 0.0
    ma, mb = _mean(a), _mean(b)
    return _mean([(u - ma) * (v - mb) for u, v in zip(a, b)]) / (sa * sb)


def correlation_select(dataset: Dataset, low_threshold: float = 0.1,
                       high_threshold: float = 0.95) -> tuple[int, ...]:
    """Indices of features to keep: drop target-uncorrelated and constant
    columns, then the weaker member of any near-duplicate pair. Never empty."""
    if not (0.0 <= low_threshold <= 1.0 and 0.0 <= high_threshold <= 1.0):
        raise ValueError("correlation thresholds must lie in [0, 1]")
    if len(dataset.instances) < 2:
        raise DatasetError("need at least 2 instances for feature selection")
    x, y = dataset.matrix()
    if _std(y) == 0.0:
        raise DegenerateDatasetError("target is constant")

    columns = list(zip(*x))
    target_r = [_pearson(col, y) for col in columns]
    relevant = [i for i, col in enumerate(columns)
                if _std(col) > 0.0 and abs(target_r[i]) >= low_threshold]

    kept: list[int] = []
    for i in sorted(relevant, key=lambda i: -abs(target_r[i])):
        if all(abs(_pearson(columns[i], columns[j])) <= high_threshold for j in kept):
            kept.append(i)

    if not kept:
        kept = [max(range(len(columns)), key=lambda i: abs(target_r[i]))]
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
    if _std(y) == 0.0:
        raise DegenerateDatasetError("target is constant")
    n = len(y)
    if n < len(mask) + 1:
        raise DatasetError(f"{n} instances cannot fit {len(mask)} weights + intercept")

    if n > MAX_FIT_INSTANCES:
        rng = Random(f"fit:{dataset.rng_seed}")
        keep = sorted(rng.sample(range(n), MAX_FIT_INSTANCES))
        x, y = [x[k] for k in keep], [y[k] for k in keep]
        n = MAX_FIT_INSTANCES

    design = [[1.0] + [row[i] for i in mask] for row in x]
    columns = list(zip(*design))
    gram = [[math.fsum(a * b for a, b in zip(ci, cj)) for cj in columns] for ci in columns]
    rhs = [math.fsum(a * b for a, b in zip(ci, y)) for ci in columns]
    metadata = {
        "domain": dataset.domain_name,
        "base_heuristic": dataset.base_heuristic,
        "technique": "linear_regression",
        "instances": n,
        "seed": dataset.rng_seed,
    }
    if _condition(gram) > 1e12:
        for i, row in enumerate(gram):
            row[i] += 1e-8
        metadata["ridge"] = 1e-8
    beta = _solve(gram, rhs)

    residuals = [t - math.fsum(b * d for b, d in zip(beta, row)) for row, t in zip(design, y)]
    ss_res = math.fsum(r * r for r in residuals)
    my = _mean(y)
    ss_tot = math.fsum((t - my) ** 2 for t in y)
    metadata["r2"] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    metadata["residual_std"] = _std(residuals)

    return LinearModel(tuple(beta[1:]), beta[0], mask, metadata)


def _condition(sym: list[list[float]]) -> float:
    """The 2-norm condition number of a symmetric matrix: the ratio of its
    largest to smallest absolute eigenvalue, inf when one is 0."""
    eigen = [abs(e) for e in _eigenvalues(sym)]
    return math.inf if min(eigen) == 0.0 else max(eigen) / min(eigen)


def _eigenvalues(sym: list[list[float]]) -> list[float]:
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.
    A sweep rotates away every off-diagonal entry that is not negligible
    against its two diagonal entries; it ends after a sweep that rotates
    nothing, which keeps small eigenvalues accurate relative to their size."""
    a = [row[:] for row in sym]
    n = len(a)
    for _ in range(100):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-18 * math.sqrt(abs(a[p][p] * a[q][q])):
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for r in range(n):
                    arp, arq = a[r][p], a[r][q]
                    a[r][p], a[r][q] = c * arp - s * arq, s * arp + c * arq
                for r in range(n):
                    apr, aqr = a[p][r], a[q][r]
                    a[p][r], a[q][r] = c * apr - s * aqr, s * apr + c * aqr
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            break
    return [a[i][i] for i in range(n)]


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve ``matrix @ x = rhs`` by Gaussian elimination with partial
    pivoting. A zero pivot means the system is singular: DatasetError."""
    n = len(rhs)
    a = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[pivot][k] == 0.0:
            raise DatasetError("the normal equations are singular")
        a[k], a[pivot] = a[pivot], a[k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n + 1):
                a[r][c] -= f * a[k][c]
    x = [0.0] * n
    for k in reversed(range(n)):
        x[k] = (a[k][n] - math.fsum(a[k][c] * x[c] for c in range(k + 1, n))) / a[k][k]
    return x


# ── Persistence ──────────────────────────────────────────────────────────────

# A model file's provenance fields with the value each takes when absent, and
# the fit statistics it holds when its fit gave them.
MODEL_PROVENANCE = (("domain", ""), ("base_heuristic", ""), ("technique", "linear_regression"),
                    ("instances", 0), ("seed", 0))
FIT_STATISTICS = ("r2", "residual_std", "ridge")


def _model_metadata(source: dict) -> dict:
    """The provenance fields of ``source`` or their defaults, then the fit
    statistics ``source`` has."""
    metadata = {key: source.get(key, default) for key, default in MODEL_PROVENANCE}
    metadata.update((key, source[key]) for key in FIT_STATISTICS if key in source)
    return metadata


def save_model(model: LinearModel, path: str) -> None:
    """Write a model file that ``load_model`` reads back. A NaN or infinite
    weight or intercept raises MalformedModelError before the file is opened."""
    for fld, values in (("weights", model.weights), ("intercept", (model.intercept,))):
        if not all(map(math.isfinite, values)):
            raise MalformedModelError(f"{path}: {fld} must be finite, got {values!r}", fld)
    doc = {"mask": [FEATURE_NAMES[i] for i in model.mask], "weights": list(model.weights),
           "intercept": model.intercept, **_model_metadata(model.metadata)}
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
    if (not isinstance(names, list) or any(n not in FEATURE_NAMES for n in names)
            or len(set(names)) != len(names)):
        raise MalformedModelError(f"{path}: mask must list known feature names, each once",
                                  "mask")
    weights = doc["weights"]
    if not isinstance(weights, list) or len(weights) != len(names):
        raise MalformedModelError(
            f"{path}: weights must list one number per mask entry ({len(names)})", "weights")
    # a JSON number only: float() would also take true and "2.5"
    if not all(type(v) in (int, float) for v in weights + [doc["intercept"]]):
        raise MalformedModelError(f"{path}: non-numeric weight or intercept", "weights")
    try:
        weights = tuple(map(float, weights))
        intercept = float(doc["intercept"])
        finite = all(map(math.isfinite, weights + (intercept,)))
    except OverflowError:    # an integer too large for a float
        finite = False
    if not finite:
        raise MalformedModelError(f"{path}: weights and intercept must be finite", "weights")

    mask = tuple(FEATURE_NAMES.index(n) for n in names)
    return LinearModel(weights, intercept, mask, _model_metadata(doc))


DATASET_HEADER = FEATURE_NAMES + ("target",)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset CSV that ``load_dataset`` reads back. A NaN or
    infinite feature raises DatasetError before the file is opened."""
    for index, inst in enumerate(dataset.instances):
        for name, value in zip(FEATURE_NAMES, inst.features):
            if not math.isfinite(value):
                raise DatasetError(f"instance {index}: feature {name} {value!r} is not finite")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for inst in dataset.instances:
            writer.writerow([repr(v) for v in inst.features] + [inst.target])


def load_dataset(path: str) -> Dataset:
    """Read a dataset CSV. The CSV carries no provenance metadata, so the
    dataset's domain and base heuristic are empty and its seed is 0."""
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
            for name, text, value in zip(FEATURE_NAMES, row, values):
                if not math.isfinite(value):
                    raise DatasetError(f"{where}: feature {name} {text!r} is not finite")
            if not (math.isfinite(target) and target.is_integer()):
                raise DatasetError(f"{where}: target {row[-1]!r} is not a whole number")
            instances.append(TrainingInstance(FeatureVector(*values), int(target)))
    if not instances:
        raise EmptyDatasetError(f"{path}: no instances")
    return Dataset("", "", instances, 0)
