"""Benchmark harness: suites of problems x evaluators with IPC-style scores.

Per-problem scores for quality, nodes, and makespan are best/value ratios;
time gets full score at or under one second and falls off logarithmically.
Unsolved rows score zero everywhere. Cells run isolated in a worker pool and
the report is assembled in (problem, evaluator) order, so results do not
depend on completion order. A process parses, grounds and tabulates a problem
once for the cells it runs of it in a row: all of them when run serially.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from .grounding import GroundTask, load_task
from .heuristics import FEATURE_NAMES, CostTables, build_tables
from .learning import load_model
from .plans import MAX_COPIES, format_plan
from .search import FeatureEvaluator, ModelEvaluator, SearchLimits, STRATEGIES, gbfs
from .tuning import ErrorTracker

log = logging.getLogger("poclkit.bench")

REPORT_HEADER = ("problem", "evaluator", "solved", "plan_length", "makespan", "time_s",
                 "nodes_visited", "nodes_generated", "quality", "time_score",
                 "nodes_score", "makespan_score")


def shorthand(feature: str) -> str:
    """The evaluator spec naming a base feature: ``h_add`` -> ``add``."""
    return feature.removeprefix("h_")


def base_feature(spec: str) -> str:
    """The base feature an evaluator spec names: ``add`` -> ``h_add``."""
    name = "h_" + spec
    if name not in FEATURE_NAMES:
        raise ValueError(f"unknown evaluator spec {spec!r}")
    return name


def parse_model_spec(spec: str) -> Optional[tuple[str, bool]]:
    """``(FILE, enhanced)`` for a ``model:FILE[:enhanced]`` spec, else None."""
    if not spec.startswith("model:"):
        return None
    path = spec[len("model:"):]
    file = path.removesuffix(":enhanced")
    if not file:
        raise ValueError(f"model spec {spec!r} names no model file")
    return file, file != path


def build_evaluator(spec: str, tables: CostTables):
    """Evaluator from a spec string: a base feature shorthand or
    ``model:FILE`` / ``model:FILE:enhanced``. Fresh instance per call, so an
    enhanced evaluator's tracker is never shared between searches."""
    model = parse_model_spec(spec)
    if model is None:
        return FeatureEvaluator(base_feature(spec), tables)
    path, enhanced = model
    return ModelEvaluator(load_model(path), tables, ErrorTracker() if enhanced else None)


# ── IPC-style scores ─────────────────────────────────────────────────────────

def ratio_score(value: Optional[float], best_value: float) -> float:
    """``best/value`` for a solved row, 0 for an unsolved one (``None``)."""
    if value is None:
        return 0.0
    return best_value / value


quality_score = nodes_score = makespan_score = ratio_score


def time_score(t_seconds: Optional[float], t_best: float) -> float:
    if t_seconds is None:
        return 0.0
    if t_seconds <= 1.0:
        return 1.0
    return 1.0 / (1.0 + math.log10(t_seconds / max(t_best, 1.0)))


# ── Suite configuration ──────────────────────────────────────────────────────

@dataclass
class SuiteConfig:
    domain: str
    problems: list[str]
    evaluators: list[str]
    strategy: str = "mw-loc"
    max_generated: int = SearchLimits.max_generated
    wall_time: float = SearchLimits.wall_time
    out_dir: str = "bench-out"
    workers: int = 0                 # 0 = logical cores
    max_copies: Optional[int] = MAX_COPIES


# Each optional suite-config key: (its SuiteConfig field, the parser of its
# text, the check a value must pass, what a value must be). A key the config
# leaves out takes its field's SuiteConfig default; ``run_suite`` applies the
# same checks to a config built in code.
SETTINGS = {
    "flaws": ("strategy", str, lambda s: s in STRATEGIES, " or ".join(STRATEGIES)),
    "max_nodes": ("max_generated", int, lambda n: n > 0, "a positive integer"),
    "timeout": ("wall_time", float, lambda t: t > 0, "a positive number"),
    "workers": ("workers", int, lambda n: n >= 0,
                "0 (one per logical core) or a positive integer"),
    "max_copies": ("max_copies", lambda v: None if v == "none" else int(v),
                   lambda n: n is None or n > 0, "a positive integer or none"),
}

SUITE_KEYS = frozenset(SETTINGS) | {"domain", "out_dir"}


def _add_once(seen: dict[str, int], item: str, what: str, lineno: int) -> None:
    """Record ``item`` as first seen on ``lineno``; a second sighting is an error."""
    if item in seen:
        raise ValueError(f"suite config line {lineno}: repeated {what} {item!r} "
                         f"(first on line {seen[item]})")
    seen[item] = lineno


def parse_suite_config(text: str, base_dir: str = ".") -> SuiteConfig:
    """Parse ``key=value`` lines; ``problem`` and ``evaluator`` repeat, and
    any other key must be one of ``SUITE_KEYS`` and appear once. Paths are
    config-relative. A problem or evaluator listed twice (compared after the
    paths are resolved and normalised) is an error, since each would run and
    score its cells twice."""
    def rebase(path: str) -> str:
        return os.path.normpath(os.path.join(base_dir, path))

    values: dict[str, str] = {}
    problems: dict[str, int] = {}      # value -> line, in config order
    evaluators: dict[str, int] = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"suite config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "problem":
            _add_once(problems, rebase(value), key, lineno)
        elif key == "evaluator":
            try:
                model = parse_model_spec(value)
                if model is None:
                    base_feature(value)
            except ValueError:
                raise ValueError(f"suite config line {lineno}: evaluator must be "
                                 f"{'|'.join(map(shorthand, FEATURE_NAMES))} or "
                                 f"model:FILE[:enhanced], got {value!r}") from None
            if model is not None:
                path, enhanced = model
                value = "model:" + rebase(path) + (":enhanced" if enhanced else "")
            _add_once(evaluators, value, key, lineno)
        elif key in SUITE_KEYS:
            _add_once(key_lines, key, "key", lineno)
            values[key] = value
        else:
            raise ValueError(f"suite config line {lineno}: unknown key {key!r}")

    if "domain" not in values:
        raise ValueError("suite config is missing domain=")
    if not problems:
        raise ValueError("suite config needs at least one problem=")
    if not evaluators:
        raise ValueError("suite config needs at least one evaluator=")

    settings = {}
    for key, (name, parse, ok, need) in SETTINGS.items():
        if key not in values:
            continue
        try:
            value = parse(values[key])
            bad = not ok(value)
        except ValueError:
            bad = True
        if bad:
            raise ValueError(f"suite config line {key_lines[key]}: {key} must be {need}, "
                             f"got {values[key]!r}")
        settings[name] = value

    return SuiteConfig(domain=rebase(values["domain"]), problems=list(problems),
                       evaluators=list(evaluators),
                       out_dir=rebase(values.get("out_dir", SuiteConfig.out_dir)), **settings)


# ── Suite execution ──────────────────────────────────────────────────────────

@dataclass
class CellResult:
    problem: str
    evaluator: str
    solved: bool
    plan_length: Optional[int]
    makespan: Optional[int]
    time_s: float
    visited: int
    generated: int
    plan_text: str = ""
    error: str = ""
    quality: float = 0.0
    time_score: float = 0.0
    nodes_score: float = 0.0
    makespan_score: float = 0.0


@dataclass
class ScoreReport:
    rows: list[CellResult]
    aggregates: dict[str, dict[str, float]]
    csv_path: str = ""


def _problem_name(path: str) -> str:
    """A problem's key in the rows, the scores and the plan file names: its file stem."""
    return os.path.splitext(os.path.basename(path))[0]


# Cells run problem by problem, so a problem's later cells find its task and
# tables in the cache (searches read both and change neither); a pool worker
# keeps its own. ``run_suite`` clears it before and after a suite, so a suite
# reads every file anew and leaves no task alive behind it.
@functools.lru_cache(maxsize=1)
def _load(domain_path: str, problem_path: str) -> tuple[GroundTask, CostTables]:
    task = load_task(domain_path, problem_path)
    return task, build_tables(task)


def _run_cell(args: tuple) -> CellResult:
    domain_path, problem_path, eval_spec, strategy, max_generated, wall_time, max_copies = args
    problem_name = _problem_name(problem_path)
    try:
        task, tables = _load(domain_path, problem_path)
        evaluator = build_evaluator(eval_spec, tables)
        result = gbfs(task, evaluator, strategy,
                      SearchLimits(max_generated, wall_time), tables,
                      max_copies=max_copies)
        if result.solved:
            return CellResult(problem_name, eval_spec, True, result.plan_length,
                              result.makespan, result.elapsed, result.visited,
                              result.generated, plan_text=format_plan(result.plan))
        return CellResult(problem_name, eval_spec, False, None, None, result.elapsed,
                          result.visited, result.generated, error=result.outcome)
    except Exception as exc:  # a failing cell must not abort the suite
        log.warning("cell %s/%s failed: %s", problem_name, eval_spec, exc)
        return CellResult(problem_name, eval_spec, False, None, None, 0.0, 0, 0,
                          error=str(exc))


def _score_rows(rows: list[CellResult]) -> None:
    by_problem: dict[str, list[CellResult]] = {}
    for row in rows:
        by_problem.setdefault(row.problem, []).append(row)
    for group in by_problem.values():
        solved = [r for r in group if r.solved]
        if not solved:
            continue
        best_length = max(1, min(r.plan_length for r in solved))
        best_nodes = max(1, min(r.visited for r in solved))
        best_makespan = max(1, min(r.makespan for r in solved))
        best_time = min(r.time_s for r in solved)
        for r in solved:
            r.quality = ratio_score(max(1, r.plan_length), best_length)
            r.time_score = time_score(r.time_s, best_time)
            r.nodes_score = ratio_score(max(1, r.visited), best_nodes)
            r.makespan_score = ratio_score(max(1, r.makespan), best_makespan)


def _aggregate(rows: list[CellResult], evaluators: list[str]) -> dict[str, dict[str, float]]:
    agg = {e: {"coverage": 0, "quality": 0.0, "time": 0.0, "nodes": 0.0, "makespan": 0.0}
           for e in evaluators}
    for r in rows:
        a = agg[r.evaluator]
        a["coverage"] += int(r.solved)
        a["quality"] += r.quality
        a["time"] += r.time_score
        a["nodes"] += r.nodes_score
        a["makespan"] += r.makespan_score
    return agg


def _plan_filename(problem: str, evaluator: str) -> str:
    tag = re.sub(r"[^A-Za-z0-9_.-]+", "_", evaluator)
    return f"{problem}__{tag}.plan"


def write_report_csv(rows: list[CellResult], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for r in rows:
            writer.writerow([
                r.problem, r.evaluator, int(r.solved),
                "" if r.plan_length is None else r.plan_length,
                "" if r.makespan is None else r.makespan,
                f"{r.time_s:.3f}", r.visited, r.generated,
                f"{r.quality:.6f}", f"{r.time_score:.6f}",
                f"{r.nodes_score:.6f}", f"{r.makespan_score:.6f}",
            ])


def run_suite(config: SuiteConfig) -> ScoreReport:
    """Run every problem under every evaluator, score, and write the report.

    A setting that fails its ``SETTINGS`` check, and two cells that would
    write one plan file, are a ``ValueError`` raised before any cell runs. A
    plan file is named by its cell's row key (problem stem, evaluator), so
    this also rejects a problem or evaluator listed twice and two problems
    with one stem. ``out_dir/plans`` is made next, before the first cell.
    """
    for name, _, ok, need in SETTINGS.values():
        value = getattr(config, name)
        if not ok(value):
            raise ValueError(f"{name} must be {need}, got {value!r}")
    writers: dict[str, str] = {}    # plan file name -> the cell that writes it
    for problem in config.problems:
        for evaluator in config.evaluators:
            plan_file = _plan_filename(_problem_name(problem), evaluator)
            if plan_file in writers:
                raise ValueError(f"cells {writers[plan_file]} and {problem} x {evaluator} "
                                 f"would write one plan file {plan_file!r}")
            writers[plan_file] = f"{problem} x {evaluator}"
    cells = [(config.domain, problem, evaluator, config.strategy,
              config.max_generated, config.wall_time, config.max_copies)
             for problem in config.problems
             for evaluator in config.evaluators]
    plans_dir = os.path.join(config.out_dir, "plans")
    os.makedirs(plans_dir, exist_ok=True)

    _load.cache_clear()
    # the pool starts all its workers at once, so never more than the cells
    workers = min(config.workers or os.cpu_count() or 1, len(cells))
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_run_cell, cells))
        else:
            rows = [_run_cell(cell) for cell in cells]
    finally:
        _load.cache_clear()

    _score_rows(rows)
    aggregates = _aggregate(rows, config.evaluators)

    for row in rows:
        if row.solved:
            with open(os.path.join(plans_dir, _plan_filename(row.problem, row.evaluator)),
                      "w", encoding="utf-8") as fh:
                fh.write(row.plan_text)
    csv_path = os.path.join(config.out_dir, "report.csv")
    write_report_csv(rows, csv_path)
    log.info("suite done: %d cells, report at %s", len(rows), csv_path)
    return ScoreReport(rows, aggregates, csv_path)
