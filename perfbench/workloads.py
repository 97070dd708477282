"""Workloads of the poclkit benchmark: inputs, timed unit, checks and metrics.

Every workload runs single-threaded in one fresh process through public
library calls (``bench.run_suite`` at ``workers=1``), so the numbers measure
the planner, not the process pool or the scheduler of a small box. Every
search stops on the workload's fixed node budget; wall-time limits sit far
above the slowest search, and a search that stops on wall time anyway counts
as a failed operation because its counts would depend on machine speed.

A run repeats one *unit* of work, always the same work, until the requested
seconds have passed; times are the median over the units. ``--seed`` only
sets the order in which a unit hands its problems and evaluators to
run_suite, so every run measures the same work and the golden fingerprint
holds at every seed. Before each unit the run sets up (parses, grounds and
builds the cost tables of every task) a few times, outside the unit's timing;
``setup_s`` is the median of all those set-ups, so it samples the machine
over the whole run rather than over milliseconds.

Outputs are checked: plans re-simulated from the PDDL, the first unit's
fingerprint (outcome, plan text and node counts per search) compared with the
golden one, and every later unit compared with the first.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from poclkit import bench, learning
from poclkit.grounding import load_task
from poclkit.heuristics import FEATURE_NAMES, build_tables
from poclkit.pddl import load_domain, load_problem
from poclkit.plans import format_plan

from .plancheck import PlanCheckError, Simulator
from .tracer import Patches, Tracer, resolve

SUITE_PROBLEMS = {
    "gripper": ("gripper-1", "gripper-2", "gripper-3", "gripper-4"),
    "logistics": ("logistics-2a", "logistics-2b", "logistics-2c", "logistics-3a",
                  "logistics-3b"),
    "blocks": ("blocks-2", "blocks-3", "blocks-4", "blocks-5", "blocks-rev-2",
               "blocks-rev-3"),
}
SUITE_EVALUATORS = {
    "suite-plain": ("gval", "oc", "add", "add_w"),
    "suite-reuse": ("add_r", "add_w_r"),
}
TRAIN_PROBLEMS = ("gripper-1", "gripper-2") + tuple(f"gripper-train-{i}" for i in range(1, 8))
LEARN_TEST_PROBLEM = "gripper-3"
LEARN_BASE = "h_add"
LEARN_EVALUATORS = ("add", "model:{path}:enhanced")
WORKLOADS = tuple(SUITE_EVALUATORS) + ("learn",)
OK_OUTCOMES = ("", "limit-hit", "exhausted")   # CellResult.error of a search that ran

# Node budget of every search. The suites' budget keeps a suite-plain unit
# near 2.5 s, so a 30 s run holds ten or more even on a slowed host; learn's
# is the criterion-8 draw budget, under which h_add still solves the test
# problem.
NODE_BUDGET = {"suite-plain": 2000, "suite-reuse": 2000, "learn": 8000}
LEARN_SEEDS_PER_PROBLEM = 2      # dataset draws per training problem
LEARN_DATASET_SEED = 0           # the dataset rng seed of criterion 8
SETUP_REPS = 5                   # set-ups before each unit
WALL_LIMIT = 60.0                # per search; the slowest takes well under 1 s


@dataclass
class Unit:
    """One repetition of a workload's timed work and what it produced."""
    wall: float
    searches: list[tuple[str, str, int, int]]    # (site, outcome, visited, generated)
    rows: list[bench.CellResult]
    fingerprint: dict
    plans: list[tuple[str, str, Optional[int]]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    operations: int = 0              # beyond the cells and dataset draws


class SearchLog:
    """Outcome and node counts of every search that bench or learning starts.

    It wraps only the two search entry points (a few calls per cell or draw),
    so it stays on in untraced units: learning keeps no per-draw node counts
    of its own, and they are needed for nodes per second, wall-stop checks
    and the traced run's search and draw counts.
    """

    SITES = (("poclkit.bench", "gbfs"), ("poclkit.learning", "gbfs"))

    def __init__(self):
        self.records: list[tuple[str, str, int, int]] = []
        self._patches = Patches()

    def __enter__(self) -> "SearchLog":
        for module, attr in self.SITES:
            owner, name = resolve(module, attr)
            self._patches.set(owner, name, self._wrap(getattr(owner, name), module))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap(self, fn, site: str):
        records = self.records

        def logged(*args, **kwargs):
            result = fn(*args, **kwargs)
            records.append((site, result.outcome, result.visited, result.generated))
            return result

        return logged


def fixture(root: str, name: str) -> str:
    return os.path.join(root, "tests", "fixtures", name + ".pddl")


def domain_of(problem: str) -> str:
    return problem.split("-")[0]


def _cell_entry(row: bench.CellResult) -> dict:
    return {"outcome": "solved" if row.solved else row.error, "visited": row.visited,
            "generated": row.generated, "makespan": row.makespan, "plan": row.plan_text}


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Workload:
    """Set-up, checks and scores shared by the workloads; ``run`` times them."""

    def __init__(self, name: str, root: str, seed: int, out_dir: str,
                 node_budget: Optional[int] = None):
        self.root = root
        self.seed = seed
        self.node_budget = NODE_BUDGET[name] if node_budget is None else node_budget
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.files = {p: (fixture(root, domain_of(p)), fixture(root, p))
                      for p in self.task_problems()}
        self.simulators = {}     # by file name and by PDDL problem name
        for problem_name, (domain, problem) in self.files.items():
            problem_ast = load_problem(problem)
            self.simulators[problem_name] = self.simulators[problem_ast.name] = \
                Simulator(load_domain(domain), problem_ast)

    def task_problems(self) -> list[str]:
        raise NotImplementedError

    def run_unit(self) -> Unit:
        raise NotImplementedError

    def suite(self, domain: str, problems: list[str], evaluators: list[str],
              out_dir: str) -> list[bench.CellResult]:
        config = bench.SuiteConfig(
            domain=fixture(self.root, domain),
            problems=[fixture(self.root, p) for p in problems],
            evaluators=evaluators, strategy="mw-loc", max_generated=self.node_budget,
            wall_time=WALL_LIMIT, out_dir=out_dir, workers=1)
        return bench.run_suite(config).rows

    # ── set-up ───────────────────────────────────────────────────────────────

    def setup(self) -> list[float]:
        """Parse, ground and tabulate every task ``SETUP_REPS`` times; the
        seconds of each repetition. The tasks of the last one are kept."""
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            self.tasks = {name: load_task(*files) for name, files in self.files.items()}
            for task in self.tasks.values():
                build_tables(task)
            times.append(time.perf_counter() - start)
        self.ground_actions = sum(len(t.actions) for t in self.tasks.values())
        return times

    # ── checks ───────────────────────────────────────────────────────────────

    def check_searches(self, unit: Unit) -> None:
        for site, outcome, _, generated in unit.searches:
            if outcome == "limit-hit" and generated < self.node_budget:
                unit.errors.append(f"{site}: wall-time stop at {generated} nodes")
        for row in unit.rows:
            if row.error not in OK_OUTCOMES:
                unit.errors.append(f"cell {row.problem}/{row.evaluator}: {row.error}")

    def check_plans(self, unit: Unit) -> tuple[int, list[str]]:
        errors = []
        for problem, text, steps in unit.plans:
            try:
                n = self.simulators[problem].check(text)
                if steps is not None and n != steps:
                    raise PlanCheckError(f"{n} steps, expected {steps}")
            except PlanCheckError as exc:
                errors.append(f"plan {problem}: {exc}")
        return len(unit.plans), errors

    # ── metrics ──────────────────────────────────────────────────────────────

    def scores(self, unit: Unit) -> dict[str, float]:
        rows = unit.rows
        return {
            "coverage": sum(r.solved for r in rows) / len(rows) if rows else 0.0,
            "quality_score": sum(r.quality for r in rows),
            "nodes_score": sum(r.nodes_score for r in rows),
            "makespan_score": sum(r.makespan_score for r in rows),
        }


class SuiteWorkload(Workload):
    """The bundled problems under a fixed set of evaluators, one run_suite per domain.

    The seed only permutes the order of domains, problems and evaluators given
    to run_suite; the report is order-independent, so the same fingerprint
    holds for every seed.
    """

    def __init__(self, name: str, *args):
        super().__init__(name, *args)
        rng = random.Random(self.seed)
        self.order = []
        for domain in rng.sample(sorted(SUITE_PROBLEMS), len(SUITE_PROBLEMS)):
            problems = list(SUITE_PROBLEMS[domain])
            evaluators = list(SUITE_EVALUATORS[name])
            rng.shuffle(problems)
            rng.shuffle(evaluators)
            self.order.append((domain, problems, evaluators))

    def task_problems(self) -> list[str]:
        return [p for problems in SUITE_PROBLEMS.values() for p in problems]

    def run_unit(self) -> Unit:
        rows: list[bench.CellResult] = []
        start = time.perf_counter()
        for domain, problems, evaluators in self.order:
            rows.extend(self.suite(domain, problems, evaluators,
                                   os.path.join(self.out_dir, domain)))
        wall = time.perf_counter() - start
        fingerprint = {f"{r.problem}/{r.evaluator}": _cell_entry(r) for r in rows}
        plans = [(r.problem, r.plan_text, r.plan_length) for r in rows if r.solved]
        return Unit(wall, [], rows, fingerprint, plans)


class LearnWorkload(Workload):
    """Dataset generation, feature selection and fit, then the learned model
    against its base feature on a held-out problem.

    The dataset is always drawn with rng seed ``LEARN_DATASET_SEED``: between
    dataset seeds the unit time varies by up to a half and the peak memory by
    a fifth (one draw with long plans sets the peak). The seed only orders the
    two evaluators of the test suite.

    Coverage and the IPC scores count both test cells. At this budget the
    model search stops on the node limit, so the model cell alone would give
    a coverage of 0; the ``add`` cell is the baseline the scores compare with.
    """

    def __init__(self, name: str, *args):
        super().__init__(name, *args)
        self.evaluators = random.Random(self.seed).sample(LEARN_EVALUATORS,
                                                          len(LEARN_EVALUATORS))

    def task_problems(self) -> list[str]:
        return list(TRAIN_PROBLEMS) + [LEARN_TEST_PROBLEM]

    def run_unit(self) -> Unit:
        config = learning.DatasetConfig(seeds_per_problem=LEARN_SEEDS_PER_PROBLEM,
                                        seed_max_generated=self.node_budget,
                                        seed_wall_time=WALL_LIMIT,
                                        rng_seed=LEARN_DATASET_SEED)
        train = [self.tasks[p] for p in TRAIN_PROBLEMS]
        model_path = os.path.join(self.out_dir, "model.json")
        errors: list[str] = []
        rows: list[bench.CellResult] = []
        dataset = model = None
        start = time.perf_counter()
        try:
            dataset = learning.generate_dataset(train, LEARN_BASE, config)
            model = learning.fit_linear(dataset, learning.correlation_select(dataset))
        except learning.DatasetError as exc:
            errors.append(f"dataset: {exc}")
        if model is not None:
            learning.save_model(model, model_path)
            rows = self.suite(domain_of(LEARN_TEST_PROBLEM), [LEARN_TEST_PROBLEM],
                              [e.format(path=model_path) for e in self.evaluators],
                              os.path.join(self.out_dir, "test"))
        wall = time.perf_counter() - start

        fingerprint: dict = {}
        plans: list[tuple[str, str, Optional[int]]] = []
        if model is not None:
            fingerprint["dataset"] = {
                "instances": len(dataset.instances),
                "mask": [FEATURE_NAMES[i] for i in model.mask],
                "weights": [f"{w:.9g}" for w in model.weights],
                "intercept": f"{model.intercept:.9g}",
            }
            solved_draws = [d for d in dataset.draws if d.solved]
            for draw, inst in zip(solved_draws, dataset.instances):
                plans.append((draw.problem, format_plan(inst.solution_plan),
                              inst.seed_plan.action_count + inst.target))
        for row, spec in zip(rows, self.evaluators):    # run_suite keeps evaluator order
            fingerprint[f"{row.problem}/{spec.replace(':{path}', '')}"] = _cell_entry(row)
            if row.solved:
                plans.append((row.problem, row.plan_text, row.plan_length))
        return Unit(wall, [], rows, fingerprint, plans, errors, operations=1)   # the fit


def make_workload(name: str, root: str, seed: int, out_dir: str,
                  node_budget: Optional[int] = None) -> Workload:
    if name in SUITE_EVALUATORS:
        return SuiteWorkload(name, root, seed, out_dir, node_budget)
    if name == "learn":
        return LearnWorkload(name, root, seed, out_dir, node_budget)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def layer_metrics(tracer: Tracer, unit: Unit, ground_actions: int) -> dict[str, float]:
    """Per-layer numbers of one traced unit."""
    c, g = tracer.counts, tracer.gauges

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = unit.wall
    draws = [(outcome, generated) for site, outcome, _, generated in unit.searches
             if site == "poclkit.learning"]
    draw_nodes = sum(n for _, n in draws)
    eval_s = tracer.self_time("heuristics.eval")
    eval_calls = tracer.calls("heuristics.eval")
    cell_setup = sum(tracer.total(span, parent="bench.cell")
                     for span in ("grounding.load", "heuristics.tables", "bench.evaluator"))
    tuning_s = sum(tracer.total(span) for span in
                   ("tuning.enhance", "tuning.observe", "tuning.step_error"))
    return {
        "pddl.parse_s": tracer.self_time("pddl.parse"),
        "grounding.ground_s": tracer.self_time("grounding.ground"),
        "grounding.actions": ground_actions,
        "heuristics.tables_s": tracer.self_time("heuristics.tables"),
        "heuristics.eval_s": eval_s,
        "heuristics.eval_calls": eval_calls,
        "heuristics.eval_us": 1e6 * ratio(eval_s, eval_calls),
        "heuristics.eval_share": ratio(eval_s, wall),
        "plans.apply_s": tracer.self_time("plans.apply"),
        "plans.apply_calls": tracer.calls("plans.apply"),
        "plans.apply_kept_ratio": ratio(c["plans.apply_kept"], tracer.calls("plans.apply")),
        "plans.resolvers_s": tracer.self_time("plans.resolvers"),
        "plans.resolvers_per_flaw": ratio(c["plans.resolvers_out"],
                                          tracer.calls("plans.resolvers")),
        "plans.finish_s": tracer.self_time("plans.finish"),
        "search.flaw_s": tracer.self_time("search.flaw"),
        "search.expand_self_s": tracer.self_time("search.expand"),
        "search.dead_end_ratio": ratio(c["search.dead_ends"], tracer.calls("search.expand")),
        "search.queue_s": tracer.self_time("search.queue"),
        "search.queue_peak": g.get("search.queue_peak", 0),
        "search.loop_self_s": tracer.self_time("search.gbfs"),
        "search.visited": sum(visited for _, _, visited, _ in unit.searches),
        "search.generated": sum(generated for *_, generated in unit.searches),
        "tuning.enhance_share": ratio(tuning_s, wall),
        "tuning.observations": tracer.calls("tuning.observe"),
        "tuning.epsilon_final": g.get("tuning.epsilon", 0.0),
        "learning.dataset_share": ratio(tracer.total("learning.dataset"), wall),
        "learning.draw_solve_ratio": ratio(sum(o == "solved" for o, _ in draws), len(draws)),
        "learning.failed_draw_node_share": ratio(
            sum(n for o, n in draws if o != "solved"), draw_nodes),
        "learning.pool_peak": g.get("learning.pool_peak", 0),
        "learning.fit_share": ratio(tracer.total("learning.fit"), wall),
        "bench.cell_setup_s": cell_setup,
        "bench.report_s": tracer.self_time("bench.run_suite"),
    }


def _compare(fingerprint: dict, reference: dict, label: str) -> tuple[int, list[str]]:
    keys = sorted(set(fingerprint) | set(reference))
    return len(keys), [f"{label}: {k} differs" for k in keys
                       if fingerprint.get(k) != reference.get(k)]


def _logged_unit(workload: Workload, log: SearchLog, tracer: Optional[Tracer] = None) -> Unit:
    mark = len(log.records)
    with tracer or contextlib.nullcontext():
        unit = workload.run_unit()
    unit.searches = log.records[mark:]
    unit.fingerprint["node_budget"] = workload.node_budget   # the golden one holds only at it
    return unit


def run(name: str, root: str, seed: int, seconds: float, trace: bool, out_dir: str,
        golden: Optional[dict] = None, node_budget: Optional[int] = None) -> dict:
    """One benchmark run. Returns the result object (``correct``, ``attempted``,
    ``failed``, ``metrics`` as plain values) plus ``fingerprint``, the first
    unit's, and ``units``, ``traced_units`` and ``errors`` for the report.
    ``node_budget`` replaces the workload's own budget (tests shrink it)."""
    workload = make_workload(name, root, seed, out_dir, node_budget)
    setup_times = workload.setup()
    rss_setup = _rss_kb()

    plain: list[Unit] = []
    traced: list[tuple[Unit, Tracer]] = []
    with SearchLog() as log:
        start = time.perf_counter()
        while True:
            if plain:
                setup_times += workload.setup()
            plain.append(_logged_unit(workload, log))
            if trace:
                tracer = Tracer()
                traced.append((_logged_unit(workload, log, tracer), tracer))
            if time.perf_counter() - start >= seconds:
                break
    rss_peak = _rss_kb()

    first = plain[0]
    attempted = 0
    errors: list[str] = []
    for unit in plain + [u for u, _ in traced]:
        workload.check_searches(unit)
        draws = sum(site == "poclkit.learning" for site, *_ in unit.searches)
        attempted += len(unit.rows) + draws + unit.operations
        errors += unit.errors
        if unit is first:
            n, errs = workload.check_plans(unit)
        else:
            n, errs = _compare(unit.fingerprint, first.fingerprint, "repeated unit")
            n += 1
            if unit.searches != first.searches:
                errs.append("repeated unit: search node counts differ")
        attempted += n
        errors += errs
    if golden is not None:
        n, errs = _compare(first.fingerprint, golden, "golden")
        attempted += n
        errors += errs

    if trace:
        per_unit = [layer_metrics(tr, u, workload.ground_actions) for u, tr in traced]
        metrics = {k: statistics.median(m[k] for m in per_unit) for k in per_unit[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(u.wall for u, _ in traced)
                                           / statistics.median(u.wall for u in plain))
        traced[0][1].dump(os.path.join(out_dir, "trace.json"))
    else:
        generated = [g for *_, g in first.searches]
        wall_s = statistics.median(u.wall for u in plain)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "us_per_node": 1e6 * wall_s / sum(generated),
            "peak_rss_mb": rss_peak / 1024.0,
            "bytes_per_node": 1024.0 * (rss_peak - rss_setup) / max(generated),
            **workload.scores(first),
            "success_rate": 1.0 - len(errors) / attempted,
        }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
        "fingerprint": first.fingerprint,
        "units": [u.wall for u in plain],
        "traced_units": [u.wall for u, _ in traced],
        "errors": errors,
    }
