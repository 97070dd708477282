"""In-process A/B timing of the planner's searches in two checkouts.

    python3 tools/ab_search.py BASE_CHECKOUT CHANGED_CHECKOUT \
        --workload suite-plain --rounds 15

Each checkout's ``src/poclkit`` is loaded under its own package name
(``poclkit_a``, ``poclkit_b``) into this one process, and its problems are
read from its own ``tests/fixtures``. At start the tool checks that both sides
ground identical tasks: facts, actions (name, pre, add, delete), init and
goal. A round sets up the workload's tasks (parse, ground and cost tables)
once on each side, then runs its searches once on each side, each in
alternating order (A then B, then B then A), and times each side in CPU
seconds after a garbage collection; so the two sides share the host's drift.
The searches use the tasks set up at start. Every round checks that both
sides give identical (outcome, generated, visited, plan length, plan text)
for every search, the plan text being ``format_plan``'s for a solved search,
and for ``learn`` identical dataset draws, instances (features, target, the
seed plan's action count and the solution plan's text) and model weights.

Workloads, as in the benchmark of the same names but calling ``gbfs``
directly (no report, no plan files); their problems, evaluators, node budgets
and seeds are imported from this checkout's ``perfbench/workloads.py``:

- ``suite-plain``: the 15 bundled problems x h_gval, h_oc, h_add, h_add_w;
- ``suite-reuse``: the same problems x h_add_r, h_add_w_r;
- ``learn``: the seed-pool dataset on the 9 Gripper training problems from
  the base feature h_add, the correlation mask and the OLS fit, then h_add
  and the enhanced model on gripper-3. The model is saved to a temporary
  file, and each side builds its evaluator from the spec
  ``model:FILE:enhanced`` with its own ``bench.build_evaluator``.

Every search is mw-loc. The output is the min and median CPU seconds per
side and the ratio B/A of the medians and of each round, for the searches
and for the set-up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]    # as perfbench/run.py does

from perfbench.workloads import (LEARN_BASE, LEARN_DATASET_SEED,  # noqa: E402
                                 LEARN_SEEDS_PER_PROBLEM, LEARN_TEST_PROBLEM, NODE_BUDGET,
                                 SUITE_EVALUATORS, SUITE_PROBLEMS, TRAIN_PROBLEMS, WALL_LIMIT,
                                 WORKLOADS)
from poclkit.bench import base_feature  # noqa: E402

SUITE_FEATURES = {workload: tuple(map(base_feature, specs))
                  for workload, specs in SUITE_EVALUATORS.items()}


def load_package(checkout: str, alias: str):
    """``checkout``'s ``src/poclkit`` imported as the package ``alias``; the
    package imports its own modules relatively, so two copies coexist."""
    for name in [m for m in sys.modules if m == alias or m.startswith(alias + ".")]:
        del sys.modules[name]    # a package loaded earlier under this name
    pkg_dir = os.path.join(checkout, "src", "poclkit")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One checkout's package, tasks and cost tables for a workload."""

    def __init__(self, checkout: str, alias: str, workload: str):
        load_package(checkout, alias)
        self.bench = importlib.import_module(alias + ".bench")
        self.grounding = importlib.import_module(alias + ".grounding")
        self.heuristics = importlib.import_module(alias + ".heuristics")
        self.learning = importlib.import_module(alias + ".learning")
        self.plans = importlib.import_module(alias + ".plans")
        self.search = importlib.import_module(alias + ".search")
        self.workload = workload
        fixtures = os.path.join(checkout, "tests", "fixtures")
        if workload == "learn":
            problems = list(TRAIN_PROBLEMS) + [LEARN_TEST_PROBLEM]
        else:
            problems = [p for group in SUITE_PROBLEMS.values() for p in group]
        self.files = {name: (os.path.join(fixtures, name.split("-")[0] + ".pddl"),
                             os.path.join(fixtures, name + ".pddl")) for name in problems}
        self.tasks = self.set_up()

    def set_up(self) -> dict:
        """Each problem's grounded task and cost tables, read from its files."""
        tasks = {}
        for name, (domain, problem) in self.files.items():
            task = self.grounding.load_task(domain, problem)
            tasks[name] = (task, self.heuristics.build_tables(task))
        return tasks

    def grounded(self) -> list:
        """What both sides must ground alike."""
        return [(name, task.facts, [(a.name, a.pre, a.add, a.delete) for a in task.actions],
                 task.init, task.goal) for name, (task, _) in self.tasks.items()]

    def _search(self, name: str, evaluator) -> tuple:
        task, tables = self.tasks[name]
        limits = self.search.SearchLimits(NODE_BUDGET[self.workload], WALL_LIMIT)
        result = self.search.gbfs(task, evaluator, "mw-loc", limits, tables)
        text = self.plans.format_plan(result.plan) if result.solved else None
        return (name, result.outcome, result.generated, result.visited, result.plan_length, text)

    def run(self) -> list:
        """One pass of the workload; what both sides must agree on."""
        search = self.search
        if self.workload != "learn":
            return [self._search(name, search.FeatureEvaluator(feature, tables))
                    for feature in SUITE_FEATURES[self.workload]
                    for name, (_, tables) in self.tasks.items()]
        learning = self.learning
        config = learning.DatasetConfig(seeds_per_problem=LEARN_SEEDS_PER_PROBLEM,
                                        seed_max_generated=NODE_BUDGET["learn"],
                                        seed_wall_time=WALL_LIMIT, rng_seed=LEARN_DATASET_SEED)
        dataset = learning.generate_dataset([self.tasks[p][0] for p in TRAIN_PROBLEMS],
                                            LEARN_BASE, config)
        model = learning.fit_linear(dataset, learning.correlation_select(dataset))
        tables = self.tasks[LEARN_TEST_PROBLEM][1]
        out = [(d.problem, d.solved, d.pool_before, d.pool_after, d.generated)
               for d in dataset.draws]
        out += [(tuple(inst.features), inst.target, inst.seed_plan.action_count,
                 self.plans.format_plan(inst.solution_plan)) for inst in dataset.instances]
        out.append((model.mask, model.weights, model.intercept))
        out.append(self._search(LEARN_TEST_PROBLEM, search.FeatureEvaluator(LEARN_BASE, tables)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            learning.save_model(model, path)
            evaluator = self.bench.build_evaluator(f"model:{path}:enhanced", tables)
        out.append(self._search(LEARN_TEST_PROBLEM, evaluator))
        return out


def timed(work) -> tuple[float, object]:
    """CPU seconds of ``work()`` after a garbage collection, and its result."""
    gc.collect()
    start = time.process_time()
    out = work()
    return time.process_time() - start, out


def first_difference(a: list, b: list) -> str:
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    return f"A {pairs[0][0]} vs B {pairs[0][1]}" if pairs else "in length"


def ratios(a: list[float], b: list[float]) -> str:
    """B/A of the medians of two sides' times, and of each round."""
    per_round = sorted(y / x for x, y in zip(a, b))
    return (f"B/A of medians {statistics.median(b) / statistics.median(a):.3f}; "
            f"per round min {per_round[0]:.3f} median {statistics.median(per_round):.3f} "
            f"max {per_round[-1]:.3f}; B faster in {sum(r < 1 for r in per_round)}/{len(a)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout A (its src/poclkit and tests/fixtures)")
    parser.add_argument("changed", help="checkout B")
    parser.add_argument("--workload", choices=WORKLOADS, default="suite-plain")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    sides = {"A": Side(args.base, "poclkit_a", args.workload),
             "B": Side(args.changed, "poclkit_b", args.workload)}
    grounded_a, grounded_b = sides["A"].grounded(), sides["B"].grounded()
    if grounded_a != grounded_b:
        print(f"the sides ground different tasks: {first_difference(grounded_a, grounded_b)}",
              file=sys.stderr)
        return 1
    times: dict[str, list[float]] = {"A": [], "B": []}
    setup: dict[str, list[float]] = {"A": [], "B": []}
    for rnd in range(args.rounds):
        order = ("A", "B") if rnd % 2 == 0 else ("B", "A")
        for label in order:
            setup[label].append(timed(sides[label].set_up)[0])
        outputs = {}
        for label in order:
            seconds, outputs[label] = timed(sides[label].run)
            times[label].append(seconds)
        if outputs["A"] != outputs["B"]:
            print(f"round {rnd}: the sides differ: {first_difference(outputs['A'], outputs['B'])}",
                  file=sys.stderr)
            return 1
        print(f"round {rnd}: A {times['A'][-1]:.3f} s  B {times['B'][-1]:.3f} s  "
              f"B/A {times['B'][-1] / times['A'][-1]:.3f};  set-up A {setup['A'][-1]:.4f} s  "
              f"B {setup['B'][-1]:.4f} s  B/A {setup['B'][-1] / setup['A'][-1]:.3f}")

    print(f"workload {args.workload}, {args.rounds} rounds, CPU seconds; outputs identical; "
          "grounded tasks identical")
    for label, path in (("A", args.base), ("B", args.changed)):
        print(f"  {label} min {min(times[label]):.3f}  median "
              f"{statistics.median(times[label]):.3f}  set-up min {min(setup[label]):.4f}  "
              f"median {statistics.median(setup[label]):.4f}  ({path})")
    print(f"  search {ratios(times['A'], times['B'])}")
    print(f"  set-up {ratios(setup['A'], setup['B'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
