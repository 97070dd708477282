"""Memory at scale: the tracemalloc peak of four searches in this checkout.

    python3 tools/mem_peaks.py

Runs, in this checkout's ``src/poclkit`` on its ``tests/fixtures`` domains,
four mw-loc greedy best-first searches ranked by one base feature:

- blocks-5, h_add, 100,000 generated nodes;
- gripper-4, h_oc, 100,000 generated nodes;
- gripper-train-7, h_add, 8,000 generated nodes (the largest draw of the
  benchmark's learn workload);
- blocks-15, h_add, 20,000 generated nodes: a problem made here (15 blocks
  on the table, goal one tower), with 271 ground facts against at most 41
  in the bundled problems. A built plan's ``producers`` holds one entry per
  fact, so this is the search where it weighs most.

Parsing, grounding and the cost tables are done before tracing starts, so
the peak is what the search itself holds at most: mostly the open list. For
each search it prints the ground facts, the outcome, the generated nodes,
the peak in MB and the peak in bytes per generated node. The searches are deterministic; the
peak still moves by some tens of KB between runs with the interpreter's own
caches. Timings are not reported, since tracing slows every allocation.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from poclkit.grounding import ground, load_task  # noqa: E402
from poclkit.heuristics import build_tables  # noqa: E402
from poclkit.pddl import load_domain, parse_problem  # noqa: E402
from poclkit.search import FeatureEvaluator, SearchLimits, gbfs  # noqa: E402

FIXTURES = os.path.join(ROOT, "tests", "fixtures")
# (problem, feature, generated-node budget)
SEARCHES = (("blocks-5", "h_add", 100_000),
            ("gripper-4", "h_oc", 100_000),
            ("gripper-train-7", "h_add", 8_000),
            ("blocks-15", "h_add", 20_000))
WALL_LIMIT = 900.0    # seconds; far above the slowest traced search


def tower_problem(n: int) -> str:
    """A blocks problem: ``n`` blocks on the table, goal one tower of them."""
    blocks = [f"b{i}" for i in range(n)]
    init = " ".join(f"(ontable {b}) (clear {b})" for b in blocks)
    goal = " ".join(f"(on {a} {b})" for a, b in zip(blocks, blocks[1:]))
    return (f"(define (problem blocks-{n}) (:domain blocks) (:objects {' '.join(blocks)})\n"
            f"  (:init {init} (handempty))\n  (:goal (and {goal})))\n")


def load(problem: str):
    """The ground task of a bundled problem, or of blocks-15 made here."""
    domain = os.path.join(FIXTURES, problem.split("-")[0] + ".pddl")
    if problem == "blocks-15":
        return ground(load_domain(domain), parse_problem(tower_problem(15), problem))
    return load_task(domain, os.path.join(FIXTURES, problem + ".pddl"))


def measure(max_generated: Optional[int] = None) -> list[tuple[str, str, int, str, int, int]]:
    """(problem, feature, facts, outcome, generated, peak bytes) of each
    search in ``SEARCHES``, each at its own budget or, if given, at
    ``max_generated``."""
    rows = []
    for problem, feature, budget in SEARCHES:
        task = load(problem)
        tables = build_tables(task)
        limits = SearchLimits(max_generated or budget, WALL_LIMIT)
        tracemalloc.start()
        try:
            result = gbfs(task, FeatureEvaluator(feature, tables), "mw-loc", limits, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows.append((problem, feature, len(task.facts), result.outcome, result.generated, peak))
    return rows


def main() -> int:
    print(f"{'search':<26} {'facts':>5} {'outcome':<10} {'generated':>9} {'peak MB':>8} "
          f"{'B/node':>7}")
    for problem, feature, facts, outcome, generated, peak in measure():
        print(f"{problem + ' ' + feature:<26} {facts:>5} {outcome:<10} {generated:>9} "
              f"{peak / 1e6:>8.2f} {peak / generated:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
