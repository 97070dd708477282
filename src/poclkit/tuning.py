"""Online single-step-error tracking and heuristic enhancement.

A ranking function that estimates remaining new actions commits an error at
each refinement; the running average of that error, observed from parent and
best-child ranks on the fly, rescales the estimate to ``h / (1 - avg)``. The
average is clamped from above so the denominator stays positive.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field


def step_error(h_parent: float, h_best_child: float, cost: float = 1.0) -> float:
    """(cost + h(best child)) - h(parent); inputs must be finite."""
    if not (math.isfinite(h_parent) and math.isfinite(h_best_child) and math.isfinite(cost)):
        raise ValueError("step_error requires finite inputs")
    return (cost + h_best_child) - h_parent


EPSILON_CAP = 0.9


@dataclass
class ErrorTracker:
    """Running average of observed step errors, clamped at ``EPSILON_CAP``."""
    error_sum: float = 0.0
    observations: int = 0

    @property
    def epsilon_avg(self) -> float:
        """Raw running average (0 with no observations)."""
        return self.error_sum / self.observations if self.observations else 0.0

    @property
    def epsilon(self) -> float:
        """The average actually used for enhancement: min(avg, cap)."""
        return min(self.epsilon_avg, EPSILON_CAP)

    def observe(self, error: float) -> None:
        self.error_sum += error
        self.observations += 1

    def enhance(self, h: float) -> float:
        """h / (1 - epsilon); +inf passes through; never negative for h >= 0."""
        if h == math.inf:
            return math.inf
        return h / (1.0 - self.epsilon)

    def geometric_enhance(self, h: float, terms: int) -> float:
        """Geometric-series form of the enhancement.

        With one or two terms this is the raw partial sum h * sum(epsilon^i).
        From three terms on, the three leading partial sums pin the series
        limit via Aitken's delta-squared step, which is algebraically exact
        for a geometric progression, so the value agrees with :meth:`enhance`
        to rounding error for any |epsilon| < 1.
        """
        if terms < 1:
            raise ValueError("terms must be >= 1")
        if h == math.inf:
            return math.inf
        eps = self.epsilon
        partials = []
        total = 0.0
        power = 1.0
        for _ in range(min(terms, 3)):
            total += power
            power *= eps
            partials.append(h * total)
        if terms < 3:
            return partials[-1]
        s0, s1, s2 = partials
        denom = s2 - 2.0 * s1 + s0
        if denom == 0.0:   # already converged (epsilon == 0 or h == 0)
            return s2
        return (s2 * s0 - s1 * s1) / denom


# ── Search traces and the telescoping identity ───────────────────────────────

@dataclass
class TraceRow:
    """One generated search node: rank bookkeeping for offline replay."""
    node_id: int
    parent_id: int          # -1 for the root
    h: float                # raw (unenhanced) rank at generation time
    action_count: int
    is_best_child: bool = False


@dataclass
class TelescopeReport:
    """Replay of one root-to-solution path."""
    h_root: float
    error_sum: float        # sum of per-edge step errors along the path
    new_steps: int          # unit-cost (action-adding) refinements on the path
    path: list[int] = field(default_factory=list)

    @property
    def residual(self) -> float:
        return (self.h_root + self.error_sum) - self.new_steps


def replay_telescoping(rows: list[TraceRow], solution_node_id: int) -> TelescopeReport:
    """Walk the pursued path from the solution back to the root and accumulate
    per-edge step errors from the recorded ranks."""
    by_id = {r.node_id: r for r in rows}
    path: list[int] = []
    node = by_id[solution_node_id]
    while True:
        path.append(node.node_id)
        if node.parent_id < 0:
            break
        node = by_id[node.parent_id]
    path.reverse()

    error_sum = 0.0
    new_steps = 0
    for parent_id, child_id in zip(path, path[1:]):
        parent, child = by_id[parent_id], by_id[child_id]
        cost = child.action_count - parent.action_count
        new_steps += cost
        error_sum += step_error(parent.h, child.h, float(cost))
    return TelescopeReport(by_id[path[0]].h, error_sum, new_steps, path)


TRACE_FIELDS = ("node_id", "parent_id", "h", "action_count", "is_best_child")


def write_trace(path: str, rows: list[TraceRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for r in rows:
            writer.writerow([r.node_id, r.parent_id, repr(r.h), r.action_count,
                             int(r.is_best_child)])


def read_trace(path: str) -> list[TraceRow]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [TraceRow(int(row["node_id"]), int(row["parent_id"]), float(row["h"]),
                         int(row["action_count"]), bool(int(row["is_best_child"])))
                for row in reader]
