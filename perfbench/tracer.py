"""Patch-and-restore span recorder for the traced benchmark run.

Each traced site is a name that a caller looks up at call time: a module
global (``poclkit.search.apply_resolver`` as bound in ``search``), a class
attribute (``ErrorTracker.observe``), or a module object used through its
attributes (``poclkit.search.heapq``). The recorder swaps each site for a
wrapper while a ``with`` block is active and puts the original back on exit,
so the library source is never edited.

Spans nest: a wrapper's self time is its duration minus the time of the
wrapped calls made inside it. Millions of spans occur in one search, so they
are folded into one record per (parent span, span) edge as they close: calls,
total seconds and self seconds. That call tree is what ``dump`` writes out.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict

ROOT = "<root>"


def _on_apply(tracer, result, args):
    if result is not None:
        tracer.counts["plans.apply_kept"] += 1


def _on_resolvers(tracer, result, args):
    tracer.counts["plans.resolvers_out"] += len(result)


def _on_expand(tracer, result, args):
    if not result:
        tracer.counts["search.dead_ends"] += 1


def _on_push(tracer, result, args):
    tracer.peak("search.queue_peak", len(args[0]))


def _on_observe(tracer, result, args):
    tracer.gauges["tuning.epsilon"] = args[0].epsilon


def _on_dataset(tracer, result, args):
    for draw in result.draws:
        tracer.peak("learning.pool_peak", draw.pool_after)


# (module, attribute path, span name, hook). The attribute path is the name
# the caller binds: bench and learning each import gbfs and build_tables into
# their own namespace, so each binding is its own site.
SITES = (
    ("poclkit.pddl", "load_domain", "pddl.parse", None),
    ("poclkit.pddl", "load_problem", "pddl.parse", None),
    ("poclkit.grounding", "ground", "grounding.ground", None),
    ("poclkit.bench", "load_task", "grounding.load", None),
    ("poclkit.bench", "build_tables", "heuristics.tables", None),
    ("poclkit.learning", "build_tables", "heuristics.tables", None),
    ("poclkit.search", "build_tables", "heuristics.tables", None),
    ("poclkit.search", "feature_value", "heuristics.eval", None),
    ("poclkit.search", "feature_vector", "heuristics.eval", None),
    ("poclkit.learning", "feature_vector", "heuristics.eval", None),
    ("poclkit.search", "apply_resolver", "plans.apply", _on_apply),
    ("poclkit.search", "resolvers", "plans.resolvers", _on_resolvers),
    ("poclkit.search", "makespan", "plans.finish", None),
    ("poclkit.bench", "format_plan", "plans.finish", None),
    ("poclkit.search", "select_flaw", "search.flaw", None),
    ("poclkit.search", "expand", "search.expand", _on_expand),
    ("poclkit.search", "heapq.heappush", "search.queue", _on_push),
    ("poclkit.search", "heapq.heappop", "search.queue", None),
    ("poclkit.bench", "gbfs", "search.gbfs", None),
    ("poclkit.learning", "gbfs", "search.gbfs", None),
    ("poclkit.search", "step_error", "tuning.step_error", None),
    ("poclkit.tuning", "ErrorTracker.observe", "tuning.observe", _on_observe),
    ("poclkit.tuning", "ErrorTracker.enhance", "tuning.enhance", None),
    ("poclkit.learning", "generate_dataset", "learning.dataset", _on_dataset),
    ("poclkit.learning", "correlation_select", "learning.fit", None),
    ("poclkit.learning", "fit_linear", "learning.fit", None),
    ("poclkit.bench", "run_suite", "bench.run_suite", None),
    ("poclkit.bench", "_run_cell", "bench.cell", None),
    ("poclkit.bench", "build_evaluator", "bench.evaluator", None),
)


def resolve(module: str, path: str):
    """The (owner, attribute) pair a site names; ``a.b`` walks one level."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patches:
    """Attribute swaps undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records self time and counts at every site in ``SITES`` while active."""

    def __init__(self):
        self._records: dict[str, dict[str, list]] = {}   # span -> parent -> [calls, total_s, self_s]
        self.counts: dict[str, float] = defaultdict(int)
        self.gauges: dict[str, float] = {}
        self._stack: list[list] = [[ROOT, 0.0]]
        self._patches = Patches()

    def peak(self, key: str, value: float) -> None:
        if value > self.gauges.get(key, 0):
            self.gauges[key] = value

    def _wrap(self, fn, name: str, hook):
        stack, clock = self._stack, time.perf_counter
        by_parent = self._records.setdefault(name, {})   # parent span -> record

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = by_parent.get(parent[0])
                if rec is None:
                    rec = by_parent[parent[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if hook is not None:
                hook(self, result, args)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for module, path, name, hook in SITES:
                owner, attr = resolve(module, path)
                if isinstance(owner, types.ModuleType) and "." in path:
                    # A module used through its attributes (search's heapq):
                    # the caller's binding becomes a copy that later sites of
                    # the same module then resolve to.
                    caller, binding = resolve(module, path.rsplit(".", 1)[0])
                    owner = types.SimpleNamespace(**vars(owner))
                    self._patches.set(caller, binding, owner)
                self._patches.set(owner, attr, self._wrap(getattr(owner, attr), name, hook))
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # ── Aggregates ───────────────────────────────────────────────────────────

    def calls(self, name: str) -> int:
        return sum(rec[0] for rec in self._records.get(name, {}).values())

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(rec[1] for par, rec in self._records.get(name, {}).items()
                   if parent in (None, par))

    def self_time(self, name: str) -> float:
        return sum(rec[2] for rec in self._records.get(name, {}).values())

    def dump(self, path: str) -> None:
        doc = {
            "edges": [{"parent": parent, "span": span, "calls": rec[0], "total_s": rec[1],
                       "self_s": rec[2]}
                      for span, by_parent in sorted(self._records.items())
                      for parent, rec in sorted(by_parent.items())],
            "counts": dict(self.counts),
            "gauges": self.gauges,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
