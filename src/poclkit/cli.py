"""Command-line front end: solve one problem, build datasets and models,
or run a benchmark suite.

Exit codes: 0 solved/ok, 1 unsolved or limit hit, 2 usage error, 3 input
error. ``POCL_LOG={off|info|trace}`` (any case) controls diagnostics on
stderr; any other value is an input error, reported before the command runs.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from itertools import groupby

from . import bench, learning
from .grounding import load_task
from .heuristics import FEATURE_NAMES, build_tables
from .pddl import PddlError
from .plans import format_plan
from .search import STRATEGIES, SearchLimits, gbfs

EXIT_OK = 0
EXIT_UNSOLVED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3


# POCL_LOG's values, each with the level it sets; off installs no output
LOG_LEVELS = {"off": None, "info": logging.INFO, "trace": logging.DEBUG}


def _configure_logging(level: int | None) -> None:
    """Install the handler for ``level`` in place of the one an earlier call
    installed, so each ``main`` call prints a record once."""
    logger = logging.getLogger("poclkit")
    for old in [h for h in logger.handlers if h.get_name() == "pocl"]:
        logger.removeHandler(old)
    if level is None:
        handler = logging.NullHandler()
    else:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s %(levelname)s %(message)s"))
        logger.setLevel(level)
    handler.set_name("pocl")
    logger.addHandler(handler)


def _positive(parse):
    """An argparse type: ``parse`` the text and require a value above zero,
    so a limit that no search could meet is a usage error."""
    what = "integer" if parse is int else "number"

    def convert(text: str):
        try:
            value = parse(text)
            ok = value > 0
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected a positive {what}, got {text!r}")
        return value
    return convert


def _unit_interval(text: str) -> float:
    """An argparse type: a number in [0, 1] (NaN is not), as a correlation
    threshold must be."""
    try:
        value = float(text)
        ok = 0.0 <= value <= 1.0
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pocl",
                                     description="Plan-space planner with learned heuristics")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem")
    solve.add_argument("domain")
    solve.add_argument("problem")
    solve.add_argument("--eval", dest="evaluator", default="add",
                       help="|".join(map(bench.shorthand, FEATURE_NAMES))
                       + "|model:FILE[:enhanced]")
    solve.add_argument("--flaws", choices=STRATEGIES, default="mw-loc")
    solve.add_argument("--max-nodes", type=_positive(int), default=SearchLimits.max_generated)
    solve.add_argument("--timeout", type=_positive(float), default=SearchLimits.wall_time)
    solve.add_argument("--plan-out", default=None)

    learn = sub.add_parser("learn", help="dataset preparation and model fitting")
    learn_sub = learn.add_subparsers(dest="learn_command", required=True)

    dataset = learn_sub.add_parser("dataset", help="generate a training dataset CSV")
    dataset.add_argument("domain")
    dataset.add_argument("problems", nargs="+")
    dataset.add_argument("--base", choices=[bench.shorthand(f) for f in learning.BASE_FEATURES],
                         default="add")
    dataset.add_argument("--seeds-per-problem", type=_positive(int),
                         default=learning.DatasetConfig.seeds_per_problem)
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--out", required=True)

    fit = learn_sub.add_parser("fit", help="fit a linear model from a dataset CSV")
    fit.add_argument("dataset")
    fit.add_argument("--out", required=True)
    fit.add_argument("--corr-low", type=_unit_interval, default=0.1)
    fit.add_argument("--corr-high", type=_unit_interval, default=0.95)

    bench_cmd = sub.add_parser("bench", help="run a suite config (key=value lines)")
    bench_cmd.add_argument("config")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    task = load_task(args.domain, args.problem)
    tables = build_tables(task)
    evaluator = bench.build_evaluator(args.evaluator, tables)
    result = gbfs(task, evaluator, args.flaws,
                  SearchLimits(args.max_nodes, args.timeout), tables)

    if result.solved:
        text = format_plan(result.plan)
        sys.stdout.write(text)
        if args.plan_out:
            with open(args.plan_out, "w", encoding="utf-8") as fh:
                fh.write(text)
    sys.stdout.write(
        f";; outcome={result.outcome} length={result.plan_length} "
        f"makespan={result.makespan} visited={result.visited} "
        f"generated={result.generated} time_s={result.elapsed:.3f}\n")
    return EXIT_OK if result.solved else EXIT_UNSOLVED


def _cmd_learn_dataset(args: argparse.Namespace) -> int:
    tasks = [load_task(args.domain, p) for p in args.problems]
    config = learning.DatasetConfig(seeds_per_problem=args.seeds_per_problem,
                                    rng_seed=args.seed)
    base = bench.base_feature(args.base)
    try:
        dataset = learning.generate_dataset(tasks, base, config)
    except learning.EmptyDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSOLVED
    learning.save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.instances)} instances to {args.out}")
    draws = dataset.draws
    failed_nodes = sum(d.generated for d in draws if not d.solved)
    print(f"draws: {sum(d.solved for d in draws)}/{len(draws)} solved, "
          f"{failed_nodes / sum(d.generated for d in draws):.1%} of draw nodes in failed draws")
    for problem, group in groupby(draws, key=lambda d: d.problem):
        solved = [d.solved for d in group]
        print(f"  {problem}: {sum(solved)}/{len(solved)} draws solved")
    return EXIT_OK


def _cmd_learn_fit(args: argparse.Namespace) -> int:
    dataset = learning.load_dataset(args.dataset)
    mask = learning.correlation_select(dataset, args.corr_low, args.corr_high)
    model = learning.fit_linear(dataset, mask)
    learning.save_model(model, args.out)
    names = [learning.FEATURE_NAMES[i] for i in model.mask]
    print(f"wrote {args.out}: features={names} weights={list(model.weights)} "
          f"intercept={model.intercept:.6g} r2={model.metadata['r2']:.4f}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as fh:
        text = fh.read()
    config = bench.parse_suite_config(text, base_dir=os.path.dirname(os.path.abspath(args.config)))
    report = bench.run_suite(config)
    for row in report.rows:
        if row.error and row.error not in ("limit-hit", "exhausted"):
            print(f"error: {row.problem} x {row.evaluator}: {row.error}", file=sys.stderr)
    print(f"{'evaluator':<28} {'coverage':>8} {'quality':>9} {'time':>9} "
          f"{'nodes':>9} {'makespan':>9}")
    for evaluator in config.evaluators:
        a = report.aggregates[evaluator]
        print(f"{evaluator:<28} {int(a['coverage']):>8} {a['quality']:>9.2f} "
              f"{a['time']:>9.2f} {a['nodes']:>9.2f} {a['makespan']:>9.2f}")
    print(f"report: {report.csv_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    setting = os.environ.get("POCL_LOG", "off")
    if setting.lower() not in LOG_LEVELS:
        print(f"error: POCL_LOG must be off, info or trace, got {setting!r}", file=sys.stderr)
        return EXIT_INPUT
    _configure_logging(LOG_LEVELS[setting.lower()])
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "learn":
            if args.learn_command == "dataset":
                return _cmd_learn_dataset(args)
            return _cmd_learn_fit(args)
        return _cmd_bench(args)
    except (PddlError, learning.MalformedModelError, learning.DatasetError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
