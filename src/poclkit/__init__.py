"""Plan-space (POCL) planning toolkit: STRIPS grounding, partial-plan search,
feature heuristics, offline heuristic learning, and online step-error tuning."""

from .grounding import GroundAction, GroundTask, ground, load_task
from .heuristics import (FEATURE_NAMES, CostTable, CostTables, FeatureVector, additive_costs,
                         build_tables, eval_add, feature_vector)
from .learning import (Dataset, DatasetConfig, LinearModel, TrainingInstance,
                       correlation_select, fit_linear, generate_dataset, load_model,
                       save_model)
from .pddl import DomainAst, ProblemAst, parse_domain, parse_problem
from .plans import (CausalLink, OpenCondition, PartialPlan, Resolver, Threat, apply_resolver,
                    format_plan, is_solution, linearize, makespan, new_step_actions, null_plan,
                    resolvers, validate)
from .search import (FeatureEvaluator, ModelEvaluator, SearchLimits, SearchResult, expand, gbfs,
                     select_flaw)
from .tuning import (ErrorTracker, TraceRow, read_trace, replay_telescoping, step_error,
                     write_trace)

__version__ = "0.1.0"
