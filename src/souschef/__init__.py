"""Grounded recipe understanding.

Natural-language cooking instructions are parsed with a construction
grammar into plan networks of kitchen primitives, completed against a
qualitative kitchen simulator plus discourse memory, and scored with a
four-metric evaluation suite.
"""

from .errors import (
    DataflowDeadlock, DuplicateNameError, GrammarSyntaxError, InputError,
    MergeFailure, SimulationError, SizeExceededError, SousChefError,
    StructuralError, UnderstandingFailure, UnknownConceptError,
    UnknownProcedureError, UnsupportedDirection,
)
from .features import (
    Bindings, Num, Struct, Sym, Text, Unit, ValueSet, Var, match, merge,
)
from .grammar import Grammar, extract_fragment, load_grammar, parse_grammar, tokenize
from .kitchen import (
    PRIMITIVES, KitchenSimulator, KitchenState, content_hash, initial_kitchen,
    load_kitchen,
)
from .memory import Ontology, PersonalDynamicMemory, advance_plot, resolve_entity
from .metrics import (
    OverlapScore, build_report, dish_approximation_score,
    goal_condition_success, load_goals, plan_triples, recipe_execution_time,
    smatch_exact, smatch_plans, smatch_score,
)
from .narrative import IntegrativeNarrativeNetwork, NarrativeQuestion
from .plans import (
    Executor, PlanCall, PlanFragment, PlanNetwork, chunk, execute_plan,
    expand_composites, find_recurrent_pairs, load_plan, plan_from_json,
    plan_to_json, save_plan, verify_direction,
)
from .session import (
    CookingSession, RecipeDocument, SessionResult, load_recipe, parse_recipe,
    run_recipe,
)

__version__ = "0.1.0"

__all__ = [
    "Bindings", "CookingSession", "DataflowDeadlock", "DuplicateNameError",
    "Executor", "Grammar", "GrammarSyntaxError", "InputError",
    "IntegrativeNarrativeNetwork", "KitchenSimulator", "KitchenState",
    "MergeFailure", "NarrativeQuestion", "Num", "Ontology", "OverlapScore",
    "PRIMITIVES", "PersonalDynamicMemory", "PlanCall",
    "PlanFragment", "PlanNetwork", "RecipeDocument", "SessionResult",
    "SimulationError", "SizeExceededError", "SousChefError",
    "StructuralError", "Struct", "Sym", "Text", "UnderstandingFailure",
    "Unit", "UnknownConceptError", "UnknownProcedureError",
    "UnsupportedDirection", "ValueSet", "Var", "advance_plot",
    "build_report", "chunk", "content_hash", "dish_approximation_score",
    "execute_plan", "expand_composites", "extract_fragment",
    "find_recurrent_pairs", "goal_condition_success", "initial_kitchen",
    "load_goals", "load_grammar", "load_kitchen", "load_plan",
    "load_recipe", "match", "merge", "parse_grammar", "parse_recipe",
    "plan_from_json", "plan_to_json", "plan_triples",
    "recipe_execution_time", "resolve_entity", "run_recipe", "save_plan",
    "smatch_exact", "smatch_plans", "smatch_score", "tokenize",
    "verify_direction",
]
