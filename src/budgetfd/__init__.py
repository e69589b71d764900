"""Reasoning engine for budget-constrained functional dependencies.

Decides provability, validity and satisfiability of boolean combinations
of budgeted dependency atoms, computes exact minimum budgets over premise
hypergraphs, emits checkable proof objects and counterexample models, and
checks or mines dependencies in finite informational models.
"""

from .entailment import (
    UNREACHABLE,
    EntailmentAnswer,
    SatAnswer,
    Unreachable,
    canonical_hypergraph,
    check_refutation,
    decide_satisfiable,
    decide_valid,
    entails,
    eval_formula_hypergraph,
    min_budget,
    min_budget_bruteforce,
)
from .errors import BudgetFDError, CapExceededError
from .formula import (
    AttrSet,
    Atom,
    Formula,
    FormulaError,
    Implies,
    Not,
    Universe,
    atoms,
    conj,
    disj,
    evaluate,
    iff,
    parse_atom,
    parse_attr_set,
    parse_budget,
    parse_formula,
    rank,
    to_text,
)
from .hypergraph import (
    ClosureTrace,
    Cut,
    Edge,
    Hypergraph,
    closure,
    closure_rounds,
    closure_trace,
    crossing_edges,
    reachability_cut,
)
from .infomodel import (
    INF,
    InfoModel,
    agrees_on,
    eval_atom_model,
    eval_formula_model,
    make_model,
    mine_dependencies,
    set_cost,
    truncate_costs,
)
from .proofs import (
    Augmentation,
    Premise,
    Proof,
    Reflexivity,
    Transitivity,
    build_proof,
    check_proof,
    derive_general_augmentation,
    derive_monotonicity,
    derive_weakening,
)
from .synth import (
    LinearModel,
    Path,
    PathModel,
    choice_function,
    counterexample_for,
    enumerate_paths,
    eval_formula_linear,
    flip_vector,
    materialize_acyclic,
    synthesize_model,
    tree_membership,
    verify_equations_sampled,
)

__version__ = "0.1.0"
