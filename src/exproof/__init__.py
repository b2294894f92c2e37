"""exproof: prover traces in, expansion sequents out, proof verdicts checked."""

from .check import Verdict, deep_sequent, dependency_relation, is_acyclic, is_tautology, verdict
from .core import (
    And,
    App,
    Atom,
    Exists,
    ExproofError,
    Forall,
    Formula,
    Imp,
    Neg,
    Or,
    Polarity,
    Sequent,
    Strength,
    Subst,
    Term,
    Var,
    apply_subst,
    rectify,
)
from .expansion import (
    ETStrong,
    ETWeak,
    deep,
    expand_formula,
    sequent_from_json,
    sequent_to_json,
    shallow,
    shallow_sequent,
)
from .leancop import import_leancop, parse_leancop
from .notation import formula_text, parse_formula, parse_term, sequent_text
from .verit import import_verit, parse_verit

__version__ = "0.1.0"
