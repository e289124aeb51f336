"""Pruned LD-trees for logic programs with cut, plus declarative checkers."""

from .terms import (
    CUT,
    Alphabet,
    Clause,
    Compound,
    CutUnificationError,
    Pred,
    Var,
    apply,
    make_list,
    match,
    rename_apart,
    unify,
    vars_of,
)
from .verdicts import REFUTED, UNKNOWN, VERIFIED, Verdict, weakest
from .atomsets import (
    UNIVERSAL,
    AtomPattern,
    AtomSet,
    CapHit,
    Guard,
    contains,
    enumerate_atoms,
    max_generalizations,
)
from .levels import LevelMapping, level_of
from .engine import Budget, LdTree, Program, build_tree
from .pruning import PrunedTree, prolog_search, pruned_tree
from .syntax import ParseError, SpecSuite, parse_program, parse_query, parse_spec
from .dot import tree_dot
from .verify import (
    CheckReport,
    acceptable_check,
    completeness_check,
    correct_check,
    cs_correct,
    oracle_tree_complete,
    recurrent_check,
    semi_complete,
)

__version__ = "0.1.0"

__all__ = [
    "CUT",
    "Alphabet",
    "AtomPattern",
    "AtomSet",
    "Budget",
    "CapHit",
    "CheckReport",
    "Clause",
    "Compound",
    "CutUnificationError",
    "Guard",
    "LdTree",
    "LevelMapping",
    "ParseError",
    "Pred",
    "Program",
    "PrunedTree",
    "REFUTED",
    "SpecSuite",
    "UNIVERSAL",
    "UNKNOWN",
    "VERIFIED",
    "Var",
    "Verdict",
    "acceptable_check",
    "apply",
    "build_tree",
    "completeness_check",
    "contains",
    "correct_check",
    "cs_correct",
    "enumerate_atoms",
    "level_of",
    "make_list",
    "match",
    "max_generalizations",
    "oracle_tree_complete",
    "parse_program",
    "parse_query",
    "parse_spec",
    "prolog_search",
    "pruned_tree",
    "recurrent_check",
    "rename_apart",
    "semi_complete",
    "tree_dot",
    "unify",
    "vars_of",
    "weakest",
]
