import random
from pathlib import Path

import pytest

from cutcheck import (
    CUT, AtomSet, Budget, Program, UNIVERSAL, parse_program, parse_query, prolog_search,
    pruned_tree,
)
from cutcheck.syntax import SpecSuite
from cutcheck.terms import Pred, resolve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_program(name: str) -> Program:
    return parse_program((FIXTURES / name).read_text())


def load_spec_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def pruned_answers(program: Program, query: tuple, budget=None):
    """The pruned tree and its computed answers, resolved from the store the
    walk hands to ``on_answer``, in the order the walk reaches them."""
    answers: list = []
    pt = pruned_tree(program, query, budget,
                     on_answer=lambda store: answers.append(resolve(store, query)))
    return pt, answers


def search_answers(program: Program, query: tuple, budget=None):
    """``prolog_search``'s result and its computed answers, resolved from the
    store it hands to ``on_answer``, in discovery order."""
    answers: list = []
    result = prolog_search(program, query, budget,
                           on_answer=lambda store: answers.append(resolve(store, query)))
    return result, answers


# A pre pattern whose guards force both arguments ground; with S over
# 1, [] and '.'/2 at depth 2 (722 atoms), the lattice walk of condition 3
# took about 27 s, the closed form well under a second.
RELATIONAL_PRE_PROGRAM = "n(X) :- !, !.\nm([], [1 | T]) :- !.\nn([1]) :- !, m(T, [X, 1]).\n"
RELATIONAL_PRE_SPEC = """\
[alphabet]
functor 1/0.
functor '[]'/0.
functor '.'/2.
predicate m/2.
predicate n/1.

[S]
m(X, L) where list(L).
m(X, L) where ground_list(L), member(X, L).
m([], [1]).

[pre]
m(X, L) where ground_list(L), member(X, L).

[post]
any.
"""


def random_propositional_program(rng: random.Random, preds, max_clauses=6, max_body=3,
                                 max_cuts=2) -> str:
    clauses, cuts = [], 0
    for _ in range(rng.randint(1, max_clauses)):
        body = []
        for _ in range(rng.randint(0, max_body)):
            if cuts < max_cuts and rng.random() < 0.25:
                body.append("!")
                cuts += 1
            else:
                body.append(rng.choice(preds))
        clauses.append(rng.choice(preds) + (" :- " + ", ".join(body) if body else "") + ".")
    return "\n".join(clauses)


def random_term_text(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth == 0 or r < 0.4:
        return rng.choice(["a", "b", "X", "Y"])
    if r < 0.8:
        return f"f({random_term_text(rng, depth - 1)})"
    return f"g({random_term_text(rng, depth - 1)},{random_term_text(rng, depth - 1)})"


def random_atom_text(rng: random.Random, preds=("p", "q", "r"), depth=2) -> str:
    return f"{rng.choice(preds)}({random_term_text(rng, depth)})"


def random_term_program(rng: random.Random, max_clauses=6, max_body=2, max_cuts=2) -> str:
    clauses, cuts = [], 0
    for _ in range(rng.randint(1, max_clauses)):
        body = []
        for _ in range(rng.randint(0, max_body)):
            if cuts < max_cuts and rng.random() < 0.3:
                body.append("!")
                cuts += 1
            else:
                body.append(random_atom_text(rng))
        clauses.append(random_atom_text(rng) + (" :- " + ", ".join(body) if body else "") + ".")
    return "\n".join(clauses)


def least_model_propositional(program: Program) -> set:
    """Least Herbrand model of a 0-ary-predicate program (bottom-up)."""
    model: set = set()
    changed = True
    while changed:
        changed = False
        for c in program.clauses:
            if all(b is CUT or b.name in model for b in c.body) and c.head.name not in model:
                model.add(c.head.name)
                changed = True
    return model


def propositional_suite(model: set, budget: Budget) -> SpecSuite:
    atoms = AtomSet(atoms=tuple(Pred(p) for p in sorted(model)))
    return SpecSuite(s=atoms, pre=UNIVERSAL, post=atoms, budget=budget)
