"""A first-order soundness fuzzer for ``check complete``.

Each case is a seeded program of two or three predicates over the constants
a and [] and the list functor, with cuts at random positions of some bodies,
that calls no predicate before itself; a spec whose S lists a part of the
program's least model closed under the bodies that derive its atoms, whose
pre is ``any`` or a ``list``, ``member``, ``subset`` or ``eq`` pattern of p
with some listed atoms, and whose post lists the least model, is ``any`` at
times, and holds a pattern at times; and a query of p with one or two
variables, shared between its arguments at times.  Two constants keep the
ground terms up to depth 2 few, and the check grounds the query's
variables over them.

The property: when ``completeness_check`` answers Verified and
``prolog_search`` finishes within its budget, every listed S atom that is an
instance of the query, up to the depth, is an instance of some answer.  S is
listed, so its S-true instances are the listed atoms the query matches, and
the property needs no enumeration.  The checker reads only ``prolog_search``
and ``tests/match_reference.py``, nothing of ``cutcheck.verify``.
"""

from __future__ import annotations

import random
import time

from cutcheck import Budget, completeness_check, parse_program, parse_query, parse_spec
from cutcheck.syntax import atom_text
from cutcheck.terms import CUT, atom_depth, is_ground, resolve, unify

from conftest import search_answers
from match_reference import recursive_match

CONSTANTS = ("a", "[]")
DEPTH = 2
BUDGET = Budget(depth=DEPTH, nodes=2_000, steps=4_000)
# pre patterns of p; q and r take ``any`` or ``q(X, L).``
PATTERNS = (
    "p(X, L) where list(L), member(X, L).",
    "p(X, L) where list(L), member(X, L).",
    "p(X, L) where list(L).",
    "p(U, T) where list(U), list(T), subset(U, T).",
    "p(X, Y) where eq(X, Y).",
    "p(X, Y).",
)
PREDICATES = ("p", "q", "r")  # each calls only those after it


def element(rng, names=()) -> str:
    """A variable of ``names`` or a constant, the first at times repeated."""
    return rng.choice(names) if names and rng.random() < 0.8 else rng.choice(CONSTANTS)


def arguments(rng, names=(), lists=()) -> str:
    """The two arguments of an atom: mostly an element and a list of one or
    two elements that repeat the first at times, or a list variable."""
    first = element(rng, names)
    if lists and rng.random() < 0.5:
        return f"{first}, {rng.choice(lists)}"
    items = [first if rng.random() < 0.4 else element(rng, names)
             for _ in range(rng.choice((1, 2, 2)))]
    if rng.random() < 0.15:  # at times the other way round
        return f"[{', '.join(items)}], {first}"
    return f"{first}, [{', '.join(items)}]"


def random_clause(rng, p: str, preds: tuple) -> str:
    """A clause of ``p`` whose head variables all occur in its body, so that
    its least model is finite; a cut at a random place of some bodies."""
    callees = preds[preds.index(p) + 1:]
    if not callees or rng.random() < 0.35:
        return f"{p}({arguments(rng)})."
    body = [f"{q}({arguments(rng, ('X', 'Y'), ('L',))})"
            for q in rng.sample(callees, rng.choice((1, 1, len(callees))))]
    names = tuple(v for v in ("X", "Y") if any(v in atom for atom in body))
    lists = ("L",) if any("L" in atom for atom in body) else ()
    if rng.random() < 0.7:
        body.insert(rng.randint(0, len(body)), "!")
    return f"{p}({arguments(rng, names, lists)}) :- {', '.join(body)}."


def least_model(program) -> dict:
    """Each atom of the program's least model -> the body of one ground clause
    instance that derives it; the program calls no predicate before itself."""
    model: dict = {}
    for p in reversed(PREDICATES):
        for clause in program.clauses:
            if clause.head.name != p:
                continue
            goals = [g for g in clause.body if g is not CUT]
            for sigma in solutions(goals, {}, model):
                head = resolve(sigma, clause.head)
                if is_ground(head):
                    model.setdefault(head, tuple(resolve(sigma, g) for g in goals))
    return model


def solutions(goals, sigma, model):
    if not goals:
        yield sigma
        return
    atom = resolve(sigma, goals[0])
    for fact in list(model):
        theta = unify(atom, fact)
        if theta is not None:
            yield from solutions(goals[1:], {**sigma, **theta}, model)


def random_case(rng) -> tuple:
    """The program, spec and query texts of one case.  S is a random part of
    the least model closed under the bodies that derive its atoms; post lists
    the least model, and pre holds the query and every call."""
    preds = PREDICATES[: rng.randint(2, 3)]
    clauses = [random_clause(rng, p, preds) for p in preds for _ in range(rng.randint(1, 3))]
    rng.shuffle(clauses)
    text = "\n".join(clauses) + "\n"
    model = least_model(parse_program(text))
    s, todo = set(), [a for a in model if rng.random() < 0.5]
    while todo:
        atom = todo.pop()
        if atom not in s:
            s.add(atom)
            todo += model[atom]
    listed = sorted(atom_text(a) + "." for a in model)
    pre = ["any."] if rng.random() < 0.2 else [rng.choice(PATTERNS), "q(X, L).", "r(X, L)."]
    pre += [a for a in listed if rng.random() < 0.1]
    post = ["any."] if rng.random() < 0.1 else listed
    if rng.random() < 0.1:
        post = post + [rng.choice(PATTERNS)]
    lines = ["[S]", *sorted(atom_text(a) + "." for a in s), "[pre]", *pre, "[post]", *post]
    query = f"p({arguments(rng, ('X', 'Y') if rng.random() < 0.3 else ('X',), ('L',))})"
    return text, "\n".join(lines) + "\n", query


def missing_instances(program, query, suite) -> list:
    """The listed S atoms up to the depth that are instances of the query and
    of no answer, or None when the search does not finish."""
    result, answers = search_answers(program, query, BUDGET)
    if not result.exact:
        return None
    [q] = query
    wanted = [a for a in suite.s.atoms
              if atom_depth(a) <= DEPTH and recursive_match(q, a) is not None]
    return [a for a in wanted
            if not any(recursive_match(ans, a) is not None for (ans,) in answers)]


def test_verified_complete_answers_every_s_instance():
    """Seed 5 draws, as case 134 and its 62nd Verified triple, a program
    that misses p([], [[]]) on the query p(Y, [Y]), which a check that
    shares either every [] of that atom or none verifies."""
    start = time.perf_counter()
    rng = random.Random(5)
    verified = checked = 0
    violations = []
    while verified < 250 and checked < 2000:
        checked += 1
        text, spec_text, query_text = random_case(rng)
        program, query = parse_program(text), parse_query(query_text)
        suite = parse_spec(spec_text + f"[bounds]\ndepth = {DEPTH}.\nnodes = {BUDGET.nodes}.\n"
                                       f"steps = {BUDGET.steps}.\n")
        if not completeness_check(program, query, suite).verdict.is_verified:
            continue
        missing = missing_instances(program, query, suite)
        if missing is None:
            continue
        verified += 1
        if missing:
            violations.append((checked, text, spec_text, query_text, missing))
    elapsed = time.perf_counter() - start
    print(f"\nFIRST-ORDER FUZZER: {verified} Verified triples of {checked} cases, "
          f"{len(violations)} missing an S instance ({elapsed:.1f} s)")
    assert not violations, violations[:2]
    assert verified >= 200, (verified, checked)
    assert elapsed < 20.0
