"""A brute-force oracle for the members of pre above a ground atom, and for
the obligations of c-coverage's conditions 2 and 3 that they give.

Over a small alphabet, ``generalizations(atom)`` lists every generalization
of a small ground atom, one per class of variants: a choice of the positions
to cut, none below another, and a partition of the cut positions that hold
equal values, one variable per block.  Each one is classified against pre:

- ``IN`` when ``contains`` puts it in pre;
- ``OUT`` when one of its ground instances over a pool of ground terms lies
  outside pre (membership of a ground atom is exact);
- ``OPEN`` otherwise: the oracle cannot rule it out.

``obligation`` then decides, by the paper's definition, whether a candidate
head (a ground H' sigma for condition 2, a reduced head h for condition 3)
comes with a member of pre above the atom: YES when an IN generalization
lies above it (condition 2) or unifies with it (condition 3), NO when every
such generalization is OUT, and OPEN otherwise.  It shares no code with the
seed and lgg tests of ``cutcheck.verify``.
"""

from __future__ import annotations

import itertools

from cutcheck.atomsets import Guard, contains
from cutcheck.terms import (
    Alphabet, Compound, Pred, Var, apply, make_list, match, rename_apart, unify, vars_of,
)

IN, OUT, OPEN = "in", "out", "open"
YES, NO = "yes", "no"


def _positions(t, path=()):
    """The paths to every subterm of ``t`` below its root, each with the subterm."""
    for i, x in enumerate(t.args):
        yield path + (i,), x
        yield from _positions(x, path + (i,))


def _antichains(paths):
    """Every set of paths of which none lies below another, the empty one too."""
    if not paths:
        yield ()
        return
    first, rest = paths[0], paths[1:]
    yield from _antichains(rest)
    below = [p for p in rest if p[:len(first)] != first]
    for chain in _antichains(below):
        yield (first,) + chain


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _replace(t, path, new):
    if not path:
        return new
    args = list(t.args)
    args[path[0]] = _replace(args[path[0]], path[1:], new)
    return Pred(t.name, tuple(args)) if isinstance(t, Pred) else Compound(t.functor, tuple(args))


def generalizations(atom: Pred) -> list:
    """Every generalization of the ground atom, one per class of variants."""
    subterms = dict(_positions(atom))
    out = []
    for cut in _antichains(sorted(subterms)):
        groups: dict = {}
        for p in cut:
            groups.setdefault(subterms[p], []).append(p)
        for choice in itertools.product(*(list(_partitions(g)) for g in groups.values())):
            g, n = atom, 0
            for blocks in choice:
                for block in blocks:
                    n += 1
                    for p in block:
                        g = _replace(g, p, Var(f"W{n}"))
            out.append(g)
    return out


def classify(g: Pred, pre, pool) -> str:
    if contains(pre, g):
        return IN
    names = vars_of(g)
    for combo in itertools.product(pool, repeat=len(names)):
        if not contains(pre, apply(dict(zip(names, combo)), g)):
            return OUT
    return OPEN


class Oracle:
    """The generalizations of one ground atom, classified against pre."""

    def __init__(self, atom: Pred, pre, pool):
        self.classes = [(g, classify(g, pre, pool)) for g in generalizations(atom)]

    def members(self) -> list:
        return [g for g, c in self.classes if c == IN]

    def obligation(self, head: Pred, above: bool) -> str:
        """Condition 2 (``above``: a generalization above the ground head) or
        condition 3 (one that unifies with the head)."""
        seen = set()
        for g, c in self.classes:
            if above:
                related = match(g, head) is not None
            else:
                related = unify(rename_apart(g, set(vars_of(head))), head) is not None
            if related:
                seen.add(c)
        if IN in seen:
            return YES
        return OPEN if OPEN in seen else NO


# seeded patterns: a small alphabet over lists, and relational guards
LIST_ALPHA = Alphabet((("1", 0), ("[]", 0), (".", 2)), (("p", 2),))
RELATIONAL = ["member", "member", "subset", "concat", "eq"]
_ONE = Compound("1")


def random_guard(rng, names, kinds=RELATIONAL + ["ground_list"] * 4 + ["ground", "list", "any"]):
    """A guard over variables drawn from ``names``, at times with a ground side."""
    v = lambda: Var(rng.choice(names))
    side = lambda: rng.choice([v(), v(), v(), make_list([_ONE]), make_list([make_list([])])])
    name = rng.choice(kinds)
    if name in ("ground_list", "ground", "list"):
        return Guard(name, (v(),))
    if name in ("member", "subset"):
        return Guard(name, (v(), side()))
    if name == "concat":
        return Guard(name, (v(), v(), side()))
    if name == "eq":
        return Guard(name, (v(), side()))
    return Guard("any", ())
