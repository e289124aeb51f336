"""Naive substitution algebra, kept as a test oracle for ``cutcheck.terms``.

``naive_apply`` substitutes by recursion, ``naive_compose`` builds the
composed substitution, and ``naive_unify`` unifies pairs left to right,
applying the substitution found so far to both sides of every pair and
composing once per binding, with the recursive ``occurs`` check.  This is the algorithm ``cutcheck.terms.unify``
used before it bound triangularly; it is quadratic, so it is only used to
check ``unify``, ``apply`` and the answers of both engines on small terms.
It binds as ``cutcheck.terms._unify_pairs`` does: a variable on the right
to the left-hand term, else a variable on the left to the right-hand term,
so of two variables the right-hand one.  So its mgus equal the program's
term for term, not only up to renaming.
``naive_vars_of`` and ``naive_resolve`` are full walks too.  Nothing here
reads a compound's ``ground`` flag, so the oracles stay independent of
the walks' shortcut at ground subterms.
``range_vars`` and ``is_idempotent`` state the properties an mgu must have.
"""

from typing import Optional

from cutcheck.terms import CUT, Clause, Compound, Pred, Var


def naive_vars_of(e) -> list:
    """Variable names of a term/atom/clause/tuple, in first-occurrence order,
    by recursion into every subterm.  Raises TypeError on anything else."""
    seen: dict = {}

    def walk(x):
        if isinstance(x, Var):
            seen[x.name] = None
        elif isinstance(x, (Compound, Pred)):
            for a in x.args:
                walk(a)
        elif isinstance(x, tuple):
            for a in x:
                walk(a)
        elif isinstance(x, Clause):
            walk(x.head)
            walk(x.body)
        elif x is not CUT:
            raise TypeError(f"cannot collect variables from {x!r}")

    walk(e)
    return list(seen)


def naive_resolve(bindings: dict, e):
    """``e`` under a triangular binding map: apply the map until nothing
    changes (the map must be acyclic)."""
    while True:
        out = naive_apply(bindings, e)
        if out == e:
            return out
        e = out


def occurs(name: str, t) -> bool:
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, Compound):
        return any(occurs(name, a) for a in t.args)
    return False


def range_vars(s: dict) -> set:
    """The variables of the terms ``s`` binds."""
    out: set = set()
    for _, v in s.items():
        out.update(naive_vars_of(v))
    return out


def is_idempotent(s: dict) -> bool:
    return not (set(s) & range_vars(s))


def naive_apply(s: dict, e):
    if e is None or e is CUT:
        return e
    if isinstance(e, (Var, Compound)):
        return _apply_term(s, e)
    if isinstance(e, Pred):
        return Pred(e.name, tuple(_apply_term(s, a) for a in e.args))
    if isinstance(e, Clause):
        return Clause(naive_apply(s, e.head), naive_apply(s, e.body))
    if isinstance(e, tuple):
        return tuple(naive_apply(s, a) for a in e)
    raise TypeError(f"cannot apply substitution to {e!r}")


def _apply_term(s: dict, t):
    """``naive_apply`` inside a term, where only variables and compounds may occur."""
    if isinstance(t, Var):
        return s.get(t.name, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_apply_term(s, a) for a in t.args))
    raise TypeError(f"cannot apply substitution to {t!r}")


def naive_compose(s: dict, t: dict) -> dict:
    """The substitution mapping each X to ``naive_apply(t, naive_apply(s, X))``,
    without the bindings of a variable to itself."""
    out = {k: naive_apply(t, v) for k, v in s.items()}
    for k, v in t.items():
        if k not in out:
            out[k] = v
    return {k: v for k, v in out.items() if v != Var(k)}


def _unify_pairs(pairs) -> Optional[dict]:
    sigma: dict = {}
    stack = list(reversed(pairs))
    while stack:
        x, y = stack.pop()
        x = naive_apply(sigma, x)
        y = naive_apply(sigma, y)
        if x == y:
            continue
        if isinstance(y, Var):
            if occurs(y.name, x):
                return None
            sigma = naive_compose(sigma, {y.name: x})
        elif isinstance(x, Var):
            if occurs(x.name, y):
                return None
            sigma = naive_compose(sigma, {x.name: y})
        elif isinstance(x, Compound) and isinstance(y, Compound):
            if x.functor != y.functor or len(x.args) != len(y.args):
                return None
            stack.extend(reversed(list(zip(x.args, y.args))))
        else:
            return None
    return sigma


def naive_unify(a, b) -> Optional[dict]:
    """An idempotent, relevant mgu of two terms or two atoms, or None."""
    if isinstance(a, Pred) or isinstance(b, Pred):
        if not (isinstance(a, Pred) and isinstance(b, Pred)):
            raise TypeError("cannot unify an atom with a term")
        if a.name != b.name or len(a.args) != len(b.args):
            return None
        return _unify_pairs(list(zip(a.args, b.args)))
    return _unify_pairs([(a, b)])
