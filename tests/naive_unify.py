"""Naive substitution algebra, kept as a test oracle for ``cutcheck.terms``.

``naive_apply`` substitutes by recursion, ``naive_compose`` builds the
composed substitution, and ``naive_unify`` unifies pairs left to right,
applying the substitution found so far to both sides of every pair and
composing once per binding.  This is the algorithm ``cutcheck.terms.unify``
used before it bound triangularly; it is quadratic, so it is only used to
check ``unify``, ``apply`` and the answers of both engines on small terms.
"""

from typing import Optional

from cutcheck.terms import CUT, Clause, Compound, Pred, Subst, Var, occurs


def naive_apply(s: Subst, e):
    if e is None or e is CUT:
        return e
    if isinstance(e, Var):
        return s.get(e.name, e)
    if isinstance(e, Compound):
        return Compound(e.functor, tuple(naive_apply(s, a) for a in e.args))
    if isinstance(e, Pred):
        return Pred(e.name, tuple(naive_apply(s, a) for a in e.args))
    if isinstance(e, Clause):
        return Clause(naive_apply(s, e.head), naive_apply(s, e.body))
    if isinstance(e, tuple):
        return tuple(naive_apply(s, a) for a in e)
    raise TypeError(f"cannot apply substitution to {e!r}")


def naive_compose(s: Subst, t: Subst) -> Subst:
    """The substitution mapping each X to ``naive_apply(t, naive_apply(s, X))``."""
    out = {k: naive_apply(t, v) for k, v in s.items()}
    for k, v in t.items():
        if k not in out:
            out[k] = v
    return Subst(out)


def _unify_pairs(pairs) -> Optional[Subst]:
    sigma = Subst()
    stack = list(reversed(pairs))
    while stack:
        x, y = stack.pop()
        x = naive_apply(sigma, x)
        y = naive_apply(sigma, y)
        if x == y:
            continue
        if isinstance(x, Var):
            if occurs(x.name, y):
                return None
            sigma = naive_compose(sigma, Subst({x.name: y}))
        elif isinstance(y, Var):
            if occurs(y.name, x):
                return None
            sigma = naive_compose(sigma, Subst({y.name: x}))
        elif isinstance(x, Compound) and isinstance(y, Compound):
            if x.functor != y.functor or len(x.args) != len(y.args):
                return None
            stack.extend(reversed(list(zip(x.args, y.args))))
        else:
            return None
    return sigma


def naive_unify(a, b) -> Optional[Subst]:
    """An idempotent, relevant mgu of two terms or two atoms, or None."""
    if isinstance(a, Pred) or isinstance(b, Pred):
        if not (isinstance(a, Pred) and isinstance(b, Pred)):
            raise TypeError("cannot unify an atom with a term")
        if a.name != b.name or len(a.args) != len(b.args):
            return None
        return _unify_pairs(list(zip(a.args, b.args)))
    return _unify_pairs([(a, b)])
