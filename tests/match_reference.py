"""The recursive one-way matcher, kept as a test oracle for ``cutcheck.terms.match``.

This is the algorithm ``match`` used before it kept its own stack: one
Python call per subterm, so it is only used on small terms.
"""

from typing import Optional

from cutcheck.terms import CUT, Compound, Pred, Var


def recursive_match(general, specific) -> Optional[dict]:
    """One-way matching: a substitution t with apply(t, general) == specific."""
    bindings: dict = {}

    def go(g, s) -> bool:
        if g is CUT or s is CUT:
            return g is s
        if isinstance(g, Var):
            if g.name in bindings:
                return bindings[g.name] == s
            bindings[g.name] = s
            return True
        if isinstance(g, Pred):
            return (
                isinstance(s, Pred)
                and g.name == s.name
                and len(g.args) == len(s.args)
                and all(go(ga, sa) for ga, sa in zip(g.args, s.args))
            )
        if isinstance(g, Compound):
            return (
                isinstance(s, Compound)
                and g.functor == s.functor
                and len(g.args) == len(s.args)
                and all(go(ga, sa) for ga, sa in zip(g.args, s.args))
            )
        raise TypeError(f"cannot match {g!r}")

    if isinstance(general, tuple):
        if not isinstance(specific, tuple) or len(general) != len(specific):
            return None
        if all(go(g, s) for g, s in zip(general, specific)):
            return bindings
        return None
    return bindings if go(general, specific) else None
