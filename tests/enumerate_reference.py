"""The guard-driven pattern enumeration before its pool cuts, kept as a test oracle.

``cutcheck.atomsets._enumerate_pattern`` builds each leaf atom once, reads
value depths from tables and cuts concat input pools by depth.  The
function here builds every leaf with ``apply``, re-matches it against the
template, measures it and cuts concat inputs by spine length only, as the
enumeration did before.  Wherever it finishes within its cap, both must
give the same atoms in the same order.
"""

import itertools
from functools import lru_cache

from cutcheck.atomsets import AtomSetTooLarge, guard_holds
from cutcheck.terms import (
    Var,
    apply,
    atom_depth,
    ground_terms,
    is_ground,
    is_list,
    list_items,
    make_list,
    match,
    term_depth,
    vars_of,
)


@lru_cache(maxsize=None)
def _ground_lists(alphabet, depth):
    return tuple(t for t in ground_terms(alphabet, depth) if is_list(t))


@lru_cache(maxsize=None)
def _ground_list_lengths(alphabet, depth):
    return tuple(len(list_items(t)) for t in _ground_lists(alphabet, depth))


def _func_input_vars(entry):
    kind, g = entry
    src = g.args[:2] if kind == "concat" else g.args[1:2]
    names = []
    for t in src:
        names.extend(vars_of(t))
    return names


def reference_enumerate_pattern(pattern, alphabet, depth, resolver, cap, counter):
    """Ground atoms of argument depth <= depth matching one guarded pattern."""
    tvars = vars_of(pattern.template)
    kinds: dict = {}
    for g in pattern.guards:
        if g.name in ("list", "ground_list") and isinstance(g.args[0], Var):
            kinds[g.args[0].name] = "list"

    func: dict = {}
    for g in pattern.guards:
        if g.name == "concat" and isinstance(g.args[2], Var):
            func.setdefault(g.args[2].name, ("concat", g))
        elif g.name == "member" and isinstance(g.args[0], Var):
            func.setdefault(g.args[0].name, ("member", g))
        elif g.name == "subset" and isinstance(g.args[0], Var):
            func.setdefault(g.args[0].name, ("subset", g))

    order = []
    remaining = list(tvars)
    while remaining:
        progressed = False
        for v in list(remaining):
            if v not in func or all(n in order for n in _func_input_vars(func[v])):
                order.append(v)
                remaining.remove(v)
                progressed = True
        if not progressed:
            order.extend(remaining)
            break

    out = []

    def candidates(v, env: dict):
        if v in func and all(n in env for n in _func_input_vars(func[v])):
            kind, g = func[v]
            if kind == "concat":
                k = list_items(apply(env, g.args[0]))
                if k is None:
                    return []
                return [make_list(k, tail=apply(env, g.args[1]))]
            src = list_items(apply(env, g.args[1]))
            if src is None:
                return []
            if kind == "member":
                return list(dict.fromkeys(src))
            pool = list(dict.fromkeys(src))
            found = []
            for n in range(0, depth + 1):
                for combo in itertools.product(pool, repeat=n):
                    cand = make_list(combo)
                    if term_depth(cand) <= depth:
                        found.append(cand)
            return found
        if kinds.get(v) == "list":
            pool = _ground_lists(alphabet, depth)
            budget_len = None
            for g in pattern.guards:
                if g.name != "concat":
                    continue
                for j in (0, 1):
                    if g.args[j] == Var(v):
                        other = g.args[1 - j]
                        used = 0
                        if isinstance(other, Var) and other.name in env:
                            items = list_items(env[other.name])
                            used = len(items) if items is not None else 0
                        limit = depth - used
                        budget_len = limit if budget_len is None else min(budget_len, limit)
            if budget_len is not None:
                lengths = _ground_list_lengths(alphabet, depth)
                pool = [t for t, n in zip(pool, lengths) if n <= budget_len]
            return pool
        return list(ground_terms(alphabet, depth))

    def assign(i, env: dict):
        if i == len(order):
            atom = apply(env, pattern.template)
            if not is_ground(atom) or atom_depth(atom) > depth:
                return
            theta = match(pattern.template, atom)
            if theta is not None and all(
                guard_holds(g, theta, None, resolver) for g in pattern.guards
            ):
                out.append(atom)
            return
        v = order[i]
        for c in candidates(v, env):
            counter[0] += 1
            if counter[0] > cap:
                raise AtomSetTooLarge(f"pattern enumeration cap {cap} hit at depth {depth}")
            env[v] = c
            assign(i + 1, env)
        env.pop(v, None)

    assign(0, {})
    return out
