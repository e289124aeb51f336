"""Sets of atoms: extensional, guarded-pattern (intensional), unions, universal.

Membership of non-ground atoms is decided soundly: ``contains`` answers True
only when the guard conjunction literally holds on the atom, which (for the
guard vocabulary below) implies that every instance of the atom is in the
set.  All guards are closed under instantiation by construction, which is
what the pre/post interpretation requires.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from .terms import (
    CUT,
    Alphabet,
    Compound,
    Pred,
    Subst,
    Term,
    Var,
    apply,
    atom_depth,
    atom_key,
    canonical,
    ground_atoms,
    ground_terms,
    is_ground,
    is_list,
    list_items,
    make_list,
    match,
    most_general_atom,
    rename_apart,
    term_depth,
    unify,
    vars_of,
)

GUARD_ARITIES = {
    "any": 0,
    "list": 1,
    "ground": 1,
    "ground_list": 1,
    "member": 2,
    "subset": 2,
    "concat": 3,
    "eq": 2,
    "notin": 2,
}


class CapHit(Exception):
    """A bounded search reached its cap.  The message names the cap, its
    value and, where there is one, the depth; checkers answer Unknown with it."""


class AtomSetTooLarge(CapHit):
    """An atom-set enumeration reached its cap."""


@dataclass(frozen=True)
class Guard:
    name: str
    args: tuple = ()  # terms; for notin: (atom template, set name string)

    def __post_init__(self):
        if self.name not in GUARD_ARITIES:
            raise ValueError(f"unknown guard {self.name!r}")
        if len(self.args) != GUARD_ARITIES[self.name]:
            raise ValueError(f"guard {self.name}/{GUARD_ARITIES[self.name]} got {len(self.args)} args")


@dataclass(frozen=True)
class AtomPattern:
    template: Pred
    guards: tuple = ()


@dataclass(frozen=True)
class Extensional:
    atoms: tuple = ()  # sorted ground atoms

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms), key=atom_key)))


@dataclass(frozen=True)
class Intensional:
    patterns: tuple = ()


@dataclass(frozen=True)
class UnionSet:
    parts: tuple = ()


class _Universal:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "any."


UNIVERSAL = _Universal()

AtomSet = object  # Extensional | Intensional | UnionSet | _Universal


# ---------------------------------------------------------------------------
# Guard evaluation (sound three-valued collapse: True means "holds for all
# instances consistent with the optional groundness/list facts")
# ---------------------------------------------------------------------------


def _flags(facts, name):
    return facts.get(name, frozenset()) if facts else frozenset()


def definitely_list(t: Term, facts=None) -> bool:
    while True:
        if isinstance(t, Var):
            return "list" in _flags(facts, t.name)
        if isinstance(t, Compound) and t.functor == "[]" and not t.args:
            return True
        if isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
            t = t.args[1]
        else:
            return False


def definitely_ground(t, facts=None) -> bool:
    return all("ground" in _flags(facts, v) for v in vars_of(t))


def guard_holds(guard: Guard, env: Subst, facts=None, resolver=None) -> bool:
    """Sound evaluation of a guard under a matching environment."""
    name = guard.name
    if name == "any":
        return True
    args = [apply(env, a) for a in guard.args if not isinstance(a, str)]
    if name == "list":
        return definitely_list(args[0], facts)
    if name == "ground":
        return definitely_ground(args[0], facts)
    if name == "ground_list":
        return definitely_list(args[0], facts) and definitely_ground(args[0], facts)
    if name == "member":
        items = list_items(args[1])
        return items is not None and args[0] in items
    if name == "subset":
        a, b = list_items(args[0]), list_items(args[1])
        return a is not None and b is not None and all(x in b for x in a)
    if name == "concat":
        a = list_items(args[0])
        return a is not None and args[2] == make_list(a, tail=args[1])
    if name == "eq":
        return args[0] == args[1]
    if name == "notin":
        if resolver is None:
            return False
        target = resolver.get(guard.args[1])
        if target is None:
            raise KeyError(f"unknown set name {guard.args[1]!r} in notin guard")
        return not possibly_contains(target, args[0], resolver)
    raise ValueError(f"unknown guard {name!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def contains(s, a: Pred, resolver=None, facts=None) -> bool:
    """Sound membership: True only when every instance of ``a`` is in ``s``."""
    if s is UNIVERSAL:
        return True
    if isinstance(s, UnionSet):
        return any(contains(p, a, resolver, facts) for p in s.parts)
    if isinstance(s, Extensional):
        return is_ground(a) and a in s.atoms
    if isinstance(s, Intensional):
        for p in s.patterns:
            theta = match(p.template, a)
            if theta is None:
                continue
            if all(guard_holds(g, theta, facts, resolver) for g in p.guards):
                return True
        return False
    raise TypeError(f"not an atom set: {s!r}")


def possibly_contains(s, a: Pred, resolver=None) -> bool:
    """Over-approximate membership: False only when no instance of ``a`` is in ``s``."""
    if s is UNIVERSAL:
        return True
    if isinstance(s, UnionSet):
        return any(possibly_contains(p, a, resolver) for p in s.parts)
    if isinstance(s, Extensional):
        if is_ground(a):
            return a in s.atoms
        return any(match(a, m) is not None for m in s.atoms)
    if isinstance(s, Intensional):
        if is_ground(a):
            return contains(s, a, resolver)
        for p in s.patterns:
            t = rename_apart(p.template, vars_of(a))
            if isinstance(t, Pred) and unify(t, a) is not None:
                return True
        return False
    raise TypeError(f"not an atom set: {s!r}")


def set_predicates(s) -> set:
    """(name, arity) pairs the set can mention."""
    if s is UNIVERSAL:
        return set()  # caller must fall back to the alphabet
    if isinstance(s, UnionSet):
        out = set()
        for p in s.parts:
            out |= set_predicates(p)
        return out
    if isinstance(s, Extensional):
        return {(a.name, len(a.args)) for a in s.atoms}
    if isinstance(s, Intensional):
        return {(p.template.name, len(p.template.args)) for p in s.patterns}
    raise TypeError(f"not an atom set: {s!r}")


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ground_lists(alphabet: Alphabet, depth: int):
    return tuple(t for t in ground_terms(alphabet, depth) if is_list(t))


def _enumerate_pattern(pattern: AtomPattern, alphabet: Alphabet, depth: int, resolver, cap, counter):
    """Ground atoms of argument depth <= depth matching one guarded pattern.

    Enumeration is guard-driven: list-guarded variables range over ground
    lists, concat outputs are computed rather than searched, and member /
    subset arguments are drawn from the already-chosen list.
    """
    tvars = vars_of(pattern.template)
    kinds: dict = {}
    for g in pattern.guards:
        if g.name in ("list", "ground_list") and isinstance(g.args[0], Var):
            kinds[g.args[0].name] = "list"

    # Functional/source guards: output variable <- recipe.
    func: dict = {}
    for g in pattern.guards:
        if g.name == "concat" and isinstance(g.args[2], Var):
            func.setdefault(g.args[2].name, ("concat", g))
        elif g.name == "member" and isinstance(g.args[0], Var):
            func.setdefault(g.args[0].name, ("member", g))
        elif g.name == "subset" and isinstance(g.args[0], Var):
            func.setdefault(g.args[0].name, ("subset", g))

    # Assignment order: plain variables first, functional outputs once ready.
    order = []
    remaining = list(tvars)
    while remaining:
        progressed = False
        for v in list(remaining):
            if v not in func or all(n in order for n in _func_input_vars(func[v])):
                order.append(v)
                remaining.remove(v)
                progressed = True
        if not progressed:  # circular functional guards: fall back to domains
            order.extend(remaining)
            break

    out = []

    def candidates(v, env: dict):
        if v in func and all(n in env for n in _func_input_vars(func[v])):
            kind, g = func[v]
            sub = Subst(env)
            if kind == "concat":
                k = list_items(apply(sub, g.args[0]))
                if k is None:
                    return []
                return [make_list(k, tail=apply(sub, g.args[1]))]
            src = list_items(apply(sub, g.args[1]))
            if src is None:
                return []
            if kind == "member":
                return list(dict.fromkeys(src))
            # subset: lists over the source elements, up to the depth bound
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
            # A concat output must still fit the depth bound, and its spine is
            # at least as long as both inputs together; prune input lists that
            # already make that impossible.
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
                pool = [
                    t for t in pool
                    if (lambda it: it is not None and len(it) <= budget_len)(list_items(t))
                ]
            return pool
        return list(ground_terms(alphabet, depth))

    def assign(i, env: dict):
        if i == len(order):
            atom = apply(Subst(env), pattern.template)
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


def _func_input_vars(entry):
    kind, g = entry
    src = g.args[:2] if kind == "concat" else g.args[1:2]
    names = []
    for t in src:
        names.extend(vars_of(t))
    return names


_ENUM_CACHE_SIZE = 256
_ENUM_CACHE: OrderedDict = OrderedDict()  # key -> atom list or the CapHit raised, LRU order


def _freeze_resolver(resolver):
    if not resolver:
        return ()
    return tuple(sorted(resolver.items(), key=lambda kv: kv[0]))


def enumerate_atoms(s, alphabet: Alphabet, depth: int, resolver=None, cap: int = 1_000_000):
    """All ground atoms of ``s`` with argument depth <= depth, sorted, deduped.

    Results are memoized, the too-large outcome included: all set objects
    involved are immutable, so repeated checks over the same specification
    reuse one enumeration.  The memo keeps the ``_ENUM_CACHE_SIZE`` most
    recently used entries.
    """
    key = (s, alphabet, depth, _freeze_resolver(resolver), cap)
    try:
        result = _ENUM_CACHE.get(key)
    except TypeError:
        result = None
        key = None
    if result is not None:
        _ENUM_CACHE.move_to_end(key)
    else:
        try:
            result = _enumerate_atoms(s, alphabet, depth, resolver, cap)
        except CapHit as exc:
            result = exc
        if key is not None:
            _ENUM_CACHE[key] = result
            if len(_ENUM_CACHE) > _ENUM_CACHE_SIZE:
                _ENUM_CACHE.popitem(last=False)
    if isinstance(result, CapHit):
        raise result
    return result


def _enumerate_atoms(s, alphabet: Alphabet, depth: int, resolver=None, cap: int = 1_000_000):
    if s is UNIVERSAL:
        return list(ground_atoms(alphabet, depth))
    if isinstance(s, UnionSet):
        out: dict = {}
        for p in s.parts:
            for a in enumerate_atoms(p, alphabet, depth, resolver, cap):
                out[a] = None
        return sorted(out, key=atom_key)
    if isinstance(s, Extensional):
        return [a for a in s.atoms if atom_depth(a) <= depth]
    if isinstance(s, Intensional):
        counter = [0]
        out = {}
        for p in s.patterns:
            for a in _enumerate_pattern(p, alphabet, depth, resolver, cap, counter):
                out[a] = None
        return sorted(out, key=atom_key)
    raise TypeError(f"not an atom set: {s!r}")


# ---------------------------------------------------------------------------
# Maximally general members above a ground atom
# ---------------------------------------------------------------------------


def _anti_instances(t: Term, fresh, spend):
    """All generalizations of a term obtained by cutting subterms to fresh
    variables; ``spend`` is charged once per compound generalization."""
    if isinstance(t, Var):
        return [t]
    options = [Var(f"G{next(fresh)}")]
    if t.args:
        for combo in itertools.product(*(_anti_instances(a, fresh, spend) for a in t.args)):
            spend()
            options.append(Compound(t.functor, combo))
    else:
        options.append(t)
    return options


def _value_shared_variants(atom: Pred, fresh):
    """Variants where all occurrences of selected ground subterm values share
    a variable, generated lazily, smaller selections first."""
    values: dict = {}

    def collect(t):
        if isinstance(t, Compound):
            if is_ground(t):
                values.setdefault(t, None)
            for a in t.args:
                collect(a)

    for a in atom.args:
        collect(a)
    for r in range(1, len(values) + 1):
        for subset in itertools.combinations(values, r):
            mapping = {v: Var(f"G{next(fresh)}") for v in subset}

            def repl(t):
                if t in mapping:
                    return mapping[t]
                if isinstance(t, Compound) and t.args:
                    return Compound(t.functor, tuple(repl(a) for a in t.args))
                return t

            yield Pred(atom.name, tuple(repl(a) for a in atom.args))


def _maximal_filter(members):
    items = list({canonical(g): g for g in members}.values())
    kept = [
        g for g in items
        if not any(h is not g and match(h, g) is not None and match(g, h) is None for h in items)
    ]
    kept.sort(key=lambda a: repr(canonical(a)))
    return kept


def max_generalizations_pattern(a: Pred, pattern: AtomPattern, resolver=None, cap: int = 8192):
    """Maximally general atoms of a pattern set that have ``a`` as an instance.

    Raises CapHit when the lattice walk generates more than ``cap``
    generalizations.
    """
    theta = match(pattern.template, a)
    if theta is None:
        return []
    constraints: dict = {}
    relational = False
    for g in pattern.guards:
        if g.name in ("list", "ground", "ground_list") and isinstance(g.args[0], Var):
            constraints.setdefault(g.args[0].name, set()).add(g.name)
        elif g.name != "any":
            relational = True

    fresh = itertools.count(1)
    if not relational:
        mapping = {}
        for v in vars_of(pattern.template):
            t = theta.get(v, Var(v))
            ks = constraints.get(v, set())
            if "ground" in ks or "ground_list" in ks:
                mapping[v] = t
            elif "list" in ks:
                items = list_items(t)
                if items is None:
                    return []
                mapping[v] = make_list([Var(f"G{next(fresh)}") for _ in items])
            else:
                mapping[v] = Var(f"G{next(fresh)}")
        cand = apply(Subst(mapping), pattern.template)
        if match(cand, a) is None or not contains(Intensional((pattern,)), cand, resolver):
            return [a] if contains(Intensional((pattern,)), a, resolver) else []
        return [cand]

    # Relational guards: bounded walk over the generalization lattice of `a`.
    spent = itertools.count(1)

    def spend():
        if next(spent) > cap:
            raise CapHit(f"generalization cap {cap} hit")

    pool: dict = {}  # canonical form -> generalization
    for variant in itertools.chain((a,), _value_shared_variants(a, fresh)):
        spend()
        for combo in itertools.product(*(_anti_instances(t, fresh, spend) for t in variant.args)):
            spend()
            g = Pred(a.name, combo)
            pool[canonical(g)] = g
    members = [
        g
        for g in pool.values()
        if match(g, a) is not None and contains(Intensional((pattern,)), g, resolver)
    ]
    return _maximal_filter(members)


def max_generalizations(a: Pred, s, resolver=None, cap: int = 8192):
    """Maximally general members of ``s`` with ``a`` as an instance.

    Raises CapHit when a pattern's lattice walk reaches its cap."""
    if s is UNIVERSAL:
        return [most_general_atom(a.name, len(a.args))]
    if isinstance(s, Extensional):
        return [a] if a in s.atoms else []
    if isinstance(s, UnionSet):
        return _maximal_filter(
            [g for p in s.parts for g in max_generalizations(a, p, resolver, cap)]
        )
    if isinstance(s, Intensional):
        return _maximal_filter(
            [g for p in s.patterns for g in max_generalizations_pattern(a, p, resolver, cap)]
        )
    raise TypeError(f"not an atom set: {s!r}")
