"""Sets of atoms: one ``AtomSet`` value lists ground atoms and guarded
patterns, or holds every atom.

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
class AtomSet:
    """A set of atoms: every atom when ``universal``, else the listed ground
    ``atoms`` (kept sorted and deduplicated) and the instances of the guarded
    ``patterns``.  ``a | b`` is the union, taken field by field."""

    universal: bool = False
    atoms: tuple = ()
    patterns: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(sorted(set(self.atoms), key=atom_key)))

    def __or__(self, other: "AtomSet") -> "AtomSet":
        return AtomSet(self.universal or other.universal, self.atoms + other.atoms,
                       self.patterns + other.patterns)


UNIVERSAL = AtomSet(universal=True)


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
    args = [
        env.get(a.name, a) if a.__class__ is Var else apply(env, a)
        for a in guard.args if not isinstance(a, str)
    ]
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


def contains(s: AtomSet, a: Pred, resolver=None, facts=None) -> bool:
    """Sound membership: True only when every instance of ``a`` is in ``s``."""
    if s.universal or a in s.atoms:  # the listed atoms are ground
        return True
    for p in s.patterns:
        theta = match(p.template, a)
        if theta is not None and all(guard_holds(g, theta, facts, resolver) for g in p.guards):
            return True
    return False


def possibly_contains(s: AtomSet, a: Pred, resolver=None) -> bool:
    """Over-approximate membership: False only when no instance of ``a`` is in ``s``."""
    if is_ground(a):
        return contains(s, a, resolver)
    if s.universal or any(match(a, m) is not None for m in s.atoms):
        return True
    for p in s.patterns:
        t = rename_apart(p.template, vars_of(a))
        if isinstance(t, Pred) and unify(t, a) is not None:
            return True
    return False


def membership_reads(s: AtomSet, atom: Pred) -> set:
    """Variables of ``atom`` whose values can decide whether a ground instance
    of it lies in ``s``: those in an argument that is not free in s.

    Argument i of p/n is free in s when s lists no p/n atom and every p/n
    pattern has at position i a variable occurring once in the template and
    in no guard (``notin`` templates count as guards).  Changing a free
    argument of a ground atom never changes its membership, so the answer
    over-approximates what ``contains`` reads.
    """
    if atom is CUT:
        return set()
    key = (atom.name, len(atom.args))
    free = set(range(len(atom.args)))
    if any((a.name, len(a.args)) == key for a in s.atoms):
        free.clear()
    for p in s.patterns:
        if not free:
            break
        t = p.template
        if (t.name, len(t.args)) != key:
            continue
        guarded = vars_of(tuple(a for g in p.guards for a in g.args if not isinstance(a, str)))
        for i in list(free):
            x, others = t.args[i], t.args[:i] + t.args[i + 1:]
            if not isinstance(x, Var) or x.name in guarded or x.name in vars_of(others):
                free.discard(i)
    return set(vars_of(tuple(a for i, a in enumerate(atom.args) if i not in free)))


def set_predicates(s: AtomSet) -> set:
    """(name, arity) pairs the set lists; a universal set mentions every
    predicate, and the caller must fall back to the alphabet for those."""
    return {(a.name, len(a.args)) for a in s.atoms} | {
        (p.template.name, len(p.template.args)) for p in s.patterns
    }


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _term_pool(alphabet: Alphabet, depth: int) -> tuple:
    """``(term, depth, spine length)`` for each term of ``ground_terms``, in its
    order; a term that is not a proper list has length 0."""
    out = []
    for t in ground_terms(alphabet, depth):
        items = list_items(t)
        out.append((t, term_depth(t), 0 if items is None else len(items)))
    return tuple(out)


@lru_cache(maxsize=None)
def _list_pool(alphabet: Alphabet, depth: int) -> tuple:
    """The entries of ``_term_pool`` that are proper lists, in its order."""
    return tuple(e for e in _term_pool(alphabet, depth) if is_list(e[0]))


def _enumerate_pattern(pattern: AtomPattern, alphabet: Alphabet, depth: int, resolver, cap, counter):
    """Ground atoms of argument depth <= depth matching one guarded pattern.

    Enumeration is guard-driven: list-guarded variables range over ground
    lists, concat outputs are computed rather than searched, and member /
    subset arguments are drawn from the already-chosen list.  A leaf's
    assignment is the template's match, so every guard is evaluated on it
    and each atom is built once.  Every value carries its depth, read from
    the pools or derived from how the value was made.

    For ``concat(K, L, M)`` with M a template variable the atom's depth is
    at least ``depth(M) = max(depth(K), len(K) + depth(L))``, so once one
    input is chosen the other's pool is cut to the values that keep M within
    the bound: ``depth(L) <= depth - len(K)`` and ``len(K) <= depth - depth(L)``.
    """
    template = pattern.template
    tvars = vars_of(template)
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
    inputs = {v: _func_input_vars(entry) for v, entry in func.items()}

    # Assignment order: plain variables first, functional outputs once ready.
    order = []
    remaining = list(tvars)
    while remaining:
        progressed = False
        for v in list(remaining):
            if v not in func or all(n in order for n in inputs[v]):
                order.append(v)
                remaining.remove(v)
                progressed = True
        if not progressed:  # circular functional guards: fall back to domains
            order.extend(remaining)
            break

    # The concat pool cuts: v -> the tails whose depth bounds len(v), and
    # v -> the heads whose length bounds depth(v).
    len_cuts: dict = {}
    depth_cuts: dict = {}
    for g in pattern.guards:
        k, l, m = g.args if g.name == "concat" else (None, None, None)
        if isinstance(m, Var) and m.name in tvars and isinstance(k, Var) and isinstance(l, Var):
            len_cuts.setdefault(k.name, []).append(l.name)
            depth_cuts.setdefault(l.name, []).append(k.name)

    out = []
    targs = template.args
    depths: dict = {}  # the depth of each assigned value

    def value_depth(t: Term, value: Term) -> int:
        return depths[t.name] if t.__class__ is Var else term_depth(value)

    def candidates(v, env: dict):
        """``(value, depth, ...)`` tuples for ``v``, in enumeration order."""
        if v in func and all(n in env for n in inputs[v]):
            kind, g = func[v]
            sub = Subst(env)
            if kind == "concat":
                head, tail = apply(sub, g.args[0]), apply(sub, g.args[1])
                k = list_items(head)
                if k is None:
                    return []
                d = max(value_depth(g.args[0], head), len(k) + value_depth(g.args[1], tail))
                return [(make_list(k, tail=tail), d)]
            src = list_items(apply(sub, g.args[1]))
            if src is None:
                return []
            if kind == "member":
                return [(x, term_depth(x)) for x in dict.fromkeys(src)]
            # subset: lists over the source elements, up to the depth bound
            pool = list(dict.fromkeys(src))
            found = []
            for n in range(0, depth + 1):
                for combo in itertools.product(pool, repeat=n):
                    cand = make_list(combo)
                    d = term_depth(cand)
                    if d <= depth:
                        found.append((cand, d))
            return found
        pool = _list_pool(alphabet, depth) if kinds.get(v) == "list" else _term_pool(alphabet, depth)
        max_len = max_depth = depth
        for other in len_cuts.get(v, ()):
            if other in env:
                max_len = min(max_len, depth - depths[other])
        for other in depth_cuts.get(v, ()):
            if other in env:
                max_depth = min(max_depth, depth - len(list_items(env[other]) or ()))
        if max_len < depth or max_depth < depth:
            pool = [e for e in pool if e[2] <= max_len and e[1] <= max_depth]
        return pool

    def assign(i, env: dict):
        if i == len(order):
            sub = Subst(env)
            args = tuple(env[a.name] if a.__class__ is Var else apply(sub, a) for a in targs)
            if any(value_depth(a, t) > depth for a, t in zip(targs, args)):
                return
            if all(guard_holds(g, sub, None, resolver) for g in pattern.guards):
                out.append(Pred(template.name, args))
            return
        v = order[i]
        for c in candidates(v, env):
            counter[0] += 1
            if counter[0] > cap:
                raise AtomSetTooLarge(f"pattern enumeration cap {cap} hit at depth {depth}")
            env[v] = c[0]
            depths[v] = c[1]
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


def enumerate_atoms(s: AtomSet, alphabet: Alphabet, depth: int, resolver=None,
                    cap: int = 1_000_000, predicate=None):
    """All ground atoms of ``s`` with argument depth <= depth, sorted, deduped.

    With ``predicate`` = (name, arity) only the atoms of that predicate, and
    only the part of ``s`` that can hold them is enumerated (see
    ``_predicate_part``); the cap counts that part's work alone.  One counter
    serves the whole set: the universal part adds the size of its product
    before it is built, each pattern every candidate it tries.

    Results are memoized, the too-large outcome included: all set objects
    involved are immutable, so repeated checks over the same specification
    reuse one enumeration.  The memo keeps the ``_ENUM_CACHE_SIZE`` most
    recently used entries.
    """
    if predicate is not None:
        s, alphabet = _predicate_part(s, alphabet, predicate)
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


def _predicate_part(s: AtomSet, alphabet: Alphabet, predicate) -> tuple:
    """The part of ``s`` that can hold atoms of ``predicate`` = (name, arity),
    and the alphabet to enumerate it over.

    That part keeps the listed atoms and the patterns of that predicate; a
    universal set is enumerated over an alphabet whose only predicate is
    that one.
    """
    part = AtomSet(
        s.universal,
        tuple(a for a in s.atoms if (a.name, len(a.args)) == predicate),
        tuple(p for p in s.patterns if (p.template.name, len(p.template.args)) == predicate),
    )
    if s.universal:
        alphabet = Alphabet(alphabet.functors, (predicate,))
    return part, alphabet


def _enumerate_atoms(s: AtomSet, alphabet: Alphabet, depth: int, resolver=None,
                     cap: int = 1_000_000):
    counter = [0]
    out: dict = {}
    if s.universal:
        n = len(ground_terms(alphabet, depth))
        counter[0] = sum(n ** k for _, k in alphabet.predicates)
        if counter[0] > cap:
            raise AtomSetTooLarge(f"universal enumeration cap {cap} hit at depth {depth}")
        if not s.atoms and not s.patterns:
            return list(ground_atoms(alphabet, depth))  # sorted, and cached by ground_atoms
        out.update(dict.fromkeys(ground_atoms(alphabet, depth)))
    out.update(dict.fromkeys(a for a in s.atoms if atom_depth(a) <= depth))
    for p in s.patterns:
        out.update(dict.fromkeys(_enumerate_pattern(p, alphabet, depth, resolver, cap, counter)))
    return sorted(out, key=atom_key)


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
        if match(cand, a) is None or not contains(AtomSet(patterns=(pattern,)), cand, resolver):
            return [a] if contains(AtomSet(patterns=(pattern,)), a, resolver) else []
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
        if match(g, a) is not None and contains(AtomSet(patterns=(pattern,)), g, resolver)
    ]
    return _maximal_filter(members)


def max_generalizations(a: Pred, s: AtomSet, resolver=None, cap: int = 8192):
    """Maximally general members of ``s`` with ``a`` as an instance.

    Raises CapHit when a pattern's lattice walk reaches its cap."""
    members = [most_general_atom(a.name, len(a.args))] if s.universal else []
    if a in s.atoms:
        members.append(a)
    for p in s.patterns:
        members.extend(max_generalizations_pattern(a, p, resolver, cap))
    return _maximal_filter(members)
