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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .terms import (
    CUT,
    Alphabet,
    CapHit,
    Compound,
    NIL,
    Pred,
    Term,
    Var,
    apply,
    atom_depth,
    atom_key,
    canonical,
    ground_atoms,
    ground_term_count,
    ground_terms,
    is_ground,
    is_list,
    list_items,
    make_list,
    match,
    most_general_atom,
    rename_apart,
    term_key,
    unify,
    vars_of,
)

ENUM_CAP = 1_000_000  # atoms and pattern candidates one whole-set enumeration counts
GENERALIZATION_CAP = 8_192  # generalizations one lattice walk builds


class AtomSetTooLarge(CapHit):
    """An atom-set enumeration reached its cap."""


@dataclass(frozen=True)
class Guard:
    name: str
    args: tuple = ()  # one per kind in ``GUARDS[name].signature``
    terms: tuple = field(init=False, repr=False, compare=False)  # the args but a set name

    def __post_init__(self):
        kind = GUARDS.get(self.name)
        if kind is None:
            raise ValueError(f"unknown guard {self.name!r}")
        if len(self.args) != len(kind.signature):
            raise ValueError(f"guard {self.name}/{len(kind.signature)} got {len(self.args)} args")
        terms = tuple(a for a, k in zip(self.args, kind.signature) if k != "set")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class AtomPattern:
    template: Pred
    guards: tuple = ()

    @cached_property
    def closed_form(self):
        """The variables the guards force ground (``forced_ground``), when every
        guard but one that gives facts of a variable (``list``, ``ground``,
        ``ground_list``) has all its template variables among them; else
        None.  Then ``max_generalizations_pattern`` needs no search."""
        forced = forced_ground(self.guards)
        tvars = set(vars_of(self.template))
        for g in self.guards:
            if GUARDS[g.name].facts and isinstance(g.args[0], Var):
                continue
            if not forced.issuperset(tvars.intersection(vars_of(g.terms))):
                return None
        return forced


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
    if not facts:
        return is_ground(t)
    return all("ground" in _flags(facts, v) for v in vars_of(t))


def _member(guard, args, facts, resolver) -> bool:
    items = list_items(args[1])
    return items is not None and args[0] in items


def _subset(guard, args, facts, resolver) -> bool:
    a, b = list_items(args[0]), list_items(args[1])
    return a is not None and b is not None and all(x in b for x in a)


def _concat(guard, args, facts, resolver) -> bool:
    a = list_items(args[0])
    return a is not None and args[2] == make_list(a, tail=args[1])


def _notin(guard, args, facts, resolver) -> bool:
    if resolver is None:
        return False
    target = resolver.get(guard.args[1])
    if target is None:
        raise KeyError(f"unknown set name {guard.args[1]!r} in notin guard")
    return not possibly_contains(target, args[0], resolver)


def _members(terms, values, value_depth, pool) -> list:
    items = list_items(values[0])
    return [] if items is None else [(x, term_key(x)[0]) for x in dict.fromkeys(items)]


def _sublists(terms, values, value_depth, pool) -> list:
    """The lists over the source's elements, up to the depth bound.  A
    list's depth is worked out from its items' depths before it is built:
    that of ``[x1, ..., xn]`` is the largest ``i + depth(xi)``."""
    items = list_items(values[0])
    if items is None:
        return []
    bound = pool.depth
    source = [(x, term_key(x)[0]) for x in dict.fromkeys(items)]
    found = []
    for n in range(0, bound + 1):
        for combo in itertools.product(source, repeat=n):
            d = max([i + dx for i, (_, dx) in enumerate(combo, 1)], default=0)
            if d <= bound:
                found.append((pool.make_list([x for x, _ in combo]), d))
    return found


def _concatenation(terms, values, value_depth, pool) -> list:
    head, tail = values
    k = list_items(head)
    if k is None:
        return []
    d = max(value_depth(terms[0], head), len(k) + value_depth(terms[1], tail))
    return [(pool.make_list(k, tail), d)]


class GuardKind(NamedTuple):
    """What one guard of the spec language means to every site that reads it
    (the README's guard table shows each)."""

    signature: tuple  # per argument: "term", "atom" (a template) or "set" (a set name)
    test: Callable  # test(guard, term arguments under the match, facts, resolver)
    facts: tuple = ()  # what a holding guard says of its one argument: "list", "ground"
    # (output position, input positions, generate): generate(input terms, their values,
    # value_depth, term pool) gives the output's (value, depth) candidates, values of the pool
    mode: Optional[tuple] = None
    forces: tuple = ()  # ((from, to), ...): forced ground at positions from forces to


GUARDS = {
    "any": GuardKind((), lambda guard, args, facts, resolver: True),
    "list": GuardKind(("term",), lambda guard, args, facts, resolver:
                      definitely_list(args[0], facts), facts=("list",)),
    "ground": GuardKind(("term",), lambda guard, args, facts, resolver:
                        definitely_ground(args[0], facts), facts=("ground",)),
    "ground_list": GuardKind(("term",), lambda guard, args, facts, resolver:
                             definitely_list(args[0], facts) and definitely_ground(args[0], facts),
                             facts=("list", "ground")),
    "member": GuardKind(("term", "term"), _member, mode=(0, (1,), _members),
                        forces=(((1,), (0,)),)),
    "subset": GuardKind(("term", "term"), _subset, mode=(0, (1,), _sublists),
                        forces=(((1,), (0,)),)),
    "concat": GuardKind(("term", "term", "term"), _concat, mode=(2, (0, 1), _concatenation),
                        forces=(((2,), (0, 1)), ((0, 1), (2,)))),
    "eq": GuardKind(("term", "term"), lambda guard, args, facts, resolver: args[0] == args[1],
                    forces=(((1,), (0,)), ((0,), (1,)))),
    "notin": GuardKind(("atom", "set"), _notin),
}


def guard_holds(guard: Guard, env: dict, facts=None, resolver=None) -> bool:
    """Sound evaluation of a guard under a matching environment: its ground
    test on its term arguments under ``env``."""
    args = [env.get(a.name, a) if a.__class__ is Var else apply(env, a) for a in guard.terms]
    return GUARDS[guard.name].test(guard, args, facts, resolver)


def _list_vars(guards) -> set:
    """The variables that are a whole argument of a guard whose facts say it
    is a list."""
    return {g.args[0].name for g in guards
            if "list" in GUARDS[g.name].facts and isinstance(g.args[0], Var)}


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
        if unify(t, a) is not None:
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
        guarded = vars_of(tuple(a for g in p.guards for a in g.terms))
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


class TermPool:
    """The ground terms up to a depth over an alphabet's function symbols,
    hash-consed (Filliâtre & Conchon, "Type-safe modular hash-consing",
    2006): the pool holds one object per term, and the arguments of each are
    objects of the pool, so two of its terms are equal exactly when they are
    the same object, and a term's hash, ``term_key`` and depth (the key's
    first field) are reads of values cached on the object.

    The terms of ``ground_terms`` are built once, on first use, and a CapHit
    that build raises is kept and raised again by every draw.  The
    enumeration adds the terms it makes, deeper ones too, with ``intern``,
    ``cell`` and ``make_list``, which look a term up by its functor and the
    ids of its arguments, so a cell is found without being built or walked.
    Adding a term first tries the build, so that no term of the pool is
    made twice.  A ``_CheckContext`` holds one pool for its whole check;
    ``enumerate_atoms`` called without one builds its own.
    """

    def __init__(self, alphabet: Alphabet, depth: int):
        self.alphabet = alphabet
        self.depth = depth
        self._table: dict = {}  # (functor, id of each argument) -> the pool's term
        self._built = None  # the terms, their entries and the lists', or the CapHit raised
        self._cuts: dict = {}  # (lists?, max_len, max_depth) -> the entries within both

    def _build(self):
        if self._built is None:
            try:
                terms = ground_terms(self.alphabet, self.depth)
            except CapHit as exc:
                self._built = exc
                return
            self._table.update(((t.functor, *map(id, t.args)), t) for t in terms)
            every = [(t, term_key(t)[0], len(list_items(t) or ())) for t in terms]
            self._built = (terms, every, [e for e in every if is_list(e[0])])

    def _get(self) -> tuple:
        self._build()
        if isinstance(self._built, CapHit):
            raise self._built.with_traceback(None)  # no frames pile up on the kept exception
        return self._built

    def terms(self) -> tuple:
        """``ground_terms`` of the alphabet and depth."""
        return self._get()[0]

    def entries(self, lists: bool, max_len: int, max_depth: int) -> list:
        """``(term, depth, spine length)`` for each term, or only for each
        proper list, whose depth is at most ``max_depth`` and spine length at
        most ``max_len`` (a term that is not a proper list has length 0), in
        the order of ``terms``."""
        every = self._get()[2 if lists else 1]
        if max_len >= self.depth and max_depth >= self.depth:
            return every
        key = (lists, max_len, max_depth)
        if key not in self._cuts:
            self._cuts[key] = [e for e in every if e[2] <= max_len and e[1] <= max_depth]
        return self._cuts[key]

    def intern(self, t: Term) -> Term:
        """The pool's object equal to the ground term ``t``; the subterms of
        ``t`` that the pool lacks are added, from the leaves up."""
        table = self._table
        hit = table.get((t.functor, *map(id, t.args)))
        if hit is not None:
            return hit
        self._build()
        done: list = []  # the pool's objects for the arguments finished so far
        stack = [(t, False)]
        while stack:
            u, expanded = stack.pop()
            if not expanded:
                hit = table.get((u.functor, *map(id, u.args)))
                if hit is None:
                    stack.append((u, True))
                    stack += [(a, False) for a in reversed(u.args)]
                else:
                    done.append(hit)
                continue
            n = len(u.args)
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            key = (u.functor, *map(id, args))
            done.append(table.get(key) or self._add(key, args))
        return done[0]

    def cell(self, head: Term, tail: Term) -> Compound:
        """The pool's ``[head | tail]``, for ``head`` and ``tail`` of the pool."""
        key = (".", id(head), id(tail))
        t = self._table.get(key)
        if t is None:
            self._build()
            t = self._table.get(key) or self._add(key, (head, tail))
        return t

    def _add(self, key: tuple, args: tuple) -> Compound:
        t = self._table[key] = Compound(key[0], args)
        term_key(t)  # cached on the term, with its depth
        return t

    def make_list(self, items, tail: Optional[Term] = None) -> Term:
        """The pool's list of ``items`` ending in ``tail`` (``[]`` when None),
        built cell by cell from the end; items and tail are of the pool."""
        out = self.intern(NIL) if tail is None else tail
        for x in reversed(items):
            out = self.cell(x, out)
        return out


def _enumerate_pattern(pattern: AtomPattern, pool: TermPool, resolver, cap, counter):
    """Ground atoms of argument depth <= ``pool.depth`` matching one guarded
    pattern, every argument an object of the pool.

    Enumeration is guard-driven: list-guarded variables range over the
    pool's ground lists, other variables over all its terms, and the output
    of a guard with a generation mode (``GUARDS``: concat's result, member's
    element, subset's sublist) is computed from its inputs once they are
    chosen, rather than searched.  A leaf's assignment is the template's
    match, and each atom is built once.  Every value carries its depth, read
    from the pool or derived from how the value was made.

    A leaf tests the guards its construction did not establish.  Two kinds
    are established: a guard that gives facts (``list``, ``ground``,
    ``ground_list``) of a template variable drawn from the list pool, and a
    mode guard whose output it generated, from inputs assigned before.
    Every other guard is tested, and so is the depth of each argument that
    was not drawn from the pool.

    For ``concat(K, L, M)`` with M a template variable the atom's depth is
    at least ``depth(M) = max(depth(K), len(K) + depth(L))``, so once one
    input is chosen the other's pool is cut to the values that keep M within
    the bound: ``depth(L) <= depth - len(K)`` and ``len(K) <= depth - depth(L)``.
    """
    depth = pool.depth
    template = pattern.template
    tvars = vars_of(template)
    lists = _list_vars(pattern.guards)

    func: dict = {}  # output variable -> (the guard, its input terms, the generator)
    for g in pattern.guards:
        mode = GUARDS[g.name].mode
        if mode is not None and isinstance(g.args[mode[0]], Var):
            func.setdefault(g.args[mode[0]].name, (g, tuple(g.args[i] for i in mode[1]), mode[2]))
    inputs = {v: vars_of(terms) for v, (_, terms, _) in func.items()}

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
    # the variables generated from inputs assigned before them; the others are drawn
    generated = {v: func[v] for i, v in enumerate(order)
                 if v in func and all(n in order[:i] for n in inputs[v])}

    def established(g: Guard) -> bool:
        kind = GUARDS[g.name]
        if kind.facts:  # of a variable drawn from the list pool
            v = g.args[0]
            return (v.__class__ is Var and v.name in lists and v.name in tvars
                    and v.name not in generated)
        if kind.mode is None:
            return False
        v = g.args[kind.mode[0]]  # the output, generated by this guard
        return v.__class__ is Var and v.name in generated and generated[v.name][0] is g

    tested = tuple(g for g in pattern.guards if not established(g))
    # the template arguments a leaf measures: a drawn value is within the bound
    measured = tuple((i, a) for i, a in enumerate(template.args)
                     if a.__class__ is not Var or a.name in generated)

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
        return depths[t.name] if t.__class__ is Var else term_key(value)[0]

    def value(t: Term, env: dict) -> Term:
        return env[t.name] if t.__class__ is Var else pool.intern(apply(env, t))

    def candidates(v, env: dict):
        """``(value, depth, ...)`` tuples for ``v``, in enumeration order."""
        if v in generated:
            _, terms, generate = generated[v]
            return generate(terms, [value(t, env) for t in terms], value_depth, pool)
        max_len = max_depth = depth
        for other in len_cuts.get(v, ()):
            if other in env:
                max_len = min(max_len, depth - depths[other])
        for other in depth_cuts.get(v, ()):
            if other in env:
                max_depth = min(max_depth, depth - len(list_items(env[other]) or ()))
        return pool.entries(v in lists, max_len, max_depth)

    def assign(i, env: dict):
        if i == len(order):
            args = tuple([value(a, env) for a in targs])
            for j, a in measured:
                if value_depth(a, args[j]) > depth:
                    return
            if all(guard_holds(g, env, None, resolver) for g in tested):
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


def enumerate_atoms(s: AtomSet, alphabet: Alphabet, depth: int, resolver=None,
                    cap: int | None = None, predicate=None, pool: Optional[TermPool] = None):
    """All ground atoms of ``s`` with argument depth <= depth, sorted, deduped.

    With ``predicate`` = (name, arity) only the atoms of that predicate, and
    only the part of ``s`` that can hold them is enumerated (see
    ``_predicate_part``); the cap (``ENUM_CAP`` when None) counts that
    part's work alone.  One counter serves the whole set: the universal part
    adds the size of its product before it is built, each pattern every
    candidate it tries.  The universal part and the patterns draw their
    terms from ``pool``, a ``TermPool`` of the alphabet's functors and the
    depth; without one the call builds its own.  The atoms ``s`` lists keep
    their own terms.
    """
    if cap is None:
        cap = ENUM_CAP
    if pool is None:
        pool = TermPool(alphabet, depth)
    elif pool.depth != depth or pool.alphabet.functors != alphabet.functors:
        raise ValueError("the term pool is of another alphabet or depth")
    if predicate is not None:
        s, alphabet = _predicate_part(s, alphabet, predicate)
    counter = [0]
    out: dict = {}
    if s.universal:
        n = ground_term_count(alphabet, depth, cap)
        counter[0] = sum(n ** k for _, k in alphabet.predicates)
        if counter[0] > cap:
            raise AtomSetTooLarge(f"universal enumeration cap {cap} hit at depth {depth}")
        terms = pool.terms() if any(k for _, k in alphabet.predicates) else ()
        if not s.atoms and not s.patterns:
            return list(ground_atoms(alphabet, depth, terms))  # sorted
        out.update(dict.fromkeys(ground_atoms(alphabet, depth, terms)))
    out.update(dict.fromkeys(a for a in s.atoms if atom_depth(a) <= depth))
    for p in s.patterns:
        out.update(dict.fromkeys(_enumerate_pattern(p, pool, resolver, cap, counter)))
    return _sorted_atoms(out)


def _sorted_atoms(atoms) -> list:
    """``sorted(atoms, key=atom_key)``, compared by small integers.

    The distinct argument objects of the atoms are sorted once by
    ``term_key`` and numbered in that order, equal terms sharing a number
    (pool terms are one object each, and a listed atom keeps its own), so
    an atom's key is its name, its arity and the numbers of its arguments:
    a tuple of integers, which compares without descending into nested
    term keys."""
    args = {id(t): t for a in atoms for t in a.args}
    ranks: dict = {}
    rank, last = -1, None
    for t in sorted(args.values(), key=term_key):
        key = term_key(t)
        if key != last:
            rank, last = rank + 1, key
        ranks[id(t)] = rank
    rank_of = ranks.__getitem__
    return sorted(atoms, key=lambda a: (a.name, len(a.args), tuple(map(rank_of, map(id, a.args)))))


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
    if len(members) <= 1:
        return list(members)
    items = list({canonical(g): g for g in members}.values())
    kept = [
        g for g in items
        if not any(h is not g and match(h, g) is not None and match(g, h) is None for h in items)
    ]
    kept.sort(key=lambda a: repr(canonical(a)))
    return kept


def forced_ground(guards: tuple) -> set:
    """The variables the guards force ground: those of an argument whose
    guard's facts say it is ground, then, to a fixpoint, those of the side
    of a forcing rule (``GUARDS``) whose other side holds only forced
    variables."""
    forced = set()
    for g in guards:
        if "ground" in GUARDS[g.name].facts:
            forced.update(vars_of(g.args[0]))
    rules = [
        (vars_of(tuple(g.args[i] for i in src)), vars_of(tuple(g.args[i] for i in dst)))
        for g in guards for src, dst in GUARDS[g.name].forces
    ]
    changed = True
    while changed:
        changed = False
        for src, dst in rules:
            if not forced.issuperset(dst) and forced.issuperset(src):
                forced.update(dst)
                changed = True
    return forced


def max_generalizations_pattern(a: Pred, pattern: AtomPattern, resolver=None):
    """Maximally general atoms of a pattern set that have ``a`` as an instance.

    When the pattern has a closed form (``AtomPattern.closed_form``), the
    answer is one candidate, kept when its guards hold on it as ``contains``
    evaluates them: each forced variable keeps its value in the match of the
    template against ``a``, a variable under a ``list`` guard becomes a list
    of fresh variables as long as its value, and every other variable
    becomes fresh.  Membership is decided
    by ``guard_holds`` without facts, and there a ``ground`` or
    ``ground_list`` guard holds only on a ground argument, while ``member``,
    ``subset``, ``concat`` and ``eq`` compare their arguments with ``==``,
    so a side equal to parts of a ground side is ground too: every member
    above ``a`` binds the forced variables to their values in ``a``.  The
    other guards read only forced variables, or a variable's list spine, so
    they hold on the candidate exactly when they hold on ``a``.

    Every other pattern walks the generalization lattice, which raises
    CapHit past ``GENERALIZATION_CAP`` generalizations.
    """
    theta = match(pattern.template, a)
    if theta is None:
        return []
    forced = pattern.closed_form
    if forced is None:
        return _lattice_generalizations(a, pattern, resolver)
    lists = _list_vars(pattern.guards)
    fresh = itertools.count(1)
    env = dict(theta)  # the candidate's match: what ``contains`` checks the guards on
    for v in vars_of(pattern.template):
        if v in forced:
            continue
        if v in lists:
            items = list_items(theta[v])
            if items is None:
                return []
            env[v] = make_list([Var(f"G{next(fresh)}") for _ in items])
        else:
            env[v] = Var(f"G{next(fresh)}")
    if not all(guard_holds(g, env, None, resolver) for g in pattern.guards):
        return []
    return [apply(env, pattern.template) if env != theta else a]


def _lattice_generalizations(a: Pred, pattern: AtomPattern, resolver=None):
    """The members of the pattern set above ``a`` found by a bounded walk
    over the generalization lattice of ``a``, maximal ones only: the path
    for a pattern with no closed form.  Raises CapHit past
    ``GENERALIZATION_CAP`` generalizations.
    """
    cap = GENERALIZATION_CAP
    one = AtomSet(patterns=(pattern,))
    fresh = itertools.count(1)
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
        if match(g, a) is not None and contains(one, g, resolver)
    ]
    return _maximal_filter(members)


def max_generalizations(a: Pred, s: AtomSet, resolver=None):
    """Maximally general members of ``s`` with ``a`` as an instance.

    Raises CapHit when a pattern's lattice walk reaches its cap."""
    members = [most_general_atom(a.name, len(a.args))] if s.universal else []
    if a in s.atoms:
        members.append(a)
    for p in s.patterns:
        members.extend(max_generalizations_pattern(a, p, resolver))
    return _maximal_filter(members)
