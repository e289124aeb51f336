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
    cached,
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

    @cached
    def forced(self) -> set:
        """``forced_ground`` of its guards, worked out once."""
        return forced_ground(self.guards)


@dataclass(frozen=True)
class AtomSet:
    """A set of atoms: every atom when ``universal``, else the listed ground
    ``atoms`` (kept sorted and deduplicated) and the instances of the guarded
    ``patterns``.  ``a | b`` is the union, taken field by field.  A universal
    set has one form: it drops the atoms and patterns it is given, so it
    equals ``UNIVERSAL``, as does every union with a universal side."""

    universal: bool = False
    atoms: tuple = ()
    patterns: tuple = ()

    def __post_init__(self):
        atoms = () if self.universal else tuple(sorted(set(self.atoms), key=atom_key))
        object.__setattr__(self, "atoms", atoms)
        if self.universal:
            object.__setattr__(self, "patterns", ())

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
    gives: tuple = ((), ())  # (facts, input positions): a generated output's facts,
    # when the inputs at those positions are known to be lists


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
                        forces=(((1,), (0,)),), gives=(("ground",), ())),
    "subset": GuardKind(("term", "term"), _subset, mode=(0, (1,), _sublists),
                        forces=(((1,), (0,)),), gives=(("list", "ground"), ())),
    "concat": GuardKind(("term", "term", "term"), _concat, mode=(2, (0, 1), _concatenation),
                        forces=(((2,), (0, 1)), ((0, 1), (2,))), gives=(("list", "ground"), (1,))),
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
    """(name, arity) pairs the set lists, none for a universal set, which
    holds every predicate: the caller must fall back to the alphabet."""
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
            # only a proper list has a positive spine length
            self._built = (terms, every, [e for e in every if e[2] or is_list(e[0])])

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
    chosen, rather than searched.  Each atom is built once, from values that
    carry their depths.  A variable adds its number of candidates to
    ``counter`` before it tries the first, so the cap is passed exactly
    where counting them one by one would pass it.

    A leaf tests the guards its construction did not establish: a mode
    guard whose output it generated from inputs assigned before, and a
    guard whose facts (``list``, ``ground``, ``ground_list``) its
    construction gives the template variable.  A value drawn from the pool
    is ground, and a list when drawn from the list pool; a generated one has
    the facts of its mode (``GuardKind.gives``) when the inputs they need
    are known to be lists.  It also measures each argument not drawn.

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
    known: dict = {}  # template variable -> the facts its construction gives its values
    for v in order:
        facts, needs = GUARDS[generated[v][0].name].gives if v in generated else (
            ("list", "ground") if v in lists else ("ground",), ())
        args = generated[v][0].args if v in generated else ()
        if all(args[i].__class__ is Var and "list" in known.get(args[i].name, ()) for i in needs):
            known[v] = facts

    def established(g: Guard) -> bool:
        kind = GUARDS[g.name]
        v = g.args[kind.mode[0] if kind.mode else 0] if g.args else None
        if kind.facts:
            return v.__class__ is Var and set(kind.facts) <= set(known.get(v.name, ()))
        return v.__class__ is Var and v.name in generated and generated[v.name][0] is g

    tested = tuple(g for g in pattern.guards if not established(g))
    targs = template.args
    # the leaf reads the depths of generated arguments, and measures the others not drawn
    deep = tuple(a.name for a in targs if a.__class__ is Var and a.name in generated)
    built = tuple(i for i, a in enumerate(targs) if a.__class__ is not Var)
    names = None if built else tuple(a.name for a in targs)

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
            for v in deep:
                if depths[v] > depth:
                    return
            args = tuple([env[n] for n in names] if names else [value(a, env) for a in targs])
            if not (built and any(term_key(args[j])[0] > depth for j in built)
                    or tested and not all(guard_holds(g, env, None, resolver) for g in tested)):
                out.append(Pred(template.name, args))
            return
        v = order[i]
        found = candidates(v, env)
        counter[0] += len(found)
        if counter[0] > cap:
            raise AtomSetTooLarge(f"pattern enumeration cap {cap} hit at depth {depth}")
        for c in found:
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
    part's work alone.  A universal set, which lists nothing, gives the
    atoms of the alphabet's predicates, and the cap is compared with their
    number before any is built.  Otherwise one counter serves the whole
    set: each pattern adds every candidate it tries.  Both draw their terms
    from ``pool``, a ``TermPool`` of the alphabet's functors and the depth;
    without one the call builds its own.  The atoms ``s`` lists keep their
    own terms.  No part of ``s`` gives an atom twice (a pattern's atoms are
    its template under distinct assignments of pool objects), so the atoms
    are deduplicated only when more than one part gives any.
    """
    if cap is None:
        cap = ENUM_CAP
    if pool is None:
        pool = TermPool(alphabet, depth)
    elif pool.depth != depth or pool.alphabet.functors != alphabet.functors:
        raise ValueError("the term pool is of another alphabet or depth")
    if predicate is not None:
        s, alphabet = _predicate_part(s, alphabet, predicate)
    if s.universal:
        n = ground_term_count(alphabet, depth, cap)
        if sum(n ** k for _, k in alphabet.predicates) > cap:
            raise AtomSetTooLarge(f"universal enumeration cap {cap} hit at depth {depth}")
        terms = pool.terms() if any(k for _, k in alphabet.predicates) else ()
        return list(ground_atoms(alphabet, depth, terms))  # sorted
    counter = [0]
    parts = [[a for a in s.atoms if atom_depth(a) <= depth]]
    parts += [_enumerate_pattern(p, pool, resolver, cap, counter) for p in s.patterns]
    parts = [atoms for atoms in parts if atoms]  # each free of repeats
    return _sorted_atoms(parts[0] if len(parts) == 1 else dict.fromkeys(itertools.chain(*parts)))


def _sorted_atoms(atoms) -> list:
    """``sorted(atoms, key=atom_key)``, compared by small integers.

    The distinct argument objects of the atoms are sorted once by
    ``term_key`` and numbered in that order, equal terms sharing a number
    (pool terms are one object each, and a listed atom keeps its own), so
    an atom's key is its name, its arity and the numbers of its arguments,
    integers, which compare without descending into nested term keys."""
    args = {id(t): t for a in atoms for t in a.args}
    ranks: dict = {}
    rank, last = -1, None
    for t in sorted(args.values(), key=term_key):
        key = term_key(t)
        if key != last:
            rank, last = rank + 1, key
        ranks[id(t)] = rank
    return sorted(atoms, key=lambda a: (a.name, len(a.args), *[ranks[id(t)] for t in a.args]))


def _predicate_part(s: AtomSet, alphabet: Alphabet, predicate) -> tuple:
    """The part of ``s`` that can hold atoms of ``predicate`` = (name, arity),
    and the alphabet to enumerate it over.

    That part keeps the listed atoms and the patterns of that predicate; a
    universal set is enumerated over an alphabet whose only predicate is
    that one.
    """
    if s.universal:
        return s, Alphabet(alphabet.functors, (predicate,))
    part = AtomSet(atoms=tuple(a for a in s.atoms if (a.name, len(a.args)) == predicate),
                   patterns=tuple(p for p in s.patterns
                                  if (p.template.name, len(p.template.args)) == predicate))
    return part, alphabet


# ---------------------------------------------------------------------------
# The members above a ground atom
# ---------------------------------------------------------------------------


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


def seeds(a: Pred, s: AtomSet, resolver=None) -> list:
    """One atom per part of ``s`` that holds the ground atom ``a``, above
    every member of that part above ``a``: the most general atom alone for a
    universal ``s``, else ``a`` when ``s`` lists it, and per pattern that
    holds ``a``, its template with each variable the guards force ground
    (``AtomPattern.forced``) at its value in ``a``, a ``list`` variable a
    list of fresh variables as long as its value, and every other variable
    fresh.  ``contains`` tests guards without facts, so every member above
    ``a`` keeps those values and list lengths.  A seed need not lie in ``s``.
    """
    if s.universal:  # every atom is an instance of the one seed
        return [most_general_atom(a.name, len(a.args))]
    out = [a] if a in s.atoms else []
    for p in s.patterns:
        theta = match(p.template, a)
        if theta is None or not all(guard_holds(g, theta, None, resolver) for g in p.guards):
            continue
        lists, fresh = _list_vars(p.guards), itertools.count(1)
        env = {}
        for v in vars_of(p.template):
            if v in p.forced:
                env[v] = theta[v]
            elif v in lists:
                env[v] = make_list([Var(f"G{next(fresh)}") for _ in list_items(theta[v])])
            else:
                env[v] = Var(f"G{next(fresh)}")
        out.append(apply(env, p.template))
    return out
