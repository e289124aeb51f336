"""First-order terms, atoms, substitutions, unification, and ground enumeration.

Terms are immutable values: variables and compounds (constants are zero-arity
compounds).  Atoms are predicate applications plus the special control atom
``!`` (cut), which is consumed by the derivation engine and never unified.

A substitution is a plain ``dict`` from variable name to term.  It has two
readers: ``apply`` reads it as simultaneous (each variable is replaced by its
binding as is), and ``resolve`` as triangular (a binding may hold bound
variables, resolved in turn).  A map made once, such as a renaming or the
result of ``unify`` or ``match``, is read by ``apply``; a map that a search
extends, binding only variables it leaves free, grows by a dict merge and
is read by ``resolve``.  ``match`` may bind a variable to itself, which
``apply`` ignores and on which ``resolve`` never returns.

There is one unification loop, ``_unify_pairs``.  ``unify`` runs it on two
terms or atoms, and a resolution step (``engine.head_step``) on a goal and
a clause head as written, read through the clause's renaming, so that only
the head terms the step binds are renamed.  The occurs check runs wherever
a variable is bound to a non-ground compound, but at the one occurrence of
a variable that occurs once in the clause head (``Clause.head_linear``).
Of two variables, the right-hand one, in a step the renamed head's, is
bound to the left-hand one, so an answer keeps the query's names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import is_
from typing import Optional, Union


class cached:
    """A member worked out on first read and kept in the instance ``__dict__``,
    where every later read finds it before this (non-data) descriptor.  It
    is ``functools.cached_property`` without the lock that Python 3.11's
    version takes on every first read; it writes the dict directly, so it
    serves frozen dataclasses too."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Var:
    """A logic variable, identified by name."""

    name: str


@dataclass(frozen=True)
class Compound:
    """A compound term ``f(t1,...,tn)``; constants are zero-arity compounds.

    ``ground`` says that the term holds no variable.  It is read from the
    arguments' own flags when the term is built, so it costs O(arity), and
    it takes no part in ``==``, ``hash`` or ``repr``.  An argument that is
    not a term makes the compound non-ground, so a walk still reaches it.
    ``vars_of``, ``is_ground``, substitution (``apply``, ``resolve``), the
    occurs check and ``match`` return at a ground compound: it holds no
    variable and no substitution changes it.

    ``==`` compares with ``_equal`` and ``hash`` is computed from the leaves
    up (``_hash_compound``) and cached on the instance, so neither recurses,
    and a term of any depth can be an element of a set or a dict key.  Both
    give the values the generated dataclass methods gave.  ``term_key``
    caches a ground compound's sort key on the instance the same way.

    The constructor is written out: it fills the fields straight into the
    instance dict, and so costs what the generated one did without the
    flag, where a ``__post_init__`` made building a term about 60 % dearer
    (0.44 against 0.73 µs for ``f(a, a)`` on CPython 3.11, x86-64).
    """

    functor: str
    args: tuple = ()
    ground: bool = field(init=False, compare=False, repr=False)

    def __init__(self, functor: str, args: tuple = ()):
        d = self.__dict__
        d["functor"] = functor
        d["args"] = args
        for a in args:
            if a.__class__ is not Compound or not a.ground:
                d["ground"] = False
                return
        d["ground"] = True

    def __eq__(self, other):
        if other.__class__ is not Compound:
            return NotImplemented
        return self is other or _equal(self, other)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        return _hash_compound(self) if h is None else h


Term = Union[Var, Compound]

NIL = Compound("[]")


def cons(head: Term, tail: Term) -> Compound:
    return Compound(".", (head, tail))


def make_list(items, tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


def list_items(t: Term) -> Optional[list]:
    """Elements of a proper list (a ``'[]'``-terminated ``'.'/2`` chain), else None.

    Elements may be non-ground; only the spine must be closed.
    """
    items = []
    while t.__class__ is Compound:
        if t.functor == "." and len(t.args) == 2:
            items.append(t.args[0])
            t = t.args[1]
        elif t.functor == "[]" and not t.args:
            return items
        else:
            return None
    return None


def is_list(t: Term) -> bool:
    return list_items(t) is not None


class CutAtom:
    """The control atom ``!``.  A singleton; never unified."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "!"


CUT = CutAtom()


@dataclass(frozen=True)
class Pred:
    """A predicate atom ``p(t1,...,tn)``."""

    name: str
    args: tuple = ()

    @property
    def indicator(self) -> str:
        return f"{self.name}/{len(self.args)}"


@dataclass(frozen=True)
class Clause:
    """An ordered definite clause; the body may contain cut, the head may not.
    Each property below is worked out on first use and kept."""

    head: Pred
    body: tuple = ()

    @cached
    def var_names(self) -> tuple:
        """Its variable names in first-occurrence order."""
        return tuple(vars_of(self))

    @cached
    def head_linear(self) -> frozenset:
        """The names of the variables that occur exactly once in its head: a
        resolution step binds such a variable at that occurrence without the
        occurs check (``_unify_pairs``)."""
        once, twice = set(), set()
        stack = list(self.head.args)
        while stack:
            t = stack.pop()
            if t.__class__ is Var:
                (twice if t.name in once else once).add(t.name)
            elif not t.ground:
                stack += t.args
        return frozenset(once - twice)

    @cached
    def first_cut(self) -> Optional[tuple]:
        """The body before and after its first cut, or None without a cut."""
        cut = next((i for i, b in enumerate(self.body) if b is CUT), None)
        return None if cut is None else (self.body[:cut], self.body[cut + 1:])

    @cached
    def last_cut(self) -> Optional[tuple]:
        """The body before and after its last cut, or None without a cut."""
        cut = next((i for i in reversed(range(len(self.body))) if self.body[i] is CUT), None)
        return None if cut is None else (self.body[:cut], self.body[cut + 1:])

    @cached
    def prefix(self) -> Optional[Clause]:
        """The clause cut short before its last cut, or None without a cut."""
        return None if self.last_cut is None else Clause(self.head, self.last_cut[0])


class InputError(ValueError):
    """Malformed input: a parse error, a missing level mapping, a cut where
    an atom is needed.  The CLI reports it with exit 2."""


class CutUnificationError(InputError, TypeError):
    """Raised when ``!`` is passed where a unifiable atom or term is expected."""


class CapHit(Exception):
    """A bounded search reached its cap.  The message names the cap, its
    value and, where there is one, the depth; checkers answer Unknown with it."""


# ---------------------------------------------------------------------------
# Variables and groundness
# ---------------------------------------------------------------------------


def vars_of(e) -> list:
    """Variable names of a term/atom/clause/tuple, in first-occurrence order.

    The walk keeps its own stack, so a term of any depth is fine."""
    seen: dict = {}
    stack = list(e.args[::-1]) if e.__class__ is Pred else [e]
    pop = stack.pop
    while stack:
        x = pop()
        cls = x.__class__
        if cls is Var:
            seen[x.name] = None
        elif cls is Compound:
            if not x.ground:
                stack += x.args[::-1]
        elif cls is Pred:
            stack += x.args[::-1]
        elif cls is tuple:
            stack += x[::-1]
        elif cls is Clause:
            stack.append(x.body)
            stack.append(x.head)
        elif x is not CUT:  # pragma: no cover - defensive
            raise TypeError(f"cannot collect variables from {x!r}")
    return list(seen)


def is_ground(e) -> bool:
    """Whether ``e`` holds no variable; stops at the first one found."""
    stack = [e]
    pop = stack.pop
    while stack:
        x = pop()
        cls = x.__class__
        if cls is Var:
            return False
        if cls is Compound:
            if not x.ground:
                stack += x.args
        elif cls is Pred:
            stack += x.args
        elif cls is tuple:
            stack += x
        elif cls is Clause:
            stack.append(x.body)
            stack.append(x.head)
        elif x is not CUT:  # pragma: no cover - defensive
            raise TypeError(f"cannot collect variables from {x!r}")
    return True


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


def apply(s: dict, e):
    """Apply a substitution, read as simultaneous, to a term, atom, query
    tuple, clause, or None.  An empty substitution returns ``e`` itself."""
    if not s:
        return e
    return _substitute_in(e, s, None)


def _substitute_in(e, bindings: dict, memo: Optional[dict]):
    """``_substitute`` lifted to atoms, clauses, tuples of them, and None."""
    cls = e.__class__
    if cls is Pred:
        if not e.args:
            return e
        return Pred(e.name, tuple([_substitute(a, bindings, memo) for a in e.args]))
    if cls is Var or cls is Compound:
        return _substitute(e, bindings, memo)
    if cls is tuple:
        return tuple([_substitute_in(a, bindings, memo) for a in e])
    if e is None or e is CUT:
        return e
    if cls is Clause:
        return Clause(_substitute_in(e.head, bindings, memo), _substitute_in(e.body, bindings, memo))
    raise TypeError(f"cannot apply substitution to {e!r}")


def _substitute(t: Term, bindings: dict, memo: Optional[dict]) -> Term:
    """``t`` with its bound variables replaced.

    With ``memo`` None the map is one simultaneous substitution: a variable
    is replaced by its binding as is (``apply``).  With a dict the map is
    triangular and a binding is itself resolved, once per variable: ``memo``
    keeps each variable's resolved value (``resolve``).  A subterm that does
    not change is returned as is, and a ground one is not entered.  A
    non-ground compound met again, by identity, within the call takes the
    value it got the first time, so a term that shares its subterms costs
    time in its size as a graph, not as a tree.  The walk keeps its own
    stack, so a list thousands of cells long cannot hit Python's recursion
    limit.
    """
    frames: list = []  # per compound being rebuilt: (term, resolved args, names)
    names = None  # the bound variables whose resolved value is the current term
    shared: dict = {}  # id of a non-ground compound walked -> its value
    while True:
        cls = t.__class__
        if cls is Var:
            value = bindings.get(t.name)
            if value is None:
                value = t
            elif memo is not None:
                done = memo.get(t.name)
                if done is None:
                    if names is None:
                        names = [t.name]
                    else:
                        names.append(t.name)
                    t = value
                    continue
                value = done
        elif cls is not Compound:
            raise TypeError(f"cannot apply substitution to {t!r}")
        elif not t.ground:
            value = shared.get(id(t))
            if value is None:
                frames.append((t, [], names))
                names = None
                t = t.args[0]
                continue
        else:
            value = t
        # ``value`` is finished: hand it to the enclosing frames
        while True:
            if names is not None:
                for name in names:
                    memo[name] = value
            if not frames:
                return value
            term, args, names = frames[-1]
            args.append(value)
            if len(args) < len(term.args):
                t = term.args[len(args)]
                names = None
                break
            frames.pop()
            value = term if all(map(is_, args, term.args)) else Compound(term.functor, tuple(args))
            shared[id(term)] = value


def resolve(bindings: dict, e):
    """Resolve a term, atom, clause or query tuple through a triangular
    binding map (variable name -> term that may hold bound variables,
    acyclic): the result is ``e`` under the idempotent substitution the map
    stands for."""
    return _substitute_in(e, bindings, {})


# ---------------------------------------------------------------------------
# Unification and matching
# ---------------------------------------------------------------------------


def _deref(t: Term, bindings: dict) -> Term:
    """Follow variable bindings in a triangular map until an unbound variable
    or a compound is reached."""
    while t.__class__ is Var:
        bound = bindings.get(t.name)
        if bound is None:
            return t
        t = bound
    return t


def _occurs_bound(name: str, t: Term, bindings: dict) -> bool:
    """Whether variable ``name`` occurs in ``t`` under the triangular map."""
    todo = [t]
    seen: set = set()
    while todo:
        u = todo.pop()
        if u.__class__ is Var:
            if u.name == name:
                return True
            if u.name not in seen:
                seen.add(u.name)
                bound = bindings.get(u.name)
                if bound is not None:
                    todo.append(bound)
        elif not u.ground:
            todo.extend(u.args)
    return False


def _unify_pairs(xs: list, ys: list, store: dict, rho: dict, linear: frozenset) -> Optional[dict]:
    """The one unification loop: unify ``xs[i]`` with ``ys[i]`` for every i,
    the last pair first (both lists are stacks, which the loop empties).

    The left-hand terms may hold variables bound in ``store``, a triangular
    map, and every lookup dereferences through it.  The right-hand terms are
    a clause head's arguments as written, read through the renaming ``rho``
    (``unify`` passes an empty one): a variable is renamed when the loop
    meets it, a non-ground compound is renamed only where it is bound to a
    variable, and a compound met by a compound is descended into, so a head
    that fails builds no term.  A variable's renamed name is dereferenced
    too, and where it is bound the pair holds two terms as they are; such
    pairs and those below them are kept on a stack of their own, which is
    emptied first, so the pairs are taken in the order of one stack.

    A variable on the right is bound to the left-hand term, else a variable
    on the left to the right-hand term, with the occurs check, which a
    binding to an unbound variable or to a ground compound cannot fail and
    so skips.  At the occurrence of a variable named in ``linear``, the
    variables that occur once in the head, its renamed name is bound to the
    left-hand term without the check: the name is met there first, so it
    is unbound and no left-hand term can hold it (the left-hand terms share
    no variable with the renamed head).  Met again through a binding, it is
    checked like any variable.  So of two variables a resolution step binds
    the younger, the renamed one, to the older, as the WAM does: bound the
    other way, each step on ``m(E, [E|L])`` added a link to one chain of
    variables, which every lookup then followed.

    Returns the bindings the unification adds, triangular over ``store``,
    or None; ``store`` is left as it was.  A binding to a variable that the
    same call binds later is followed to that variable's end, so the result
    holds no chain of variables of its own."""
    added: list = []  # the names bound in ``store`` by this call, in binding order
    get = store.get
    out: Optional[dict] = {}
    lefts: list = []  # the pairs of terms as they are: lefts[i] with rights[i]
    rights: list = []
    while True:
        if lefts:
            x = lefts.pop()
            y = rights.pop()
            written = False
        elif xs:
            x = xs.pop()
            y = ys.pop()
            written = True
        else:
            break
        while x.__class__ is Var:
            bound = get(x.name)
            if bound is None:
                break
            x = bound
        if written:  # ``y`` is a head term as written
            if y.__class__ is Var:
                name = y.name
                y = rho.get(name, y)
                if name in linear:
                    store[y.name] = x
                    added.append(y.name)
                    continue
            elif not y.ground:
                if x.__class__ is Var:
                    if rho:
                        y = _substitute(y, rho, None)
                    if _occurs_bound(x.name, y, store):
                        out = None
                        break
                    store[x.name] = y
                    added.append(x.name)
                elif x.functor != y.functor or len(x.args) != len(y.args):
                    out = None
                    break
                else:
                    xs += x.args[::-1]
                    ys += y.args[::-1]
                continue
        while y.__class__ is Var:
            bound = get(y.name)
            if bound is None:
                break
            y = bound
        if x is y:
            continue
        if y.__class__ is Var:
            if x.__class__ is Var:
                if x.name == y.name:
                    continue
            elif not x.ground and _occurs_bound(y.name, x, store):
                out = None
                break
            store[y.name] = x
            added.append(y.name)
        elif x.__class__ is Var:
            if not y.ground and _occurs_bound(x.name, y, store):
                out = None
                break
            store[x.name] = y
            added.append(x.name)
        elif x.functor != y.functor or len(x.args) != len(y.args):
            out = None
            break
        else:
            lefts += x.args[::-1]
            rights += y.args[::-1]
    if out is not None:
        for name in added:
            out[name] = _deref(store[name], store)
    for name in added:
        del store[name]
    return out


def unify(a, b) -> Optional[dict]:
    """Idempotent, relevant most general unifier (occurs check on), or None.

    Accepts two terms or two predicate atoms.  Passing ``!`` raises
    CutUnificationError (cut is a control construct, not a unifiable atom).
    Of two variables, the second is bound to the first: ``unify(X, Y)`` is
    ``{Y: X}``.
    The unification loop's triangular bindings are resolved into an
    idempotent map once, at the end.
    """
    if a is CUT or b is CUT:
        raise CutUnificationError("cut (!) cannot be unified")
    if isinstance(a, Pred) or isinstance(b, Pred):
        if not (isinstance(a, Pred) and isinstance(b, Pred)):
            raise TypeError("cannot unify an atom with a term")
        if a.name != b.name or len(a.args) != len(b.args):
            return None
        bindings = _unify_pairs(list(a.args[::-1]), list(b.args[::-1]), {}, {}, frozenset())
    else:
        bindings = _unify_pairs([a], [b], {}, {}, frozenset())
    if bindings is None:
        return None
    memo: dict = {}
    return {name: _substitute(t, bindings, memo) for name, t in bindings.items()}


def _equal(t, u) -> bool:
    """``t == u``, with its own stack: the dataclass ``==`` of terms recurses."""
    ts, us = [t], [u]
    while ts:
        x, y = ts.pop(), us.pop()
        if x is y:
            continue
        cls = x.__class__
        if cls is not y.__class__:
            return False
        if cls is Compound:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            ts += x.args
            us += y.args
        elif cls is Pred:
            if x.name != y.name or len(x.args) != len(y.args):
                return False
            ts += x.args
            us += y.args
        elif x != y:
            return False
    return True


def _hash_compound(t: Compound) -> int:
    """The hash the dataclass gave ``t``, ``hash((functor, args))``, cached
    on ``t`` and on every compound inside it.  Uncached arguments are hashed
    first, from the leaves up, so no call recurses."""
    stack = [t]
    while stack:
        x = stack[-1]
        d = x.__dict__
        if "_hash" in d:  # a shared subterm, already done
            stack.pop()
            continue
        todo = [a for a in x.args if a.__class__ is Compound and "_hash" not in a.__dict__]
        if todo:
            stack += todo
            continue
        stack.pop()
        d["_hash"] = hash((x.functor, x.args))
    return t.__dict__["_hash"]


def match(general, specific) -> Optional[dict]:
    """One-way matching: a substitution t with apply(t, general) == specific.

    Variables of ``specific`` are treated as constants, so t may bind a
    variable to itself, which ``apply`` ignores.  Accepts terms,
    predicate atoms, the cut atom (which only matches itself), and tuples
    of atoms (matched left to right with shared bindings).  A ground
    subterm of ``general`` is compared with ``_equal``, at no cost when both
    sides are the same object.  The walk keeps its own stack, so a term of
    any depth is fine.
    """
    if isinstance(general, tuple):
        if not isinstance(specific, tuple) or len(general) != len(specific):
            return None
        gs, ss = list(general[::-1]), list(specific[::-1])
    else:
        gs, ss = [general], [specific]
    bindings: dict = {}
    gpop, spop = gs.pop, ss.pop  # two stacks: the i-th entries are a pair still to match
    while gs:
        g = gpop()
        s = spop()
        cls = g.__class__
        if cls is Var:
            bound = bindings.get(g.name)  # a binding is a term, never None
            if bound is None and s is not CUT:
                bindings[g.name] = s
            elif bound is None or bound is not s and not _equal(bound, s):
                return None
        elif g is CUT or s is CUT:
            if g is not s:
                return None
        elif cls is Compound:
            if g.ground:  # matches only itself
                if g is not s and not _equal(g, s):
                    return None
            elif s.__class__ is not Compound or g.functor != s.functor or len(g.args) != len(s.args):
                return None
            else:
                gs += g.args[::-1]
                ss += s.args[::-1]
        elif cls is Pred:
            if s.__class__ is not Pred or g.name != s.name or len(g.args) != len(s.args):
                return None
            if g.args:
                gs += g.args[::-1]
                ss += s.args[::-1]
        else:
            raise TypeError(f"cannot match {g!r}")
    return bindings


# ---------------------------------------------------------------------------
# Renaming apart
# ---------------------------------------------------------------------------


class FreshNames:
    """A monotone counter used for deterministic fresh variable names."""

    __slots__ = ("n",)

    def __init__(self, start: int = 1):
        self.n = start


def rename_apart(clause, forbidden, fresh: Optional[FreshNames] = None):
    """A variant of a clause (or atom/query) sharing no variable with forbidden.

    Renamed variables get suffixed names (X -> X1, X2, ...) drawn from a
    monotone counter, so repeated calls with the same counter state always
    produce distinct variants.  ``forbidden`` is only read, never copied, so
    a derivation can pass its growing set of used names at constant cost.
    When no variable clashes, the input itself is returned.
    """
    return apply(renaming(vars_of(clause), forbidden, fresh or FreshNames()), clause)


def renaming(names, forbidden, fresh: FreshNames) -> dict:
    """``rename_apart``'s map for variable names in first-occurrence order:
    each name in ``forbidden`` to the first free ``{name}{n}`` of the counter."""
    taken = set(names)  # besides forbidden: the clause's names and those chosen here
    mapping = {}
    for v in names:
        if v in forbidden:
            while True:
                cand = f"{v}{fresh.n}"
                fresh.n += 1
                if cand not in forbidden and cand not in taken:
                    break
            mapping[v] = Var(cand)
            taken.add(cand)
    return mapping


def lgg(a, b):
    """Plotkin's least general generalization of two terms or two atoms: each
    distinct pair of differing subterms becomes one variable, ``G1``, ``G2``,
    ... in first-occurrence order, so positions holding the same pair share
    it.  The walk keeps its own stack, so a term of any depth is fine."""
    pairs: dict = {}  # (subterm of a, subterm of b) -> its variable
    done: list = []  # the generalizations of the pairs finished so far
    stack = [(a, b, False)]
    while stack:
        s, t, expanded = stack.pop()
        if expanded:  # its arguments are the last entries of done
            n = len(s.args)
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(Pred(s.name, args) if s.__class__ is Pred else Compound(s.functor, args))
        elif _equal(s, t):
            done.append(s)
        elif s.__class__ is t.__class__ is not Var and len(s.args) == len(t.args) and (
                s.name == t.name if s.__class__ is Pred else s.functor == t.functor):
            stack.append((s, t, True))
            stack += [(x, y, False) for x, y in zip(reversed(s.args), reversed(t.args))]
        else:
            done.append(pairs.setdefault((s, t), Var(f"G{len(pairs) + 1}")))
    return done[0]


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def term_depth(t: Term) -> int:
    """Constants and variables have depth 0; f(...) has 1 + max over args.

    The depth is the nesting level of the deepest variable or constant; the
    walk keeps its own stack."""
    deepest = 0
    stack = [(t, 0)]
    pop = stack.pop
    while stack:
        u, d = pop()
        if u.__class__ is Compound and u.args:
            d += 1
            stack += [(a, d) for a in u.args]
        elif d > deepest:
            deepest = d
    return deepest


def atom_depth(a: Pred) -> int:
    if not a.args:
        return 0
    return max(term_depth(t) for t in a.args)


def term_size(t: Term) -> int:
    """Number of constructor occurrences in a ground term; the walk keeps
    its own stack."""
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            raise ValueError("term_size requires a ground term")
        n += 1
        stack += u.args
    return n


def list_norm(t: Term) -> int:
    """|[h|t]| = 1 + |t|; any other ground term has norm 0."""
    n = 0
    while True:
        if isinstance(t, Var):
            raise ValueError("list_norm requires a ground term")
        if isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
            if not is_ground(t.args[0]):
                raise ValueError("list_norm requires a ground term")
            n += 1
            t = t.args[1]
        else:
            if not is_ground(t):
                raise ValueError("list_norm requires a ground term")
            return n


# ---------------------------------------------------------------------------
# Alphabets and ground enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """The function and predicate symbols enumeration draws from."""

    functors: tuple = ()  # of (name, arity)
    predicates: tuple = ()  # of (name, arity)

    def __post_init__(self):
        object.__setattr__(self, "functors", tuple(sorted(set(self.functors))))
        object.__setattr__(self, "predicates", tuple(sorted(set(self.predicates))))


def collect_symbols(obj, functors: set, predicates: set) -> None:
    """Accumulate the function/predicate symbols occurring in obj.

    The walk keeps its own stack, so a term of any depth is fine."""
    stack = [obj]
    pop = stack.pop
    while stack:
        x = pop()
        cls = x.__class__
        if cls is Compound:
            functors.add((x.functor, len(x.args)))
            stack += x.args
        elif cls is Pred:
            predicates.add((x.name, len(x.args)))
            stack += x.args
        elif cls is tuple or cls is list:
            stack += x
        elif cls is Clause:
            stack.append(x.body)
            stack.append(x.head)
        elif not (cls is Var or x is None or x is CUT):
            raise TypeError(f"cannot collect symbols from {x!r}")


def infer_alphabet(*objects) -> Alphabet:
    functors: set = set()
    predicates: set = set()
    for obj in objects:
        collect_symbols(obj, functors, predicates)
    return Alphabet(tuple(functors), tuple(predicates))


def merge_alphabets(a: Alphabet, b: Alphabet) -> Alphabet:
    return Alphabet(a.functors + b.functors, a.predicates + b.predicates)


def term_key(t: Term):
    """Deterministic sort key: by depth, then functor, then arguments.

    A compound's depth is read from its arguments' keys, so each subterm is
    visited once; the walk keeps its own stack.  A ground compound's key is
    cached on the instance under ``_key``, as its hash is under ``_hash``:
    the walk stops at a cached subterm and shares that subterm's key, so the
    cached keys of a term take space linear in its size."""
    frames: list = []  # per compound whose key is being built: (term, argument keys)
    while True:
        if t.__class__ is Var:
            key = (0, 0, t.name, ())
        else:
            key = t.__dict__.get("_key")
            if key is None:
                if t.args:
                    frames.append((t, []))
                    t = t.args[0]
                    continue
                t.__dict__["_key"] = key = (0, 1, t.functor, ())  # a constant is ground
        # ``key`` is finished: hand it to the enclosing frames
        while frames:
            term, keys = frames[-1]
            keys.append(key)
            if len(keys) < len(term.args):
                t = term.args[len(keys)]
                break
            frames.pop()
            key = (1 + max([k[0] for k in keys]), 1, term.functor, tuple(keys))
            if term.ground:
                term.__dict__["_key"] = key
        else:
            return key


def atom_key(a: Pred):
    return (a.name, len(a.args), tuple(term_key(t) for t in a.args))


GROUND_TERM_CAP = 50_000  # ground_terms builds no more terms than this


def ground_term_count(alphabet: Alphabet, depth: int, stop: Optional[int] = None) -> int:
    """``len(ground_terms(alphabet, depth))``, computed without building a term:
    |T<=d| = constants + sum over f/k of |T<=d-1| ** k.

    With ``stop``, the count of the first level above ``stop`` is returned
    instead: a result above ``stop`` only says that the count at ``depth``
    is above it too."""
    if depth < 0:
        return 0
    constants = sum(1 for _, k in alphabet.functors if k == 0)
    arities = [k for _, k in alphabet.functors if k > 0]
    n = constants
    for _ in range(depth):
        if stop is not None and n > stop:
            break
        below, n = n, constants + sum(n ** k for k in arities)
        if n == below:  # no compound adds a term: every deeper level is the same
            break
    return n


def ground_terms(alphabet: Alphabet, depth: int) -> tuple:
    """All ground terms of depth <= depth over the alphabet, sorted.

    The terms are built by levels: those of depth d are the compounds whose
    arguments are terms of depth < d with the first argument of depth d - 1
    at some position j, so each is built once and no term is measured.
    A level is sorted by functor and then by the positions of the arguments
    among the terms below it, already sorted, which is the order of their
    keys; each term's key is cached from its arguments' keys, as
    ``term_key`` would cache it.  Every argument of a term is itself one of
    the terms returned.  Raises CapHit, before building any, when there are
    more than ``GROUND_TERM_CAP``."""
    if ground_term_count(alphabet, depth, GROUND_TERM_CAP) > GROUND_TERM_CAP:
        raise CapHit(f"ground term cap {GROUND_TERM_CAP} hit at depth {depth}")
    if depth < 0:
        return ()
    older: list = []  # the terms of depth < d - 1
    last = sorted((Compound(n) for n, k in alphabet.functors if k == 0), key=term_key)
    nonconst = [(n, k) for n, k in alphabet.functors if k > 0]
    for d in range(1, depth + 1):
        below = older + last
        rank = {id(t): i for i, t in enumerate(below)}
        level = []
        for name, k in nonconst:
            for j in range(k):
                for args in itertools.product(*[older] * j, last, *[below] * (k - 1 - j)):
                    level.append(Compound(name, args))
        level.sort(key=lambda t: (t.functor, [rank[id(a)] for a in t.args]))
        for t in level:
            t.__dict__["_key"] = (d, 1, t.functor, tuple([a.__dict__["_key"] for a in t.args]))
        older, last = below, level
    return tuple(older + last)


def ground_atoms(alphabet: Alphabet, depth: int, terms: Optional[tuple] = None) -> tuple:
    """All ground atoms with argument depth <= depth, sorted; their arguments
    are drawn from ``terms`` when given, which must be ``ground_terms`` of
    the alphabet and depth.

    The atoms are built in ``atom_key`` order, so none is compared: the
    predicates are sorted by name and arity, ``terms`` by ``term_key``, with
    no two keys equal, and ``itertools.product`` yields the argument tuples
    in the lexicographic order of their positions in ``terms``."""
    if terms is None:
        terms = ground_terms(alphabet, depth) if any(k for _, k in alphabet.predicates) else ()
    out = []
    for name, k in alphabet.predicates:
        if k == 0:
            out.append(Pred(name))
        else:
            for args in itertools.product(terms, repeat=k):
                out.append(Pred(name, args))
    return tuple(out)


def most_general_atom(name: str, arity: int) -> Pred:
    return Pred(name, tuple(Var(f"V{i + 1}") for i in range(arity)))
