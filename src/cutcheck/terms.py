"""First-order terms, atoms, substitutions, unification, and ground enumeration.

Terms are immutable values: variables and compounds (constants are zero-arity
compounds).  Atoms are predicate applications plus the special control atom
``!`` (cut), which is consumed by the derivation engine and never unified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union


@dataclass(frozen=True)
class Var:
    """A logic variable, identified by name."""

    name: str


@dataclass(frozen=True)
class Compound:
    """A compound term ``f(t1,...,tn)``; constants are zero-arity compounds."""

    functor: str
    args: tuple = ()


Term = Union[Var, Compound]

NIL = Compound("[]")


def const(name: str) -> Compound:
    return Compound(name)


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
    while True:
        if t == NIL:
            return items
        if isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
            items.append(t.args[0])
            t = t.args[1]
        else:
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


Atom = Union[Pred, CutAtom]


@dataclass(frozen=True)
class Clause:
    """An ordered definite clause; the body may contain cut, the head may not."""

    head: Pred
    body: tuple = ()


class CutUnificationError(TypeError):
    """Raised when ``!`` is passed where a unifiable atom or term is expected."""


# ---------------------------------------------------------------------------
# Variables and groundness
# ---------------------------------------------------------------------------


def vars_of(e) -> list:
    """Variable names of a term/atom/clause/tuple, in first-occurrence order."""
    seen: dict = {}

    def walk(x):
        if isinstance(x, Var):
            seen.setdefault(x.name, None)
        elif isinstance(x, Compound):
            for a in x.args:
                walk(a)
        elif isinstance(x, Pred):
            for a in x.args:
                walk(a)
        elif isinstance(x, Clause):
            walk(x.head)
            walk(x.body)
        elif isinstance(x, tuple):
            for a in x:
                walk(a)
        elif x is CUT:
            pass
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot collect variables from {x!r}")

    walk(e)
    return list(seen)


def is_ground(e) -> bool:
    return not vars_of(e)


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


class Subst:
    """An immutable substitution: a finite map from variable names to terms.

    Identity bindings are dropped on construction, so the domain is exactly
    the set of variables the substitution moves.
    """

    __slots__ = ("_b",)

    def __init__(self, bindings=None):
        b = dict(bindings) if bindings else {}
        self._b = {k: v for k, v in b.items() if v != Var(k)}

    def get(self, name, default=None):
        return self._b.get(name, default)

    def __getitem__(self, name):
        return self._b[name]

    def __contains__(self, name):
        return name in self._b

    def __iter__(self):
        return iter(self._b)

    def __len__(self):
        return len(self._b)

    def __eq__(self, other):
        return isinstance(other, Subst) and self._b == other._b

    def __repr__(self):
        inner = ", ".join(f"{k}/{v!r}" for k, v in sorted(self._b.items()))
        return "{" + inner + "}"

    def items(self):
        return self._b.items()

    @property
    def domain(self) -> set:
        return set(self._b)

    @property
    def range_vars(self) -> set:
        out: set = set()
        for v in self._b.values():
            out.update(vars_of(v))
        return out

    def is_idempotent(self) -> bool:
        return not (self.domain & self.range_vars)

    def restrict(self, names) -> "Subst":
        names = set(names)
        return Subst({k: v for k, v in self._b.items() if k in names})


EMPTY_SUBST = Subst()


def apply(s: Subst, e):
    """Apply a substitution to a term, atom, query tuple, clause, or None."""
    if e is None:
        return None
    if isinstance(e, Var):
        return s.get(e.name, e)
    if isinstance(e, Compound):
        if not e.args:
            return e
        return Compound(e.functor, tuple(apply(s, a) for a in e.args))
    if e is CUT:
        return e
    if isinstance(e, Pred):
        if not e.args:
            return e
        return Pred(e.name, tuple(apply(s, a) for a in e.args))
    if isinstance(e, Clause):
        return Clause(apply(s, e.head), apply(s, e.body))
    if isinstance(e, tuple):
        return tuple(apply(s, a) for a in e)
    raise TypeError(f"cannot apply substitution to {e!r}")


def compose(s: Subst, t: Subst) -> Subst:
    """The substitution mapping each X to ``apply(t, apply(s, X))``."""
    out = {k: apply(t, v) for k, v in s.items()}
    for k, v in t.items():
        if k not in out:
            out[k] = v
    return Subst(out)


def occurs(name: str, t: Term) -> bool:
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, Compound):
        return any(occurs(name, a) for a in t.args)
    return False


# ---------------------------------------------------------------------------
# Unification and matching
# ---------------------------------------------------------------------------


def _unify_pairs(pairs) -> Optional[Subst]:
    sigma = EMPTY_SUBST
    stack = list(reversed(pairs))
    while stack:
        x, y = stack.pop()
        x = apply(sigma, x)
        y = apply(sigma, y)
        if x == y:
            continue
        if isinstance(x, Var):
            if occurs(x.name, y):
                return None
            sigma = compose(sigma, Subst({x.name: y}))
        elif isinstance(y, Var):
            if occurs(y.name, x):
                return None
            sigma = compose(sigma, Subst({y.name: x}))
        elif isinstance(x, Compound) and isinstance(y, Compound):
            if x.functor != y.functor or len(x.args) != len(y.args):
                return None
            stack.extend(reversed(list(zip(x.args, y.args))))
        else:  # pragma: no cover - defensive
            return None
    return sigma


def unify(a, b) -> Optional[Subst]:
    """Idempotent, relevant most general unifier (occurs check on), or None.

    Accepts two terms or two predicate atoms.  Passing ``!`` raises
    CutUnificationError (cut is a control construct, not a unifiable atom).
    """
    if a is CUT or b is CUT:
        raise CutUnificationError("cut (!) cannot be unified")
    if isinstance(a, Pred) or isinstance(b, Pred):
        if not (isinstance(a, Pred) and isinstance(b, Pred)):
            raise TypeError("cannot unify an atom with a term")
        if a.name != b.name or len(a.args) != len(b.args):
            return None
        return _unify_pairs(list(zip(a.args, b.args)))
    return _unify_pairs([(a, b)])


def match(general, specific) -> Optional[Subst]:
    """One-way matching: a substitution t with apply(t, general) == specific.

    Variables of ``specific`` are treated as constants.  Accepts terms,
    predicate atoms, the cut atom (which only matches itself), and tuples
    of atoms (matched left to right with shared bindings).
    """
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
            return Subst(bindings)
        return None
    return Subst(bindings) if go(general, specific) else None


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
    produce distinct variants.
    """
    if fresh is None:
        fresh = FreshNames()
    forbidden = set(forbidden)
    own = vars_of(clause)
    taken = forbidden | set(own)
    mapping = {}
    for v in own:
        if v in forbidden:
            while True:
                cand = f"{v}{fresh.n}"
                fresh.n += 1
                if cand not in taken:
                    break
            mapping[v] = Var(cand)
            taken.add(cand)
    return apply(Subst(mapping), clause)


def canonical(e):
    """Rename variables to V1, V2, ... in first-occurrence order."""
    mapping = {v: Var(f"V{i + 1}") for i, v in enumerate(vars_of(e))}
    return apply(Subst(mapping), e)


def variant_equal(a, b) -> bool:
    """True when two terms/atoms/queries are equal up to variable renaming."""
    return canonical(a) == canonical(b)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def term_depth(t: Term) -> int:
    """Constants and variables have depth 0; f(...) has 1 + max over args."""
    if isinstance(t, Var):
        return 0
    if not t.args:
        return 0
    return 1 + max(term_depth(a) for a in t.args)


def atom_depth(a: Pred) -> int:
    if not a.args:
        return 0
    return max(term_depth(t) for t in a.args)


def term_size(t: Term) -> int:
    """Number of constructor occurrences in a ground term."""
    if isinstance(t, Var):
        raise ValueError("term_size requires a ground term")
    return 1 + sum(term_size(a) for a in t.args)


def list_length(t: Term) -> int:
    """Length of a ground proper list; raises ValueError otherwise."""
    if not is_ground(t):
        raise ValueError("list_length requires a ground term")
    items = list_items(t)
    if items is None:
        raise ValueError("list_length requires a proper list")
    return len(items)


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
    """Accumulate the function/predicate symbols occurring in obj."""
    if obj is None or obj is CUT:
        return
    if isinstance(obj, Var):
        return
    if isinstance(obj, Compound):
        functors.add((obj.functor, len(obj.args)))
        for a in obj.args:
            collect_symbols(a, functors, predicates)
        return
    if isinstance(obj, Pred):
        predicates.add((obj.name, len(obj.args)))
        for a in obj.args:
            collect_symbols(a, functors, predicates)
        return
    if isinstance(obj, Clause):
        collect_symbols(obj.head, functors, predicates)
        collect_symbols(obj.body, functors, predicates)
        return
    if isinstance(obj, (tuple, list)):
        for x in obj:
            collect_symbols(x, functors, predicates)
        return
    raise TypeError(f"cannot collect symbols from {obj!r}")


def infer_alphabet(*objects) -> Alphabet:
    functors: set = set()
    predicates: set = set()
    for obj in objects:
        collect_symbols(obj, functors, predicates)
    return Alphabet(tuple(functors), tuple(predicates))


def merge_alphabets(a: Alphabet, b: Alphabet) -> Alphabet:
    return Alphabet(a.functors + b.functors, a.predicates + b.predicates)


def term_key(t: Term):
    """Deterministic sort key: by depth, then functor, then arguments."""
    if isinstance(t, Var):
        return (0, 0, t.name, ())
    return (term_depth(t), 1, t.functor, tuple(term_key(a) for a in t.args))


def atom_key(a: Pred):
    return (a.name, len(a.args), tuple(term_key(t) for t in a.args))


@lru_cache(maxsize=256)
def ground_terms(alphabet: Alphabet, depth: int) -> tuple:
    """All ground terms of depth <= depth over the alphabet, sorted."""
    if depth < 0:
        return ()
    current = [Compound(n) for n, k in alphabet.functors if k == 0]
    nonconst = [(n, k) for n, k in alphabet.functors if k > 0]
    for d in range(1, depth + 1):
        prev = list(current)
        for name, k in nonconst:
            for args in itertools.product(prev, repeat=k):
                if max(term_depth(a) for a in args) == d - 1:
                    current.append(Compound(name, args))
    return tuple(sorted(current, key=term_key))


def enumerate_ground(alphabet: Alphabet, depth: int) -> Iterator[Term]:
    """Deterministically enumerate ground terms of depth <= depth."""
    return iter(ground_terms(alphabet, depth))


@lru_cache(maxsize=256)
def ground_atoms(alphabet: Alphabet, depth: int) -> tuple:
    """All ground atoms with argument depth <= depth, sorted."""
    terms = ground_terms(alphabet, depth)
    out = []
    for name, k in alphabet.predicates:
        if k == 0:
            out.append(Pred(name))
        else:
            for args in itertools.product(terms, repeat=k):
                out.append(Pred(name, args))
    return tuple(sorted(out, key=atom_key))


def most_general_atom(name: str, arity: int) -> Pred:
    return Pred(name, tuple(Var(f"V{i + 1}") for i in range(arity)))
