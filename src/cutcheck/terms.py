"""First-order terms, atoms, substitutions, unification, and ground enumeration.

Terms are immutable values: variables and compounds (constants are zero-arity
compounds).  Atoms are predicate applications plus the special control atom
``!`` (cut), which is consumed by the derivation engine and never unified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import is_
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
    return _substitute_in(e, s._b, None)


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
    not change is returned as is.  The walk keeps its own stack, so a list
    thousands of cells long cannot hit Python's recursion limit.
    """
    frames: list = []  # per compound being rebuilt: (term, resolved args, names)
    names = None  # the bound variables whose resolved value is the current term
    while True:
        if t.__class__ is Var:
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
        elif t.args:
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
            if not all(map(is_, args, term.args)):
                term = Compound(term.functor, tuple(args))
            value = term


def resolve(bindings: dict, e):
    """Resolve a term, atom or query tuple through a triangular binding map
    (variable name -> term that may hold bound variables, acyclic): the
    result is ``e`` under the idempotent substitution the map stands for."""
    return _substitute_in(e, bindings, {})


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
        else:
            todo.extend(u.args)
    return False


def _unify_pairs(pairs) -> Optional[Subst]:
    """Unify pairs left to right with triangular bindings: a variable is bound
    to a term that may itself contain bound variables, and every lookup
    dereferences.  The map is resolved into an idempotent Subst once, at the
    end."""
    bindings: dict = {}
    stack = list(reversed(pairs))
    while stack:
        x, y = stack.pop()
        x = _deref(x, bindings)
        y = _deref(y, bindings)
        if x is y:
            continue
        if x.__class__ is Var:
            if y.__class__ is Var and y.name == x.name:
                continue
            if _occurs_bound(x.name, y, bindings):
                return None
            bindings[x.name] = y
        elif y.__class__ is Var:
            if _occurs_bound(y.name, x, bindings):
                return None
            bindings[y.name] = x
        else:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return None
            stack.extend(reversed(list(zip(x.args, y.args))))
    memo: dict = {}
    return Subst({name: _substitute(t, bindings, memo) for name, t in bindings.items()})


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
    produce distinct variants.  ``forbidden`` is only read, never copied, so
    a derivation can pass its growing set of used names at constant cost.
    """
    if fresh is None:
        fresh = FreshNames()
    own = vars_of(clause)
    taken = set(own)  # besides forbidden: the clause's names and those chosen here
    mapping = {}
    for v in own:
        if v in forbidden:
            while True:
                cand = f"{v}{fresh.n}"
                fresh.n += 1
                if cand not in forbidden and cand not in taken:
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
