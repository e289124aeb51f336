"""Mechanical checks for declarative properties of programs with cut.

All universally quantified conditions are checked by bounded enumeration and
reported three-valued: Refuted always carries a replayable witness, Unknown
names the exhausted bound, and Verified (for universal checks) means no
counterexample exists within the stated bound.  A pattern-unification
strategy handles the non-ground quantification where it can; bounded ground
search backs it up so failures come with concrete witnesses.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from .atomsets import (
    UNIVERSAL,
    AtomPattern,
    AtomSet,
    CapHit,
    GUARDS,
    Guard,
    TermPool,
    contains,
    enumerate_atoms,
    membership_reads,
    possibly_contains,
    seeds,
    set_predicates,
)
from .engine import Program
from .levels import level_of, level_reads
from .pruning import PrunedTree, pruned_tree
from .syntax import (
    SpecSuite,
    atom_text,
    clause_text,
    query_text,
    resolve_alphabet,
    rule_text,
    subst_text,
)
from .terms import (
    CUT,
    Clause,
    Compound,
    FreshNames,
    InputError,
    Pred,
    Var,
    apply,
    is_ground,
    lgg,
    match,
    most_general_atom,
    rename_apart,
    renaming,
    resolve,
    term_key,
    term_size,
    unify,
    vars_of,
)
from .verdicts import Verdict, weakest

INSTANCE_CAP = 50_000  # ground instances one grounding or instance search builds
VISIT_CAP = 50_000  # goals one cover search visits, and candidates it enumerates per goal
_BRANCH_CAP = 512  # pattern branches the well-asserted check follows per clause
SLICE_CAP = 1_024  # symbols, summed over its atoms, that one c-coverage closure adds to its roots


class _CheckContext:
    """One check's program, query and spec suite, its alphabet, depth bound
    and set resolver, and the memos its searches share.

    Each public checker builds one on entry from its program, its query
    (``()`` for a query-free check) and the spec suite, by one rule: the
    alphabet is ``resolve_alphabet`` of the three; the depth is the suite's
    ``budget.depth``; the resolver is the suite's.  Every stage reads the
    program, the query and the suite's sets from the context.  A set is an
    argument only where some caller passes one that is not the suite's: the
    set a cover search runs over (``_CoverSearch``), the pre and post of
    ``_well_asserted``, which the query's check extends by a marker, and the
    set ``_level_decrease`` reads prefixes in.

    The memos: the pool of ground terms up to the depth (``pool``, a
    ``TermPool``: every enumeration draws its values from it, so equal terms
    of the check are one object), each enumeration of a set, keyed by the
    set, the cap and the predicate (``enumerate``), the atoms of the last
    set a pass over all of it enumerated, which ``_covering_instance`` looks
    ground body atoms up in (``in_set``), the text of each clause seen
    (``clause_text``, kept by the clause's id beside the clause itself, so
    the id is not reused while the context lives), the texts of ground atom
    arguments (``texts``, as ``atom_text`` reads it).  None of them outlives
    the context.  What a clause alone determines, its cut splits and the
    clause cut short before its last cut, the clause keeps itself.
    """

    def __init__(self, program: Program, query: tuple, suite: SpecSuite):
        self.program = program
        self.query = query
        self.suite = suite
        self.alphabet = resolve_alphabet(program, query, suite)
        self.depth = suite.budget.depth
        self.resolver = suite.resolver
        self.pool = TermPool(self.alphabet, self.depth)
        self._members: tuple = (None, frozenset())  # (a set, its atoms up to the depth)
        self.texts: dict = {}  # ground term -> its text
        self._clause_texts: dict = {}  # id(clause) -> (the clause, its text)
        self._computed: dict = {}  # key -> the value computed, or the CapHit it raised

    def _once(self, key, compute):
        """``compute()`` for the first call with ``key``; every call returns
        its value, or raises the CapHit it raised."""
        if key not in self._computed:
            try:
                self._computed[key] = compute()
            except CapHit as exc:
                self._computed[key] = exc
        value = self._computed[key]
        if isinstance(value, CapHit):
            raise value.with_traceback(None)  # no frames pile up on the kept exception
        return value

    def enumerate(self, s: AtomSet, cap: Optional[int] = None, predicate=None) -> list:
        """``enumerate_atoms`` of ``s`` over the context's alphabet, depth,
        resolver and pool."""
        return self._once((s, cap, predicate), lambda: enumerate_atoms(
            s, self.alphabet, self.depth, self.resolver, cap, predicate=predicate,
            pool=self.pool))

    def members(self, s: AtomSet) -> list:
        """``enumerate(s)``, for a pass over every atom of ``s``: from then on
        ``in_set`` looks atoms up in them."""
        atoms = self.enumerate(s)
        if self._members[0] is not s:
            self._members = (s, frozenset(atoms))
        return atoms

    def in_set(self, s: AtomSet, a: Pred) -> bool:
        """Whether the ground atom ``a`` lies in ``s``: a lookup among the
        atoms ``members`` enumerated, else ``contains``."""
        known, atoms = self._members
        return (known is s and a in atoms) or contains(s, a, self.resolver)

    def atom_text(self, a: Pred) -> str:
        return atom_text(a, self.texts)

    def clause_text(self, c: Clause) -> str:
        if id(c) not in self._clause_texts:
            self._clause_texts[id(c)] = (c, clause_text(c))
        return self._clause_texts[id(c)][1]


# ---------------------------------------------------------------------------
# Ground search for body instantiations inside a set
# ---------------------------------------------------------------------------


def _groundings(sigma: dict, names, ctx: _CheckContext, read=None):
    """Extend sigma with every depth-bounded grounding of the names it leaves
    free, in product order.  Only the names in ``read`` (every name when it
    is None) vary; the others stay at the first ground term.  Raises CapHit
    instead of yielding grounding ``INSTANCE_CAP + 1``.

    A check whose outcome does not depend on the names outside ``read``
    finds the same first counterexample as over the full product: that one
    has every such name at the first ground term.  Every one of ``names``
    comes out bound to a pool term, so a term whose other variables sigma
    binds to ground terms (as a cover search's solutions do) is ground under
    each grounding.
    """
    names = [n for n in names if n not in sigma]
    if not names:
        yield sigma
        return
    terms = ctx.pool.terms()
    if not terms:
        return
    vary = names if read is None else [n for n in names if n in read]
    first = {**sigma, **dict.fromkeys(names, terms[0])}
    cap = INSTANCE_CAP
    for count, combo in enumerate(itertools.product(terms, repeat=len(vary)), 1):
        if count > cap:
            raise CapHit(f"instance cap {cap} hit at depth {ctx.depth}")
        theta = dict(first)
        theta.update(zip(vary, combo))
        yield theta


def _check_groundings(names, ctx: _CheckContext) -> None:
    """Raise the CapHit that grounding every one of ``names`` with
    ``_groundings`` would raise once it passed ``INSTANCE_CAP``, before any
    grounding is built."""
    if names and len(ctx.pool.terms()) ** len(names) > INSTANCE_CAP:
        raise CapHit(f"instance cap {INSTANCE_CAP} hit at depth {ctx.depth}")


class _CoverSearch:
    """Ground the non-cut atoms of a goal list inside an atom set.

    Solutions are triangular substitutions sigma, read with ``resolve``,
    with every instantiated atom ground and a member of the set.
    ``exhaustive`` stays True only when every candidate source was
    complete: the listed atoms of a goal's predicate are, when the set is
    not universal and has no pattern of that predicate; otherwise the set is
    enumerated up to the depth bound.  Raises CapHit past
    ``VISIT_CAP`` visits, or when a candidate enumeration passes
    ``VISIT_CAP``.
    """

    def __init__(self, s: AtomSet, ctx: _CheckContext):
        self.s = s
        self.ctx = ctx
        self.exhaustive = True
        self.visits = 0

    def _candidates(self, atom: Pred):
        key = (atom.name, len(atom.args))
        s = self.s
        if not s.universal and all((p.template.name, len(p.template.args)) != key
                                   for p in s.patterns):
            return [a for a in s.atoms if (a.name, len(a.args)) == key]
        self.exhaustive = False
        return self.ctx.enumerate(s, VISIT_CAP, key)

    def _visit(self) -> None:
        """Count one visit: each goal reached, and the end of a goal list."""
        self.visits += 1
        if self.visits > VISIT_CAP:
            raise CapHit(f"cover search visit cap {VISIT_CAP} hit at depth {self.ctx.depth}")

    def solutions(self, goals: tuple, sigma: dict):
        """Yield substitutions grounding the goals inside the set.

        Leading ground goals are probed in a loop, so a ground body costs one
        ``ctx.in_set`` per atom."""
        goals = tuple(g for g in goals if g is not CUT)
        i = 0
        while True:
            self._visit()
            if i == len(goals):
                yield sigma
                return
            atom = resolve(sigma, goals[i])
            if not is_ground(atom):
                break
            if not self.ctx.in_set(self.s, atom):
                return
            i += 1
        for cand in self._candidates(atom):
            theta = unify(atom, cand)
            if theta is None:
                continue
            yield from self.solutions(goals[i + 1:], {**sigma, **theta})


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

# Verdicts that do not depend on the atom, shared by every atom of a loop
_VERIFIED = Verdict.verified()
_NO_CUT = Verdict.verified("clause has no cut")
_NO_PRECEDING = Verdict.verified("no preceding clauses")
_PRECEDING_NO_CUT = Verdict.verified("preceding clause has no cut")


def _covering_instance(a: Pred, clause: Clause, theta: Optional[dict],
                       ctx: _CheckContext) -> tuple:
    """Search a ground instance of the clause with head ``a`` and body in S + {!}.

    ``a`` must be ground, so it shares no variable with the clause and the
    instance has ``a`` itself as its head; ``theta`` is
    ``match(clause.head, a)``.  A body that ``theta`` grounds is probed atom
    by atom with ``ctx.in_set``, as the cover search would probe it, with no
    search built, unless its atoms reach the search's visit cap.  Returns
    ``("verified", instance)`` when one
    is found, ``("refuted", note)`` when none exists (the head does not
    match, or the search was exhaustive), and ``("unknown", reason)`` when a
    bound stopped it.
    """
    if theta is None:
        return "refuted", "head does not match"
    s = ctx.suite.s
    body = apply(theta, clause.body)
    goals = [b for b in body if b is not CUT]
    if len(goals) < VISIT_CAP and is_ground(body):  # the search would probe each goal
        if all(ctx.in_set(s, b) for b in goals):
            return "verified", Clause(a, body)
        return "refuted", "no ground body instance in the set"
    search = _CoverSearch(s, ctx)
    try:
        for sol in search.solutions(body, {}):
            instance = Clause(a, resolve(sol, body))
            if is_ground(instance):
                return "verified", instance
    except CapHit as exc:
        return "unknown", str(exc)
    if search.exhaustive:
        return "refuted", "no ground body instance in the set"
    return "unknown", f"cover search exhausted depth {ctx.depth}"


def _cover_verdict(a: Pred, clause: Clause, theta: Optional[dict], ctx: _CheckContext,
                   bodies: list) -> Verdict:
    """Is the ground atom ``a`` the head of a ground instance of the clause
    with body in S + {!}, given ``theta = match(clause.head, a)``?

    Verified comes with the witnessing ground instance; Refuted is definite
    when the search space was exhausted, otherwise Unknown names the bound.
    When it is Verified, the covering instance's body is appended to
    ``bodies``."""
    status, found = _covering_instance(a, clause, theta, ctx)
    if status == "unknown":
        return Verdict.unknown(found)
    text = ctx.atom_text(a)
    if status == "verified":
        bodies.append(found.body)
        instance = rule_text(text, found.body, ctx.texts)
        return Verdict("verified", {"atom": text, "instance": instance}, None, ())
    return Verdict.refuted({"atom": text, "clause": ctx.clause_text(clause), "note": found})


def semi_complete(program: Program, suite: SpecSuite) -> Verdict:
    """Every enumerated atom of S must be covered by some clause w.r.t. S."""
    ctx = _CheckContext(program, (), suite)
    try:
        atoms = ctx.members(suite.s)
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    per_atom = []
    for a in atoms:
        text = ctx.atom_text(a)
        verdict = None  # the first Unknown, until some clause covers the atom
        for idx, c in program.matching(a):
            status, found = _covering_instance(a, c, match(c.head, a), ctx)
            if status == "verified":
                verdict = _VERIFIED
                break
            if status == "unknown" and verdict is None:
                verdict = Verdict.unknown(found)
        per_atom.append((text, verdict or Verdict.refuted({"atom": text, "note": "not covered"})))
    return weakest([v for _, v in per_atom], tuple(per_atom))


def correct_check(program: Program, suite: SpecSuite) -> Verdict:
    """Model check: each ground clause instance with body in S + {!} has its head in S.

    The cover search grounds the body; of the variables left, only those
    the head's membership in S reads are enumerated."""
    return _correct_check(_CheckContext(program, (), suite))


def _correct_check(ctx: _CheckContext) -> Verdict:
    s = ctx.suite.s
    bounded = False
    capped = None  # the reason, once a clause's search stopped at a cap
    for clause in ctx.program.clauses:
        search = _CoverSearch(s, ctx)
        read = membership_reads(s, clause.head)
        try:
            for sol in search.solutions(clause.body, {}):
                for full in _groundings(sol, vars_of(clause), ctx, read):
                    head = resolve(full, clause.head)
                    if not contains(s, head, ctx.resolver):
                        return Verdict.refuted(
                            {
                                "clause": clause_text(clause),
                                "instance": clause_text(resolve(full, clause)),
                                "head": atom_text(head),
                            },
                            "ground instance with true body but false head",
                        )
                if vars_of(resolve(sol, clause.head)):
                    bounded = True
        except CapHit as exc:
            capped = str(exc)  # later clauses can still refute
        if not search.exhaustive:
            bounded = True
    if capped:
        return Verdict.unknown(capped)
    reason = f"no counterexample within depth {ctx.depth}" + (" (bounded)" if bounded else "")
    return Verdict.verified(reason)


# ---------------------------------------------------------------------------
# Well-asserted clauses and queries (call/success specifications)
# ---------------------------------------------------------------------------


def _guard_facts(guard: Guard, env: dict, facts: dict, resolver):
    """The match ``env`` refined by a *holding* guard, with what the guard
    tells of the variables of the matched term added to ``facts``; None when
    no instance can satisfy the guard.

    A guard with facts (``GUARDS``) marks its argument: ``ground`` marks
    every variable in it, and ``list`` the variable that ends its list
    spine, or drops the branch when the spine ends in a non-list.  ``eq``
    refines the match by the unifier of its sides.  Any other guard drops
    the branch only when its arguments are ground and its ground test fails,
    and one that reads a named set (``notin``) tells nothing.
    """
    kind = GUARDS[guard.name]
    args = [resolve(env, a) for a in guard.terms]
    if kind.facts:
        if "ground" in kind.facts:
            for v in vars_of(args[0]):
                facts.setdefault(v, set()).add("ground")
        if "list" in kind.facts:
            t = args[0]
            while isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
                t = t.args[1]
            if isinstance(t, Var):
                facts.setdefault(t.name, set()).add("list")
            elif not (isinstance(t, Compound) and t.functor == "[]" and not t.args):
                return None
        return env
    if guard.name == "eq":  # the one guard whose facts are a unifier
        theta = unify(args[0], args[1])
        return None if theta is None else {**env, **theta}
    if ("set" not in kind.signature and all(is_ground(t) for t in args)
            and not kind.test(guard, args, None, resolver)):
        return None
    return env


def _membership_branches(atom: Pred, s: AtomSet, sigma: dict, facts: dict, forbidden: set,
                         fresh: FreshNames, resolver):
    """Over-approximate the instances whose ``atom`` lies in ``s``.

    Returns a list of (sigma', facts') branches such that every instance with
    the atom in the set is an instance of some branch.  ``forbidden`` must
    hold every variable of the clause and of the pattern variants used so
    far; it is extended with those of each variant used here, so a guard
    fact never lands on a clause variable not yet reached.
    """
    at = resolve(sigma, atom)
    out = [(sigma, facts)] if s.universal else []
    for m in s.atoms:
        if (m.name, len(m.args)) != (at.name, len(at.args)):
            continue
        theta = unify(at, m)
        if theta is not None:
            out.append(({**sigma, **theta}, facts))
    for p in s.patterns:
        if (p.template.name, len(p.template.args)) != (at.name, len(at.args)):
            continue
        variant_pattern = _rename_pattern(p, forbidden, fresh)
        theta = unify(at, variant_pattern.template)
        if theta is None:
            continue
        new_facts = {k: set(v) for k, v in facts.items()}
        refined = theta
        for g in variant_pattern.guards:
            refined = _guard_facts(g, refined, new_facts, resolver)
            if refined is None:
                break
        else:
            out.append(({**sigma, **refined}, new_facts))
    return out


def _rename_pattern(p: AtomPattern, forbidden: set, fresh: FreshNames) -> AtomPattern:
    """A variant of ``p`` sharing no variable with ``forbidden``, which is
    extended with the variant's variables."""
    own = vars_of((p.template,) + tuple(t for g in p.guards for t in g.terms))
    mapping = renaming(own, forbidden, fresh)
    forbidden.update(own)
    forbidden.update(r.name for r in mapping.values())
    guards = tuple(
        Guard(g.name, tuple(a if isinstance(a, str) else apply(mapping, a) for a in g.args))
        for g in p.guards
    )
    return AtomPattern(apply(mapping, p.template), guards)


def _entailed_member(atom, s, sigma: dict, facts: dict, resolver) -> bool:
    frozen = {k: frozenset(v) for k, v in facts.items()}
    return contains(s, resolve(sigma, atom), resolver, frozen)


def _ground_refute_well_asserted(clause: Clause, k: Optional[int], pre, post,
                                 ctx: _CheckContext):
    """Bounded ground search for an instance violating one implication.

    ``k`` is the index of the body atom that must be in pre (prefix in post);
    ``k is None`` checks the head-in-post condition with the full body.
    Returns a witness dict or None; raises CapHit once more than
    ``INSTANCE_CAP`` instances, counted over all heads together, were searched.
    """
    cap = INSTANCE_CAP
    resolver = ctx.resolver
    heads = ctx.enumerate(pre, cap, (clause.head.name, len(clause.head.args)))
    prefix = clause.body[:k] if k is not None else clause.body
    thetas = (unify(clause.head, h) for h in heads)
    instances = (
        resolve(full, clause)
        for theta in thetas
        if theta is not None
        for full in _groundings(theta, vars_of(clause), ctx)
    )
    for count, instance in enumerate(instances, 1):
        if count > cap:
            raise CapHit(f"instance cap {cap} hit at depth {ctx.depth}")
        if not all(
            b is CUT or contains(post, b, resolver)
            for b in instance.body[: len(prefix)]
        ):
            continue
        if k is not None:
            target = instance.body[k]
            if target is not CUT and not contains(pre, target, resolver):
                return {
                    "clause": clause_text(clause),
                    "instance": clause_text(instance),
                    "position": k + 1,
                    "atom": atom_text(target),
                    "note": "body atom outside pre despite prefix in post",
                }
        else:
            if not contains(post, instance.head, resolver):
                return {
                    "clause": clause_text(clause),
                    "instance": clause_text(instance),
                    "atom": atom_text(instance.head),
                    "note": "head outside post despite body in post",
                }
    return None


def _well_asserted(clause: Clause, pre, post, ctx: _CheckContext) -> Verdict:
    """Check one clause against the call/success specification (pre, post).

    For every instance with the head in pre: each body atom whose earlier
    body atoms all lie in post + {!} must lie in pre + {!}, and if the whole
    body lies in post + {!} the head must lie in post.

    When the pattern branches pass ``_BRANCH_CAP``, the walk stops: every
    implication it did not establish, checked or not, goes to the ground
    search, and the verdict is Unknown naming the branch cap only if that
    search refutes none.
    """
    resolver = ctx.resolver
    fresh = FreshNames()
    forbidden = set(vars_of(clause))
    head_branches = _membership_branches(clause.head, pre, {}, {}, forbidden, fresh, resolver)
    if not head_branches:
        return Verdict.verified("head cannot satisfy pre (vacuous)")
    branches = head_branches
    # implications the patterns could not establish: a body position, or None for the head
    failing: list = []
    branch_capped = None
    for k, b in enumerate(clause.body):
        if b is not CUT:
            if not all(_entailed_member(b, pre, sg, facts, resolver) for sg, facts in branches):
                failing.append(k)
            next_branches: list = []
            for sigma, facts in branches:
                next_branches.extend(
                    _membership_branches(b, post, sigma, facts, forbidden, fresh, resolver)
                )
            branches = next_branches
            if len(branches) > _BRANCH_CAP:
                branch_capped = f"branch cap {_BRANCH_CAP} hit"
                later = range(k + 1, len(clause.body))
                failing += [j for j in later if clause.body[j] is not CUT] + [None]
                break
    else:
        if not all(_entailed_member(clause.head, post, sg, facts, resolver)
                   for sg, facts in branches):
            failing.append(None)
    if not failing:
        return Verdict.verified()
    # The pattern strategy could not establish the implications; look for a
    # concrete ground counterexample, otherwise stay Unknown.
    capped = None
    for k in failing:
        try:
            witness = _ground_refute_well_asserted(clause, k, pre, post, ctx)
        except CapHit as exc:
            capped = str(exc)  # later positions can still refute
            continue
        if witness is not None:
            return Verdict.refuted(witness)
    return Verdict.unknown(
        branch_capped or capped
        or f"pattern strategy inconclusive; no ground witness within depth {ctx.depth}"
    )


def cs_correct(program: Program, suite: SpecSuite) -> Verdict:
    """All clauses well-asserted w.r.t. (pre, post)."""
    return _cs_correct(_CheckContext(program, (), suite))


def _cs_correct(ctx: _CheckContext) -> Verdict:
    pre, post = ctx.suite.pre, ctx.suite.post
    parts = [
        (f"clause {idx + 1}: {clause_text(clause)}", _well_asserted(clause, pre, post, ctx))
        for idx, clause in enumerate(ctx.program.clauses)
    ]
    return weakest([v for _, v in parts], tuple(parts))


def _fresh_pred_name(program: Program, query: tuple, *sets) -> str:
    """The first of q0, q1, ... that names no predicate of the program, the
    query or the sets."""
    taken = {a.name for c in program.clauses for a in (c.head,) + c.body if a is not CUT}
    taken.update(a.name for a in query if a is not CUT)
    for s in sets:
        taken.update(name for name, _ in set_predicates(s))
    i = 0
    while f"q{i}" in taken:
        i += 1
    return f"q{i}"


def _well_asserted_query(ctx: _CheckContext) -> Verdict:
    """A query is well-asserted iff the clause p <- Q is, for a p fresh for
    the program, the query and the sets, added to pre and post."""
    query, suite = ctx.query, ctx.suite
    marker = Pred(_fresh_pred_name(ctx.program, query, suite.pre, suite.post))
    marked = AtomSet(atoms=(marker,))
    return _well_asserted(Clause(marker, tuple(query)), suite.pre | marked,
                          suite.post | marked, ctx)


# ---------------------------------------------------------------------------
# c-covered: coverage robust against cuts
# ---------------------------------------------------------------------------


def _pre_above(a: Pred, h: Pred, ctx: _CheckContext) -> tuple:
    """Whether a member of pre lies above the ground atom ``a`` and unifies
    with ``h``: ``(True, delta)``, delta grounding ``h`` below one,
    ``(False, None)``, or ``(None, None)`` when that stays undecided.

    One does exactly when pre holds ``lgg(a, h delta)`` for a ground delta:
    every common generalization has the lgg as an instance (Plotkin), and
    ``contains`` holds on the instances of what it holds on.  The deltas
    bind ``h``'s variables to ``a``'s values and ``h``'s ground values where
    the two differ (CapHit past ``INSTANCE_CAP`` of them).  ``contains`` is
    sound only when True, so the answer is False only when no instance of
    ``h`` lies in pre, or when ``h`` is ground and an instance of the lgg
    lies outside pre (ground membership is exact): its variables take the
    alphabet's constants and their values in ``h`` in turn, leaving out
    the subterms of the lgg unless nothing else is left."""
    pre, resolver = ctx.suite.pre, ctx.resolver
    g = lgg(a, h)
    at_h = match(g, h)
    values = list(dict.fromkeys(itertools.chain(
        match(g, a).values(), (t for t in at_h.values() if is_ground(t)))))
    names = vars_of(h)
    if len(values) ** len(names) > INSTANCE_CAP:
        raise CapHit(f"instance cap {INSTANCE_CAP} hit at depth {ctx.depth}")
    for combo in itertools.product(values, repeat=len(names)):
        delta = dict(zip(names, combo))
        if contains(pre, lgg(a, apply(delta, h)), resolver):
            return True, delta
    if not possibly_contains(pre, h, resolver):  # a common instance would lie in pre
        return False, None
    if names:
        return None, None
    inner, stack = set(), [g]
    while stack:
        t = stack.pop()
        inner.add(t)
        stack += [x for x in t.args if x.__class__ is Compound]
    values = [Compound(f) for f, k in ctx.alphabet.functors if k == 0] + list(at_h.values())
    values = list(dict.fromkeys(v for v in values if v not in inner)) or values
    spread = {n: values[i % len(values)] for i, n in enumerate(vars_of(g))}
    return (None if ctx.in_set(pre, apply(spread, g)) else False), None


def _pre_seeds(a: Pred, clause: Clause, ctx: _CheckContext):
    """For each seed of pre (``seeds``) whose variant, renamed apart from
    ``clause``, unifies with the clause's head: the mgu, the seed, and
    whether pre holds the seed."""
    pre, resolver = ctx.suite.pre, ctx.resolver
    names = set(vars_of(clause))
    for seed in seeds(a, pre, resolver):
        theta = unify(clause.head, rename_apart(seed, names))
        if theta is not None:
            yield theta, seed, contains(pre, seed, resolver)


def _cond2_preceding(a: Pred, preceding: Clause, ctx: _CheckContext) -> Verdict:
    """No ground instance (H' <- A0) sigma of the ``preceding`` clause, cut
    short before its first cut (A0 is ``preceding.first_cut[0]``), with A0
    sigma in post may have H' sigma below a member of pre above ``a``.  The
    cover search runs from each seed of pre (``_pre_seeds``: the seed renamed
    apart from the clause), above every such member; an instance is an
    obligation when pre holds the seed or ``_pre_above`` finds a member, and
    one that stays undecided is kept, making the condition Unknown unless
    another refutes.  Each instance is ground: the search binds to ground
    atoms of post, and ``_groundings`` binds the rest."""
    if preceding.first_cut is None:
        return _PRECEDING_NO_CUT
    short = Clause(preceding.head, preceding.first_cut[0])
    unknown = None  # the reason, once some search was incomplete
    for theta, seed, seed_in_pre in _pre_seeds(a, short, ctx):
        target = apply(theta, short)
        search = _CoverSearch(ctx.suite.post, ctx)
        instances = (
            resolve(full, target)
            for sol in search.solutions(target.body, {})
            for full in _groundings(sol, vars_of(target), ctx)
        )
        try:
            for inst in instances:
                status = seed_in_pre or _pre_above(a, inst.head, ctx)[0]
                if status is None:
                    unknown = unknown or (f"kept obligation: {clause_text(inst)} "
                                          f"(pre may hold {atom_text(lgg(a, inst.head))})")
                elif status:
                    member = seed if seed_in_pre else lgg(a, inst.head)
                    return Verdict.refuted(
                        {
                            "atom": ctx.atom_text(a),
                            "preceding_clause": ctx.clause_text(preceding),
                            "generalization": atom_text(member),
                            "covered_instance": clause_text(inst),
                        },
                        "an earlier cut clause can fire on a pre-instance",
                    )
        except CapHit as exc:
            unknown = str(exc)  # later seeds can still refute
            continue
        if not search.exhaustive:
            unknown = unknown or (
                f"cover search for the preceding clause exhausted depth {ctx.depth}")
    if unknown:
        return Verdict.unknown(unknown)
    return Verdict.verified()


def _cond3_own_cut(a: Pred, clause: Clause, theta: Optional[dict], ctx: _CheckContext,
                   bodies: list) -> Verdict:
    """For each member of pre above ``a`` and each ground eta putting its B0
    rho in post + {!}: ``a`` must be covered by (H <- B1) rho eta, where H
    is the head of ``clause`` and (B0, B1) its body split at its last cut
    (``clause.last_cut``).

    The search for B0 runs from each seed of pre (``_pre_seeds``: the seed
    renamed apart from the clause, rho the mgu), and each eta gives the
    reduced head h = H rho eta.  For a universal pre the one seed is the
    most general atom, which binds only its own variables: rho leaves the
    clause as it is.  When ``a`` is an instance of h, ``a`` must be covered
    by the reduced clause.  Otherwise, when pre holds the seed or
    ``_pre_above`` finds a member that unifies with h, the reduced clause
    under its delta refutes; a pair that stays undecided is kept, making the
    condition Unknown unless another refutes.

    ``theta`` is ``match(H, a)``.  When it is None the condition holds
    vacuously: every H rho is an instance of H, so none has ``a`` as an
    instance.  The body of each covering instance found is appended to
    ``bodies``."""
    if clause.last_cut is None:
        return _NO_CUT
    if theta is None:
        return _VERIFIED
    b0, b1 = clause.last_cut
    unknown = None  # the reason, once some search was incomplete
    for rho, _, seed_in_pre in _pre_seeds(a, clause, ctx):
        head_r = apply(rho, clause.head)
        b0r = apply(rho, b0)
        b1r = apply(rho, b1)
        search = _CoverSearch(ctx.suite.post, ctx)
        etas = []
        try:
            for eta in search.solutions(b0r, {}):
                etas.append(eta)
        except CapHit as exc:
            unknown = str(exc)  # the etas found so far can still refute
        if not search.exhaustive:
            unknown = unknown or f"eta enumeration exhausted depth {ctx.depth}"
        for eta in etas:
            reduced = Clause(resolve(eta, head_r), resolve(eta, b1r))
            here = match(reduced.head, a)
            if here is not None:
                status, found = _covering_instance(a, reduced, here, ctx)
            else:
                try:
                    above, delta = (True, {}) if seed_in_pre else _pre_above(a, reduced.head, ctx)
                except CapHit as exc:
                    unknown = unknown or str(exc)
                    continue
                if above is None:
                    unknown = unknown or (
                        f"kept obligation: {clause_text(reduced)} (pre may hold a member "
                        f"above the atom that unifies with {atom_text(reduced.head)})")
                if not above:
                    continue
                status, reduced = "refuted", apply(delta, reduced)
            if status == "refuted":
                return Verdict.refuted(
                    {
                        "atom": ctx.atom_text(a),
                        "clause": ctx.clause_text(clause),
                        "eta": subst_text({v: resolve(eta, Var(v))
                                           for v in vars_of(b0r) if v in eta}),
                        "reduced_clause": clause_text(reduced),
                    },
                    "after the cut fires, the remaining clause no longer covers the atom",
                )
            if status == "unknown":
                unknown = unknown or found
            else:
                bodies.append(found.body)
    if unknown:
        return Verdict.unknown(unknown)
    return Verdict.verified()


def _c_covered(a: Pred, ctx: _CheckContext, s_subset_post: bool, reached: list) -> Verdict:
    """Coverage that survives pruning: some clause covers the ground atom
    ``a`` and neither an earlier cut clause nor the clause's own cut can
    discard that inference.

    ``s_subset_post`` is whether the premise S subset-of post holds (as
    ``_s_subset_post`` decides it, once for the whole of S); only then may
    condition 1 use the clause cut short before its last cut
    (``Clause.prefix``).  Each condition takes the clause itself.  When a
    clause c-covers ``a``, the non-cut body atoms of that clause's covering
    instances are appended to ``reached``: those of condition 3's reduced
    clause for each eta, then condition 1's."""
    text = ctx.atom_text(a)
    clause_parts = []
    cond2s = []  # condition 2 of each clause the loop has moved past
    previous = None
    for idx, clause in ctx.program.matching(a):
        theta = match(clause.head, a)  # one head match for all three conditions
        bodies: list = []
        cond3 = _cond3_own_cut(a, clause, theta, ctx, bodies)
        if previous is not None:
            cond2s.append(_cond2_preceding(a, previous, ctx))
        previous = clause
        cond2 = weakest(cond2s) if cond2s else _NO_PRECEDING
        cond1 = None
        if s_subset_post and clause.prefix is not None and cond3.is_verified:
            v = _cover_verdict(a, clause.prefix, theta, ctx, bodies)
            if v.is_verified:
                cond1 = v
        if cond1 is None:
            cond1 = _cover_verdict(a, clause, theta, ctx, bodies)
        parts = (
            ("condition 1 (covered)", cond1),
            ("condition 2 (earlier cut clauses)", cond2),
            ("condition 3 (own cut)", cond3),
        )
        v = weakest([cond1, cond2, cond3], parts)
        clause_parts.append((f"clause {idx + 1}: {ctx.clause_text(clause)}", v))
        if v.is_verified:
            reached += [b for body in bodies for b in body if b is not CUT]
            return Verdict.verified(
                f"clause {idx + 1} c-covers the atom", tuple(clause_parts)
            )
    if not clause_parts:
        return Verdict.refuted(
            {"atom": text, "note": "no clause with this predicate"},
        )
    if any(v.is_unknown for _, v in clause_parts):
        return Verdict.unknown("no clause verifiably c-covers the atom", tuple(clause_parts))
    return Verdict.refuted(
        {"atom": text, "note": "no clause c-covers the atom"},
        None,
        tuple(clause_parts),
    )


def _s_subset_post(ctx: _CheckContext) -> Verdict:
    """Premise check S subset-of post: the members of S up to the depth bound,
    then every atom S lists, whatever its depth, must lie in post."""
    s, post = ctx.suite.s, ctx.suite.post
    if post == UNIVERSAL:
        return Verdict.verified("post is the universal set")
    try:
        members = ctx.enumerate(s)
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    for a in itertools.chain(members, s.atoms):
        if not contains(post, a, ctx.resolver):
            return Verdict.refuted(
                {"atom": atom_text(a), "note": "in S but not in post"}
            )
    if not s.universal and not s.patterns:
        return Verdict.verified("all members probed")
    return Verdict.verified(f"probe up to depth {ctx.depth} passed")


# ---------------------------------------------------------------------------
# The completeness pipeline and its oracle
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    check: str
    verdict: Verdict
    bounds: dict
    witnesses: list = field(default_factory=list)
    per_atom: list = field(default_factory=list)
    timing_ms: int = 0
    pruned: Optional[PrunedTree] = field(default=None, repr=False, compare=False)  # not in --json

    @classmethod
    def of(cls, check: str, verdict: Verdict, suite: SpecSuite, start: float, witnesses: list,
           parts: tuple, pruned: Optional[PrunedTree] = None) -> "CheckReport":
        """The report of a check begun at ``perf_counter`` time ``start``:
        the suite's bounds, and the label and status of each of ``parts``."""
        budget = suite.budget
        return cls(check, verdict, {"depth": budget.depth, "nodes": budget.nodes,
                                    "steps": budget.steps},
                   witnesses, [(label, v.status) for label, v in parts],
                   int((time.perf_counter() - start) * 1000), pruned)

    def to_json_obj(self):
        return {
            "check": self.check,
            "verdict": self.verdict.to_json_obj(),
            "bounds": {
                "depth": self.bounds.get("depth"),
                "nodes": self.bounds.get("nodes"),
                "steps": self.bounds.get("steps"),
            },
            "witnesses": self.witnesses,
            "per_atom": self.per_atom,
            "timing_ms": self.timing_ms,
        }

    def to_text(self) -> str:
        lines = [f"check: {self.check}", f"verdict: {self.verdict.status}"]
        if self.verdict.reason:
            lines.append(f"reason: {self.verdict.reason}")
        lines.append(
            "bounds: depth={depth} nodes={nodes} steps={steps}".format(**self.bounds)
        )
        for w in self.witnesses:
            lines.append("witness: " + ", ".join(f"{k}={v}" for k, v in w.items()))
        for label, status in self.per_atom:
            lines.append(f"  {label}: {status}")
        return "\n".join(lines) + "\n"


def _collect_witnesses(verdict: Verdict, out: list, limit: int = 20, status: Optional[str] = None):
    """Gather witnesses matching the top-level status (so a verified report
    lists covering instances, a refuted one lists counterexamples)."""
    if status is None:
        status = verdict.status
    if verdict.status != status or len(out) >= limit:
        return
    if verdict.witness is not None and verdict.witness not in out:
        out.append(verdict.witness)
    for _, sub in verdict.parts:
        if len(out) >= limit:
            return
        _collect_witnesses(sub, out, limit, status)


def _c_coverage(ctx: _CheckContext, roots: list, s_subset_post: bool) -> tuple:
    """Every atom of a slice S' of S c-covered: the weakest of one part per
    atom, in the order found, and whether S' stopped at ``SLICE_CAP``.

    S' holds ``roots`` and is closed, at any depth, under the non-cut body
    atoms of the covering instances of the clause that c-covers each of its
    atoms; an atom that is not Verified c-covered adds none.  The premise
    stage probed the roots and every atom of S up to the depth; an atom the
    closure adds deeper than that must lie in post, or its part is Unknown.
    The atoms added beyond the roots sum to at most ``SLICE_CAP`` symbols:
    past that S' stops growing, what it holds is still c-covered, and an
    Unknown part names the cap, so a refuted atom still refutes."""
    post, depth = ctx.suite.post, ctx.depth
    found = list(dict.fromkeys(x for x in roots if x is not CUT))
    probed = len(found)  # the roots come first
    seen = set(found)
    size, capped = 0, False
    parts = []
    for i, a in enumerate(found):  # the loop reaches the atoms appended to ``found``
        reached: list = []
        if (i >= probed and any(term_key(t)[0] > depth for t in a.args)
                and not contains(post, a, ctx.resolver)):
            v = Verdict.unknown(f"deeper than depth {depth} and outside post")
        else:
            v = _c_covered(a, ctx, s_subset_post, reached)
        parts.append((ctx.atom_text(a), v))
        for b in reached:
            if capped or b in seen:
                continue
            size += 1 + sum(term_size(t) for t in b.args)
            capped = size > SLICE_CAP
            if not capped:
                seen.add(b)
                found.append(b)
    if capped:
        note = f"slice cap {SLICE_CAP} hit"
        parts.append((note, Verdict.unknown(note)))
    return weakest([v for _, v in parts], tuple(parts)), capped


def _coverage_stage(ctx: _CheckContext, s_subset_post: bool) -> Verdict:
    """The c-coverage stage: ``_c_coverage`` rooted at the atoms of the
    query's S-true instances, the query variables ranging over the ground
    terms up to the depth.  When those cannot be computed (the groundings of
    the query pass ``INSTANCE_CAP``, or the root search stops at a cap), or
    that slice stopped at ``SLICE_CAP`` without refuting, it is rooted at
    every atom of S up to the depth and every atom S lists, whatever its
    depth, as ``_s_subset_post`` probes them."""
    try:
        _check_groundings(vars_of(ctx.query), ctx)
        roots = [x for _, inst in _s_true_instances(ctx) for x in inst]
    except CapHit:
        pass
    else:
        coverage, capped = _c_coverage(ctx, roots, s_subset_post)
        if coverage.is_verified:
            return Verdict.verified(f"query slice of S: {len(coverage.parts)} atoms c-covered",
                                    coverage.parts)
        if coverage.is_refuted or not capped:
            return coverage
    s = ctx.suite.s
    try:
        roots = ctx.members(s) + list(s.atoms)
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    return _c_coverage(ctx, roots, s_subset_post)[0]


def completeness_check(program: Program, query: tuple, suite: SpecSuite) -> CheckReport:
    """The sufficient condition for completeness of the pruned LD-tree.

    Stages: the pruned tree must be exact; S must lie inside post; the
    program must be well-asserted; the (cut-free) query must be well-asserted;
    and the atoms of S the query reaches must be c-covered.  The tree is
    built within the suite's budget.

    The source paper's theorem asks that every atom of S be c-covered.  It
    applies as well to any S' subset-of S that holds the query's S-true
    instances and is closed under the bodies of the covering instances
    (Drabent's approximate specifications, ACM TOCL 2016): every atom of S'
    is then c-covered w.r.t. S', so the pruned tree answers every S'-true
    instance of the query, and those are all its S-true instances.  S'
    subset-of S subset-of post keeps the premise, and conditions 2 and 3
    read only pre, post and the clauses.  So the c-coverage stage
    (``_coverage_stage``) closes the query's slice S' and reports its atoms,
    and roots the closure at the whole of S only when the slice's roots
    cannot be computed or the slice stops at ``SLICE_CAP`` without refuting.

    A query with cut is first rewritten by ``_query_transform``, and the
    stages check the rewritten program, query and sets.  When the S
    extension passes its cap, the report is Unknown naming the cap, with no
    stages and no pruned tree.
    """
    start = time.perf_counter()
    ctx = _CheckContext(program, query, suite)
    if any(a is CUT for a in query):
        try:
            ctx = _query_transform(ctx)
        except CapHit as exc:
            return CheckReport.of("complete", Verdict.unknown(str(exc)), suite, start, [], ())
        program, query, suite = ctx.program, ctx.query, ctx.suite

    pt = pruned_tree(program, query, suite.budget)  # the check reads only exactness
    tree_v = (
        Verdict.verified()
        if pt.exact
        else Verdict.unknown(f"{pt.exhausted} exhausted; pruned tree is not exact")
    )

    premise = _s_subset_post(ctx)
    wa_program = _cs_correct(ctx)
    coverage = _coverage_stage(ctx, premise.is_verified)
    if premise.is_refuted:
        premise = Verdict.unknown(
            "premise S subset-of post is violated: "
            f"{premise.witness['atom']} is in S but not in post"
        )

    wa_query = _well_asserted_query(ctx)

    stages = (
        ("pruned tree exact", tree_v),
        ("S subset of post", premise),
        ("program well-asserted", wa_program),
        ("query well-asserted", wa_query),
        ("every S atom c-covered", coverage),
    )
    verdict = weakest([v for _, v in stages], stages)
    witnesses: list = []
    _collect_witnesses(verdict, witnesses)
    return CheckReport.of("complete", verdict, suite, start, witnesses, coverage.parts, pt)


def _s_true_instances(ctx: _CheckContext):
    """The groundings theta of the query's variables, in product order, whose
    instance of the query lies in S + {!}, each with that instance.  Raises
    CapHit past ``INSTANCE_CAP`` groundings."""
    query, s, resolver = ctx.query, ctx.suite.s, ctx.resolver
    for theta in _groundings({}, vars_of(query), ctx):
        inst = resolve(theta, query)
        if all(x is CUT or contains(s, x, resolver) for x in inst):
            yield theta, inst


def _query_transform(ctx: _CheckContext) -> _CheckContext:
    """Rewrite a query with cuts: add p(V...) <- Q for fresh p and extend the sets.

    Returns the context of the rewritten program, query p(V...) and suite.
    It shares the pool of ``ctx``: the transform adds one predicate and a
    clause whose function symbols are the query's, the extension's atoms are
    built from pool terms and the marker templates hold only variables, so
    the function symbols, which are all a pool reads of the alphabet, stay
    the same.  The S extension holds the ground p-instances whose query
    instance lies in S + {!} (bounded enumeration up to the depth bound).
    Raises CapHit when more than ``INSTANCE_CAP`` instances would have to be
    enumerated: a truncated extension would let the completeness check
    verify a smaller S.
    """
    program, query, suite = ctx.program, ctx.query, ctx.suite
    _check_groundings(vars_of(query), ctx)  # every grounding is tested: fail before the first
    name = _fresh_pred_name(program, query, suite.s, suite.pre, suite.post)
    head = Pred(name, tuple(Var(v) for v in vars_of(query)))
    ext = [resolve(theta, head) for theta, _ in _s_true_instances(ctx)]
    marker = AtomSet(patterns=(AtomPattern(most_general_atom(name, len(head.args)), ()),))
    suite2 = replace(
        suite,
        s=suite.s | AtomSet(atoms=tuple(ext)),
        pre=suite.pre | marker,
        post=suite.post | marker,
        named_sets=dict(suite.named_sets),
    )
    rewritten = _CheckContext(Program(program.clauses + (Clause(head, tuple(query)),)),
                              (head,), suite2)
    rewritten.pool = ctx.pool
    return rewritten


def oracle_tree_complete(program: Program, query: tuple, suite: SpecSuite) -> Verdict:
    """Brute-force completeness probe: every depth-bounded ground instance of
    the query that S satisfies must be an instance of a pruned-tree answer,
    the tree built within the suite's budget."""
    ctx = _CheckContext(program, query, suite)
    answers: list = []  # resolved in the callback: the store is valid only during it
    pt = pruned_tree(program, query, suite.budget,
                     on_answer=lambda store: answers.append(resolve(store, query)))
    if not pt.exact:
        return Verdict.unknown(f"{pt.exhausted} exhausted; answers may be missing")
    try:
        for _, inst in _s_true_instances(ctx):
            if not any(match(ans, inst) is not None for ans in answers):
                return Verdict.refuted(
                    {
                        "instance": query_text(inst),
                        "answers": [query_text(ans) for ans in answers],
                    },
                    "S satisfies an instance that no pruned-tree answer subsumes",
                )
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    return Verdict.verified(f"all S-true instances up to depth {ctx.depth} are answered")


# ---------------------------------------------------------------------------
# Termination checks
# ---------------------------------------------------------------------------


def _require_level_maps(program: Program, level_maps: dict):
    """Raise InputError naming the first predicate without a level mapping."""
    for clause in program.clauses:
        for atom in (clause.head,) + clause.body:
            if atom is not CUT and atom.indicator not in level_maps:
                raise InputError(f"no level mapping declared for {atom.indicator}")


def _level_decrease(s, ctx: _CheckContext, violation: str) -> Verdict:
    """|head| > |body atom| for every enumerated ground clause instance and
    every body atom whose preceding atoms lie in s + {!}.

    Only the variables that the levels and the prefixes' membership in s
    read are enumerated.  A clause whose instances reach the cap is checked
    up to the cap; unless a later clause refutes, the verdict is Unknown
    naming the cap.
    """
    level_maps, resolver = ctx.suite.level_maps, ctx.resolver
    capped = None  # the reason, once a clause's instances stopped at the cap
    for clause in ctx.program.clauses:
        read = level_reads(clause.head, level_maps)
        for b in clause.body:
            read |= level_reads(b, level_maps) | membership_reads(s, b)
        try:
            for theta in _groundings({}, vars_of(clause), ctx, read):
                instance = resolve(theta, clause)
                h = level_of(instance.head, level_maps)
                for i, b in enumerate(instance.body):
                    prefix = instance.body[:i]
                    prefix_holds = all(x is CUT or contains(s, x, resolver) for x in prefix)
                    if prefix_holds and h <= level_of(b, level_maps):
                        return Verdict.refuted(
                            {
                                "clause": clause_text(clause),
                                "instance": clause_text(instance),
                                "head_level": h,
                                "body_atom": atom_text(b) if b is not CUT else "!",
                                "body_level": level_of(b, level_maps),
                            },
                            violation,
                        )
        except CapHit as exc:
            capped = str(exc)  # later clauses can still refute
    if capped:
        return Verdict.unknown(capped)
    return Verdict.verified(f"no counterexample within depth {ctx.depth}")


def recurrent_check(program: Program, suite: SpecSuite) -> Verdict:
    """|head| > |body atom| for every enumerated ground clause instance, under
    the suite's level mappings."""
    _require_level_maps(program, suite.level_maps)
    return _level_decrease(UNIVERSAL, _CheckContext(program, (), suite), "level does not decrease")


def acceptable_check(program: Program, suite: SpecSuite) -> Verdict:
    """Correctness w.r.t. S plus level decrease whenever S satisfies the prefix."""
    _require_level_maps(program, suite.level_maps)
    ctx = _CheckContext(program, (), suite)
    model = _correct_check(ctx)
    if model.is_refuted:
        return Verdict.refuted(model.witness, "the program is not correct w.r.t. S")
    levels = _level_decrease(suite.s, ctx, "level does not decrease under a satisfied prefix")
    # a level violation refutes even when correctness stayed Unknown
    return weakest([levels, model])
