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
    Guard,
    contains,
    enumerate_atoms,
    guard_holds,
    max_generalizations,
    membership_reads,
    set_predicates,
)
from .engine import Budget, Program
from .levels import atom_level_bound, level_of, level_reads
from .pruning import PrunedTree, pruned_tree
from .syntax import (
    SpecSuite,
    atom_text,
    clause_text,
    query_text,
    resolve_alphabet,
    subst_text,
)
from .terms import (
    CUT,
    Alphabet,
    Clause,
    Compound,
    EMPTY_SUBST,
    FreshNames,
    InputError,
    Pred,
    Subst,
    Var,
    apply,
    compose,
    ground_terms,
    is_ground,
    match,
    most_general_atom,
    rename_apart,
    unify,
    vars_of,
)
from .verdicts import Verdict, weakest

_DEFAULT_CAP = 50_000


# ---------------------------------------------------------------------------
# Ground search for body instantiations inside a set
# ---------------------------------------------------------------------------


def _groundings(sigma: Subst, names, alphabet: Alphabet, depth: int, cap: int, read=None):
    """Extend sigma with every depth-bounded grounding of the names it leaves
    free, in product order.  Only the names in ``read`` (every name when it
    is None) vary; the others stay at the first ground term.  Raises CapHit
    instead of yielding grounding ``cap + 1``.

    A check whose outcome does not depend on the names outside ``read``
    finds the same first counterexample as over the full product: that one
    has every such name at the first ground term.
    """
    names = [n for n in names if n not in sigma.domain]
    if not names:
        yield sigma
        return
    terms = ground_terms(alphabet, depth)
    if not terms:
        return
    vary = names if read is None else [n for n in names if n in read]
    first = dict.fromkeys(names, terms[0])
    for count, combo in enumerate(itertools.product(terms, repeat=len(vary)), 1):
        if count > cap:
            raise CapHit(f"instance cap {cap} hit at depth {depth}")
        bindings = dict(first)
        bindings.update(zip(vary, combo))
        theta = Subst(bindings)
        yield compose(sigma, theta) if sigma else theta


class _CoverSearch:
    """Ground the non-cut atoms of a goal list inside an atom set.

    Solutions are substitutions sigma with every instantiated atom ground and
    a member of the set.  ``exhaustive`` stays True only when every candidate
    source was complete (extensional sets are; pattern and universal sets are
    enumerated up to the depth bound).  Raises CapHit at the visit cap or
    when a candidate enumeration reaches its cap.
    """

    def __init__(self, s: AtomSet, alphabet: Alphabet, depth: int, resolver=None,
                 cap: int = _DEFAULT_CAP):
        self.s = s
        self.alphabet = alphabet
        self.depth = depth
        self.resolver = resolver
        self.cap = cap
        self.exhaustive = True
        self.visits = 0

    def _candidates(self, atom: Pred):
        key = (atom.name, len(atom.args))
        if not self.s.universal and not self.s.patterns:
            return [a for a in self.s.atoms if (a.name, len(a.args)) == key]
        self.exhaustive = False
        return enumerate_atoms(self.s, self.alphabet, self.depth, self.resolver, self.cap,
                               predicate=key)

    def solutions(self, goals: tuple, sigma: Subst):
        """Yield substitutions grounding the goals inside the set."""
        self.visits += 1
        if self.visits > self.cap:
            raise CapHit(f"cover search visit cap {self.cap} hit at depth {self.depth}")
        goals = tuple(g for g in goals if g is not CUT)
        if not goals:
            yield sigma
            return
        atom = apply(sigma, goals[0])
        if is_ground(atom):
            if contains(self.s, atom, self.resolver):
                yield from self.solutions(goals[1:], sigma)
            return
        for cand in self._candidates(atom):
            theta = unify(atom, cand)
            if theta is None:
                continue
            yield from self.solutions(goals[1:], compose(sigma, theta))


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


def _covering_instance(a: Pred, clause: Clause, s, alphabet: Alphabet, depth: int, resolver,
                       cap: int) -> tuple:
    """Search a ground instance of the clause with head ``a`` and body in s + {!}.

    Returns ``("verified", instance)`` when one is found, ``("refuted",
    note)`` when none exists (the head does not match, or the search was
    exhaustive), and ``("unknown", reason)`` when a bound stopped it.
    """
    clause = rename_apart(clause, set(vars_of(a)))
    theta = match(clause.head, a)
    if theta is None:
        return "refuted", "head does not match"
    search = _CoverSearch(s, alphabet, depth, resolver, cap)
    try:
        for sol in search.solutions(clause.body, theta):
            instance = apply(sol, clause)
            if is_ground(instance):
                return "verified", instance
    except CapHit as exc:
        return "unknown", str(exc)
    if search.exhaustive:
        return "refuted", "no ground body instance in the set"
    return "unknown", f"cover search exhausted depth {depth}"


def covered(a: Pred, clause: Clause, s, *, alphabet: Alphabet, depth: int, resolver=None,
            cap: int = _DEFAULT_CAP) -> Verdict:
    """Is ``a`` the head of a ground instance of the clause with body in s + {!}?

    Verified comes with the witnessing ground instance; Refuted is definite
    when the search space was exhausted, otherwise Unknown names the bound.
    """
    status, found = _covering_instance(a, clause, s, alphabet, depth, resolver, cap)
    if status == "verified":
        return Verdict("verified", {"atom": atom_text(a), "instance": clause_text(found)}, None, ())
    if status == "unknown":
        return Verdict.unknown(found)
    return Verdict.refuted({"atom": atom_text(a), "clause": clause_text(clause), "note": found})


def semi_complete(program: Program, s, *, alphabet: Optional[Alphabet] = None, depth: int = 3,
                  resolver=None, cap: int = _DEFAULT_CAP) -> Verdict:
    """Every enumerated atom of s must be covered by some clause w.r.t. s."""
    alphabet = alphabet or resolve_alphabet(program)
    try:
        atoms = enumerate_atoms(s, alphabet, depth, resolver)
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    per_atom = []
    for a in atoms:
        text = atom_text(a)
        verdict = None  # the first Unknown, until some clause covers the atom
        for idx, c in program.matching(a):
            status, found = _covering_instance(a, c, s, alphabet, depth, resolver, cap)
            if status == "verified":
                verdict = Verdict.verified()
                break
            if status == "unknown" and verdict is None:
                verdict = Verdict.unknown(found)
        per_atom.append((text, verdict or Verdict.refuted({"atom": text, "note": "not covered"})))
    return weakest([v for _, v in per_atom], tuple(per_atom))


def correct_check(program: Program, s, *, alphabet: Optional[Alphabet] = None, depth: int = 3,
                  resolver=None, cap: int = _DEFAULT_CAP) -> Verdict:
    """Model check: each ground clause instance with body in s + {!} has its head in s.

    The cover search grounds the body; of the variables left, only those
    the head's membership in s reads are enumerated."""
    alphabet = alphabet or resolve_alphabet(program)
    bounded = False
    capped = None  # the reason, once a clause's search stopped at a cap
    for clause in program.clauses:
        search = _CoverSearch(s, alphabet, depth, resolver, cap)
        read = membership_reads(s, clause.head)
        try:
            for sol in search.solutions(clause.body, EMPTY_SUBST):
                for full in _groundings(sol, vars_of(clause), alphabet, depth, cap, read):
                    head = apply(full, clause.head)
                    if not is_ground(head):
                        bounded = True
                        continue
                    if not contains(s, head, resolver):
                        return Verdict.refuted(
                            {
                                "clause": clause_text(clause),
                                "instance": clause_text(apply(full, clause)),
                                "head": atom_text(head),
                            },
                            "ground instance with true body but false head",
                        )
                if vars_of(apply(sol, clause.head)):
                    bounded = True
        except CapHit as exc:
            capped = str(exc)  # later clauses can still refute
        if not search.exhaustive:
            bounded = True
    if capped:
        return Verdict.unknown(capped)
    reason = f"no counterexample within depth {depth}" + (" (bounded)" if bounded else "")
    return Verdict.verified(reason)


# ---------------------------------------------------------------------------
# Well-asserted clauses and queries (call/success specifications)
# ---------------------------------------------------------------------------


def _guard_facts(guard: Guard, env: Subst, resolver):
    """Facts a *holding* guard gives about the variables of the matched term.

    Returns (facts dict | 'drop' | None, refined substitution | None):
    'drop' means no instance can satisfy the guard; None facts means the
    guard gives no usable information (kept as an over-approximation).
    """
    name = guard.name
    if name == "any":
        return {}, None
    args = [apply(env, a) for a in guard.args if not isinstance(a, str)]
    if name in ("list", "ground_list"):
        facts: dict = {}
        t = args[0]
        while True:
            if isinstance(t, Var):
                flags = {"list"} if name == "list" else {"list", "ground"}
                facts.setdefault(t.name, set()).update(flags)
                break
            if isinstance(t, Compound) and t.functor == "[]" and not t.args:
                break
            if isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
                if name == "ground_list":
                    for v in vars_of(t.args[0]):
                        facts.setdefault(v, set()).add("ground")
                t = t.args[1]
            else:
                return "drop", None
        return facts, None
    if name == "ground":
        facts = {v: {"ground"} for v in vars_of(args[0])}
        return facts, None
    if name == "eq":
        theta = unify(args[0], args[1])
        if theta is None:
            return "drop", None
        return {}, theta
    if name in ("member", "subset", "concat"):
        # Definitely unsatisfiable only when the ground skeleton already fails.
        if all(is_ground(t) for t in args) and not guard_holds(guard, env, None, resolver):
            return "drop", None
        return None, None
    if name == "notin":
        return None, None
    raise ValueError(f"unknown guard {name!r}")  # pragma: no cover


def _membership_branches(atom: Pred, s: AtomSet, sigma: Subst, facts: dict, fresh: FreshNames,
                         resolver):
    """Over-approximate the instances whose ``atom`` lies in ``s``.

    Returns a list of (sigma', facts') branches such that every instance with
    the atom in the set is an instance of some branch.
    """
    at = apply(sigma, atom)
    out = [(sigma, facts)] if s.universal else []
    for m in s.atoms:
        if (m.name, len(m.args)) != (at.name, len(at.args)):
            continue
        theta = unify(at, m)
        if theta is not None:
            out.append((compose(sigma, theta), facts))
    for p in s.patterns:
        variant_pattern = _rename_pattern(p, set(vars_of(at)), fresh)
        theta = unify(at, variant_pattern.template)
        if theta is None:
            continue
        new_facts = {k: set(v) for k, v in facts.items()}
        refined = theta
        dropped = False
        for g in variant_pattern.guards:
            got, extra_theta = _guard_facts(g, refined, resolver)
            if got == "drop":
                dropped = True
                break
            if extra_theta is not None:
                refined = compose(refined, extra_theta)
            if got:
                for k, flags in got.items():
                    new_facts.setdefault(k, set()).update(flags)
        if dropped:
            continue
        out.append((compose(sigma, refined), new_facts))
    return out


def _guard_var_names(p: AtomPattern) -> set:
    names = set(vars_of(p.template))
    for g in p.guards:
        for a in g.args:
            if not isinstance(a, str):
                names.update(vars_of(a))
    return names


def _rename_pattern(p: AtomPattern, forbidden: set, fresh: FreshNames) -> AtomPattern:
    own = _guard_var_names(p)
    bundle = tuple(Var(v) for v in own)
    renamed = rename_apart(bundle, forbidden, fresh)
    mapping = Subst({v: r for v, r in zip(own, renamed)})
    guards = tuple(
        Guard(g.name, tuple(a if isinstance(a, str) else apply(mapping, a) for a in g.args))
        for g in p.guards
    )
    return AtomPattern(apply(mapping, p.template), guards)


def _entailed_member(atom, s, sigma: Subst, facts: dict, resolver) -> bool:
    if atom is CUT:
        return True
    frozen = {k: frozenset(v) for k, v in facts.items()}
    return contains(s, apply(sigma, atom), resolver, frozen)


def _ground_refute_well_asserted(clause: Clause, k: Optional[int], pre, post, alphabet, depth,
                                 resolver, cap):
    """Bounded ground search for an instance violating one implication.

    ``k`` is the index of the body atom that must be in pre (prefix in post);
    ``k is None`` checks the head-in-post condition with the full body.
    Returns a witness dict or None; raises CapHit once more than ``cap``
    instances, counted over all heads together, were searched.
    """
    heads = enumerate_atoms(pre, alphabet, depth, resolver, cap,
                            predicate=(clause.head.name, len(clause.head.args)))
    prefix = clause.body[:k] if k is not None else clause.body
    thetas = (unify(clause.head, h) for h in heads)
    instances = (
        apply(full, clause)
        for theta in thetas
        if theta is not None
        for full in _groundings(theta, vars_of(clause), alphabet, depth, cap)
    )
    for count, instance in enumerate(instances, 1):
        if count > cap:
            raise CapHit(f"instance cap {cap} hit at depth {depth}")
        if not is_ground(instance):
            continue
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


def well_asserted_clause(clause: Clause, pre, post, *, alphabet: Alphabet, depth: int = 3,
                         resolver=None, cap: int = _DEFAULT_CAP,
                         branch_cap: int = 512) -> Verdict:
    """Check one clause against a call/success specification.

    For every instance with the head in pre: each body atom whose earlier
    body atoms all lie in post + {!} must lie in pre + {!}, and if the whole
    body lies in post + {!} the head must lie in post.
    """
    fresh = FreshNames()
    head_branches = _membership_branches(clause.head, pre, EMPTY_SUBST, {}, fresh, resolver)
    if not head_branches:
        return Verdict.verified("head cannot satisfy pre (vacuous)")
    branches = head_branches
    # implications the patterns could not establish: a body position, or None for the head
    failing: list = []
    for k, b in enumerate(clause.body):
        if b is not CUT:
            if not all(_entailed_member(b, pre, sg, facts, resolver) for sg, facts in branches):
                failing.append(k)
            next_branches: list = []
            for sigma, facts in branches:
                next_branches.extend(
                    _membership_branches(b, post, sigma, facts, fresh, resolver)
                )
            branches = next_branches
            if len(branches) > branch_cap:
                return Verdict.unknown(f"branch cap {branch_cap} hit")
    if not all(_entailed_member(clause.head, post, sg, facts, resolver) for sg, facts in branches):
        failing.append(None)
    if not failing:
        return Verdict.verified()
    # The pattern strategy could not establish the implications; look for a
    # concrete ground counterexample, otherwise stay Unknown.
    capped = None
    for k in failing:
        try:
            witness = _ground_refute_well_asserted(
                clause, k, pre, post, alphabet, depth, resolver, cap
            )
        except CapHit as exc:
            capped = str(exc)  # later positions can still refute
            continue
        if witness is not None:
            return Verdict.refuted(witness)
    return Verdict.unknown(
        capped or f"pattern strategy inconclusive; no ground witness within depth {depth}"
    )


def cs_correct(program: Program, pre, post, *, alphabet: Optional[Alphabet] = None,
               depth: int = 3, resolver=None, cap: int = _DEFAULT_CAP) -> Verdict:
    """All clauses well-asserted w.r.t. (pre, post)."""
    alphabet = alphabet or resolve_alphabet(program)
    parts = []
    for idx, clause in enumerate(program.clauses):
        v = well_asserted_clause(
            clause, pre, post, alphabet=alphabet, depth=depth, resolver=resolver, cap=cap
        )
        parts.append((f"clause {idx + 1}: {clause_text(clause)}", v))
    return weakest([v for _, v in parts], tuple(parts))


def _fresh_pred_name(taken: set) -> str:
    i = 0
    while True:
        name = f"q{i}"
        if name not in taken:
            return name
        i += 1


def _taken_pred_names(program: Program, *sets) -> set:
    taken = {c.head.name for c in program.clauses}
    for c in program.clauses:
        taken.update(a.name for a in c.body if a is not CUT)
    for s in sets:
        taken.update(name for name, _ in set_predicates(s))
    return taken


def well_asserted_query(query: tuple, pre, post, *, program: Optional[Program] = None,
                        alphabet: Optional[Alphabet] = None, depth: int = 3,
                        resolver=None, cap: int = _DEFAULT_CAP) -> Verdict:
    """A query is well-asserted iff the clause p <- Q is, for fresh p added to both sets."""
    program = program or Program()
    taken = _taken_pred_names(program, pre, post)
    taken.update(a.name for a in query if a is not CUT)
    name = _fresh_pred_name(taken)
    marker = Pred(name)
    clause = Clause(marker, tuple(query))
    pre2 = pre | AtomSet(atoms=(marker,))
    post2 = post | AtomSet(atoms=(marker,))
    alphabet = alphabet or resolve_alphabet(program, query)
    return well_asserted_clause(
        clause, pre2, post2, alphabet=alphabet, depth=depth, resolver=resolver, cap=cap
    )


# ---------------------------------------------------------------------------
# c-covered: coverage robust against cuts
# ---------------------------------------------------------------------------


def _first_cut_split(body: tuple):
    for i, b in enumerate(body):
        if b is CUT:
            return body[:i], body[i + 1 :]
    return None


def _last_cut_split(body: tuple):
    for i in range(len(body) - 1, -1, -1):
        if body[i] is CUT:
            return body[:i], body[i + 1 :]
    return None


def _cond2_preceding(a: Pred, preceding: Clause, pre, post, alphabet, depth, resolver, cap) -> Verdict:
    """No ground instance of H' <- A0 (head an instance of a maximally general
    pre-atom above ``a``) may be covered w.r.t. the ground part of post."""
    split = _first_cut_split(preceding.body)
    if split is None:
        return Verdict.verified("preceding clause has no cut")
    a0, _ = split
    try:
        gens = max_generalizations(a, pre, resolver)
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    unknown = None  # the reason, once some search was incomplete
    for h2 in gens:
        variant = rename_apart(Clause(preceding.head, a0), set(vars_of(h2)))
        theta = unify(h2, variant.head)
        if theta is None:
            continue
        target = apply(theta, variant)
        search = _CoverSearch(post, alphabet, depth, resolver, cap)
        instances = (
            apply(full, target)
            for sol in search.solutions(target.body, theta)
            for full in _groundings(sol, vars_of(target), alphabet, depth, cap)
        )
        try:
            found = next((inst for inst in instances if is_ground(inst)), None)
        except CapHit as exc:
            unknown = str(exc)  # later generalizations can still refute
            continue
        if found is not None:
            return Verdict.refuted(
                {
                    "atom": atom_text(a),
                    "preceding_clause": clause_text(preceding),
                    "generalization": atom_text(h2),
                    "covered_instance": clause_text(found),
                },
                "an earlier cut clause can fire on a pre-instance",
            )
        if not search.exhaustive:
            unknown = unknown or f"cover search for the preceding clause exhausted depth {depth}"
    if unknown:
        return Verdict.unknown(unknown)
    return Verdict.verified()


def _cond3_own_cut(a: Pred, clause: Clause, s, pre, post, alphabet, depth, resolver, cap) -> Verdict:
    """For each maximally general pre-instance H rho above ``a`` and each ground
    eta putting B0 rho in post + {!}: ``a`` must be covered by (H <- B1) rho eta."""
    split = _last_cut_split(clause.body)
    if split is None:
        return Verdict.verified("clause has no cut")
    b0, b1 = split
    if pre == UNIVERSAL:
        rhos = [EMPTY_SUBST] if match(clause.head, a) is not None else []
        rho_sources = [(EMPTY_SUBST, clause)] if rhos else []
    else:
        try:
            gens = max_generalizations(a, pre, resolver)
        except CapHit as exc:
            return Verdict.unknown(str(exc))
        rho_sources = []
        for h2 in gens:
            h2r = rename_apart(h2, set(vars_of(clause)))
            theta = unify(clause.head, h2r)
            if theta is None:
                continue
            if match(apply(theta, clause.head), a) is None:
                continue
            rho_sources.append((theta, apply(theta, clause)))
    unknown = None  # the reason, once some search was incomplete
    for rho, inst_clause in rho_sources:
        b0r = apply(rho, b0)
        b1r = apply(rho, b1)
        head_r = apply(rho, clause.head)
        search = _CoverSearch(post, alphabet, depth, resolver, cap)
        etas = []
        try:
            for eta in search.solutions(b0r, EMPTY_SUBST):
                etas.append(eta)
        except CapHit as exc:
            unknown = str(exc)  # the etas found so far can still refute
        if not search.exhaustive:
            unknown = unknown or f"eta enumeration exhausted depth {depth}"
        for eta in etas:
            reduced = Clause(apply(eta, head_r), apply(eta, b1r))
            status, found = _covering_instance(a, reduced, s, alphabet, depth, resolver, cap)
            if status == "refuted":
                return Verdict.refuted(
                    {
                        "atom": atom_text(a),
                        "clause": clause_text(clause),
                        "eta": subst_text(eta.restrict(vars_of(b0r))),
                        "reduced_clause": clause_text(reduced),
                    },
                    "after the cut fires, the remaining clause no longer covers the atom",
                )
            if status == "unknown":
                unknown = unknown or found
    if unknown:
        return Verdict.unknown(unknown)
    return Verdict.verified()


def c_covered(a: Pred, program: Program, s, pre, post, *, alphabet: Optional[Alphabet] = None,
              depth: int = 3, resolver=None, cap: int = _DEFAULT_CAP,
              s_subset_post: Optional[bool] = None) -> Verdict:
    """Coverage that survives pruning: some clause covers ``a`` and neither an
    earlier cut clause nor the clause's own cut can discard that inference."""
    alphabet = alphabet or resolve_alphabet(program, (a,))
    if s_subset_post is None:
        s_subset_post = s_subset_post_check(
            s, post, alphabet=alphabet, depth=depth, resolver=resolver
        ).is_verified
    clause_parts = []
    matching = program.matching(a)
    for idx, clause in matching:
        cond3 = _cond3_own_cut(a, clause, s, pre, post, alphabet, depth, resolver, cap)
        cond2s = []
        for pidx, pclause in matching:
            if pidx >= idx:
                break
            cond2s.append(
                _cond2_preceding(a, pclause, pre, post, alphabet, depth, resolver, cap)
            )
        cond2 = weakest(cond2s) if cond2s else Verdict.verified("no preceding clauses")
        split = _last_cut_split(clause.body)
        cond1 = None
        if s_subset_post and split is not None and cond3.is_verified:
            prefix_clause = Clause(clause.head, split[0])
            v = covered(a, prefix_clause, s, alphabet=alphabet, depth=depth,
                        resolver=resolver, cap=cap)
            if v.is_verified:
                cond1 = v
        if cond1 is None:
            cond1 = covered(a, clause, s, alphabet=alphabet, depth=depth,
                            resolver=resolver, cap=cap)
        parts = (
            ("condition 1 (covered)", cond1),
            ("condition 2 (earlier cut clauses)", cond2),
            ("condition 3 (own cut)", cond3),
        )
        v = weakest([cond1, cond2, cond3], parts)
        clause_parts.append((f"clause {idx + 1}: {clause_text(clause)}", v))
        if v.is_verified:
            return Verdict.verified(
                f"clause {idx + 1} c-covers the atom", tuple(clause_parts)
            )
    if not clause_parts:
        return Verdict.refuted(
            {"atom": atom_text(a), "note": "no clause with this predicate"},
        )
    if any(v.is_unknown for _, v in clause_parts):
        return Verdict.unknown("no clause verifiably c-covers the atom", tuple(clause_parts))
    return Verdict.refuted(
        {"atom": atom_text(a), "note": "no clause c-covers the atom"},
        None,
        tuple(clause_parts),
    )


def s_subset_post_check(s: AtomSet, post: AtomSet, *, alphabet: Alphabet, depth: int = 3,
                        resolver=None) -> Verdict:
    """Premise check S subset-of post: the members of S up to the depth bound,
    then every atom S lists, whatever its depth, must lie in post."""
    if post == UNIVERSAL:
        return Verdict.verified("post is the universal set")
    try:
        members = enumerate_atoms(s, alphabet, depth, resolver)
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    for a in itertools.chain(members, s.atoms):
        if not contains(post, a, resolver):
            return Verdict.refuted(
                {"atom": atom_text(a), "note": "in S but not in post"}
            )
    if not s.universal and not s.patterns:
        return Verdict.verified("all members probed")
    return Verdict.verified(f"probe up to depth {depth} passed")


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


def _query_free_stages(program: Program, suite: SpecSuite, alphabet: Alphabet, depth: int):
    """The stages of the completeness pipeline that do not look at the query:
    S inside post, the program well-asserted, every atom of S c-covered."""
    resolver = suite.resolver
    premise = s_subset_post_check(
        suite.s, suite.post, alphabet=alphabet, depth=depth, resolver=resolver
    )
    wa_program = cs_correct(
        program, suite.pre, suite.post, alphabet=alphabet, depth=depth, resolver=resolver
    )
    try:
        atoms = enumerate_atoms(suite.s, alphabet, depth, resolver)
    except CapHit as exc:
        return premise, wa_program, Verdict.unknown(str(exc))
    per_atom = [
        (
            atom_text(a),
            c_covered(
                a, program, suite.s, suite.pre, suite.post,
                alphabet=alphabet, depth=depth, resolver=resolver,
                s_subset_post=premise.is_verified,
            ),
        )
        for a in atoms
    ]
    return premise, wa_program, weakest([v for _, v in per_atom], tuple(per_atom))


def completeness_check(program: Program, query: tuple, suite: SpecSuite, *,
                       budget: Optional[Budget] = None) -> CheckReport:
    """The sufficient condition for completeness of the pruned LD-tree.

    Stages: the pruned tree must be exact; S must lie inside post; the
    program must be well-asserted; the (cut-free) query must be well-asserted;
    and every enumerated atom of S must be c-covered.
    """
    start = time.perf_counter()
    budget = budget or suite.budget
    if any(a is CUT for a in query):
        raise ValueError("query contains cut; rewrite it with query_transform first")
    alphabet = resolve_alphabet(program, query, suite)
    resolver = suite.resolver
    depth = budget.depth

    pt = pruned_tree(program, query, budget)
    tree_v = (
        Verdict.verified()
        if pt.exact
        else Verdict.unknown("tree budget exhausted; pruned tree is not exact")
    )

    premise, wa_program, coverage = _query_free_stages(program, suite, alphabet, depth)
    if premise.is_refuted:
        premise = Verdict.unknown(
            "premise S subset-of post is violated: " + str(premise.witness)
        )

    wa_query = well_asserted_query(
        query, suite.pre, suite.post, program=program, alphabet=alphabet,
        depth=depth, resolver=resolver,
    )

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
    report = CheckReport(
        check="complete",
        verdict=verdict,
        bounds={"depth": depth, "nodes": budget.nodes, "steps": budget.steps},
        witnesses=witnesses,
        per_atom=[
            (label, v.status) for label, v in coverage.parts
        ],
        timing_ms=int((time.perf_counter() - start) * 1000),
        pruned=pt,
    )
    return report


def query_transform(query: tuple, suite: SpecSuite, program: Program, *,
                    depth: Optional[int] = None, cap: int = _DEFAULT_CAP):
    """Rewrite a query with cuts: add p(V...) <- Q for fresh p and extend the sets.

    Returns (extra clauses, new query, new suite).  The S extension holds the
    ground p-instances whose query instance lies in S + {!} (bounded
    enumeration up to the depth bound).  Raises CapHit when more than
    ``cap`` instances would have to be enumerated: a truncated extension
    would let the completeness check verify a smaller S.
    """
    depth = depth if depth is not None else suite.budget.depth
    alphabet = resolve_alphabet(program, query, suite)
    resolver = suite.resolver
    taken = _taken_pred_names(program, suite.s, suite.pre, suite.post)
    taken.update(a.name for a in query if a is not CUT)
    name = _fresh_pred_name(taken)
    names = vars_of(query)
    head = Pred(name, tuple(Var(v) for v in names))
    clause = Clause(head, tuple(query))

    ext = []
    for theta in _groundings(EMPTY_SUBST, names, alphabet, depth, cap):
        inst = apply(theta, query)
        if all(x is CUT or contains(suite.s, x, resolver) for x in inst):
            ext.append(apply(theta, head))
    marker = AtomSet(patterns=(AtomPattern(most_general_atom(name, len(names)), ()),))
    s2 = suite.s | AtomSet(atoms=tuple(ext))
    pre2 = suite.pre | marker
    post2 = suite.post | marker
    suite2 = replace(
        suite,
        s=s2,
        pre=pre2,
        post=post2,
        named_sets=dict(suite.named_sets),
    )
    new_query = (head,)
    return [clause], new_query, suite2


def oracle_tree_complete(program: Program, query: tuple, suite: SpecSuite, *,
                         budget: Optional[Budget] = None, cap: int = _DEFAULT_CAP) -> Verdict:
    """Brute-force completeness probe: every depth-bounded ground instance of
    the query that S satisfies must be an instance of a pruned-tree answer."""
    budget = budget or suite.budget
    alphabet = resolve_alphabet(program, query, suite)
    resolver = suite.resolver
    pt = pruned_tree(program, query, budget)
    if not pt.exact:
        return Verdict.unknown("tree budget exhausted; answers may be missing")
    answers = pt.answers
    try:
        for theta in _groundings(EMPTY_SUBST, vars_of(query), alphabet, budget.depth, cap):
            inst = apply(theta, query)
            if not all(x is CUT or contains(suite.s, x, resolver) for x in inst):
                continue
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
    return Verdict.verified(f"all S-true instances up to depth {budget.depth} are answered")


# ---------------------------------------------------------------------------
# Termination checks
# ---------------------------------------------------------------------------


def _require_level_maps(program: Program, level_maps: dict):
    """Raise InputError naming the first predicate without a level mapping."""
    for clause in program.clauses:
        for atom in (clause.head,) + clause.body:
            if atom is not CUT and atom.indicator not in level_maps:
                raise InputError(f"no level mapping declared for {atom.indicator}")


def _level_decrease(program: Program, level_maps: dict, s, resolver, alphabet: Alphabet,
                    depth: int, cap: int, violation: str) -> Verdict:
    """|head| > |body atom| for every enumerated ground clause instance and
    every body atom whose preceding atoms lie in s + {!}.

    Only the variables that the levels and the prefixes' membership in s
    read are enumerated.  A clause whose instances reach the cap is checked
    up to the cap; unless a later clause refutes, the verdict is Unknown
    naming the cap.
    """
    capped = None  # the reason, once a clause's instances stopped at the cap
    for clause in program.clauses:
        read = level_reads(clause.head, level_maps)
        for b in clause.body:
            read |= level_reads(b, level_maps) | membership_reads(s, b)
        try:
            for theta in _groundings(EMPTY_SUBST, vars_of(clause), alphabet, depth, cap, read):
                instance = apply(theta, clause)
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
    return Verdict.verified(f"no counterexample within depth {depth}")


def recurrent_check(program: Program, level_maps: dict, *, alphabet: Optional[Alphabet] = None,
                    depth: int = 3, cap: int = _DEFAULT_CAP) -> Verdict:
    """|head| > |body atom| for every enumerated ground clause instance."""
    _require_level_maps(program, level_maps)
    alphabet = alphabet or resolve_alphabet(program)
    return _level_decrease(program, level_maps, UNIVERSAL, None, alphabet, depth, cap,
                           "level does not decrease")


def acceptable_check(program: Program, s, level_maps: dict, *, alphabet: Optional[Alphabet] = None,
                     depth: int = 3, resolver=None, cap: int = _DEFAULT_CAP) -> Verdict:
    """Correctness w.r.t. s plus level decrease whenever s satisfies the prefix."""
    _require_level_maps(program, level_maps)
    alphabet = alphabet or resolve_alphabet(program)
    model = correct_check(program, s, alphabet=alphabet, depth=depth, resolver=resolver, cap=cap)
    if model.is_refuted:
        return Verdict.refuted(model.witness, "the program is not correct w.r.t. S")
    levels = _level_decrease(
        program, level_maps, s, resolver, alphabet, depth, cap,
        "level does not decrease under a satisfied prefix",
    )
    # a level violation refutes even when correctness stayed Unknown
    return weakest([levels, model])


def bounded_query(query: tuple, level_maps: dict) -> Verdict:
    """Decide symbolically whether every atom's level is bounded over instances."""
    total = 0
    for a in query:
        if a is CUT:
            continue
        bound = atom_level_bound(a, level_maps)
        if bound is None:
            return Verdict.refuted(
                {"atom": atom_text(a), "note": "level unbounded over instances"},
            )
        total = max(total, bound)
    return Verdict.verified(f"bounded by {total + 1}")
