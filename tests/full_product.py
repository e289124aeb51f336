"""Model and level checks over the full grounding product, kept as a test oracle.

``cutcheck.verify`` enumerates only the clause variables that a verdict
reads (membership in S, the levels) and keeps every other variable at the
first ground term.  The functions here ground *every* clause variable over
all terms up to the depth, as the checks did before that reduction, so the
tests can compare the two: wherever the full product finishes within the
cap, both must give the same status, witness and reason.  Each takes the
program and the spec suite, as its counterpart does, and reads the suite
by the same rule (alphabet, depth and resolver).  The ``cap`` argument
bounds the groundings here; the cover search reads
``cutcheck.verify.VISIT_CAP``, which a test sets to the same value.  The
cover search's solutions are triangular maps: the groundings here extend
them with ``naive_unify.naive_compose`` and are read with ``resolve``.

``CAP_HITS`` collects the message of every instance cap the full product
reaches; a caller clears it before a run to learn whether the run finished.
The ground terms of each (alphabet, depth) are built once per test session
(``_ground_terms``), since ``cutcheck.terms.ground_terms`` keeps no memo.
"""

import functools
import itertools

from cutcheck.atomsets import UNIVERSAL, CapHit, contains
from cutcheck.levels import level_of
from cutcheck.syntax import atom_text, clause_text, resolve_alphabet
from cutcheck.terms import CUT, apply, ground_terms, is_ground, resolve, vars_of
from cutcheck.verdicts import Verdict, weakest
from cutcheck.verify import _CheckContext, _CoverSearch
from naive_unify import naive_compose

CAP_HITS: list = []
_ground_terms = functools.lru_cache(maxsize=None)(ground_terms)


def full_groundings(sigma: dict, names, alphabet, depth: int, cap: int):
    names = [n for n in names if n not in sigma]
    if not names:
        yield sigma
        return
    combos = itertools.product(_ground_terms(alphabet, depth), repeat=len(names))
    for count, combo in enumerate(combos, 1):
        if count > cap:
            CAP_HITS.append(f"instance cap {cap} hit at depth {depth}")
            raise CapHit(CAP_HITS[-1])
        theta = dict(zip(names, combo))
        yield naive_compose(sigma, theta) if sigma else theta


def full_correct_check(program, suite, cap) -> Verdict:
    s, resolver, depth = suite.s, suite.resolver, suite.budget.depth
    alphabet = resolve_alphabet(program, (), suite)
    ctx = _CheckContext(program, (), suite)
    bounded = False
    capped = None
    for clause in program.clauses:
        search = _CoverSearch(s, ctx)
        try:
            for sol in search.solutions(clause.body, {}):
                for full in full_groundings(sol, vars_of(clause), alphabet, depth, cap):
                    head = resolve(full, clause.head)
                    if not is_ground(head):
                        bounded = True
                        continue
                    if not contains(s, head, resolver):
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
            capped = str(exc)
        if not search.exhaustive:
            bounded = True
    if capped:
        return Verdict.unknown(capped)
    reason = f"no counterexample within depth {depth}" + (" (bounded)" if bounded else "")
    return Verdict.verified(reason)


def _full_level_decrease(program, level_maps, s, resolver, alphabet, depth, cap, violation):
    capped = None
    for clause in program.clauses:
        try:
            for theta in full_groundings({}, vars_of(clause), alphabet, depth, cap):
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
            capped = str(exc)
    if capped:
        return Verdict.unknown(capped)
    return Verdict.verified(f"no counterexample within depth {depth}")


def full_recurrent_check(program, suite, cap) -> Verdict:
    return _full_level_decrease(program, suite.level_maps, UNIVERSAL, None,
                                resolve_alphabet(program, (), suite), suite.budget.depth, cap,
                                "level does not decrease")


def full_acceptable_check(program, suite, cap) -> Verdict:
    model = full_correct_check(program, suite, cap)
    if model.is_refuted:
        return Verdict.refuted(model.witness, "the program is not correct w.r.t. S")
    levels = _full_level_decrease(program, suite.level_maps, suite.s, suite.resolver,
                                  resolve_alphabet(program, (), suite), suite.budget.depth, cap,
                                  "level does not decrease under a satisfied prefix")
    return weakest([levels, model])
