import random

import pytest

from cutcheck import (
    AtomSet,
    Budget,
    UNIVERSAL,
    acceptable_check,
    bounded_query,
    c_covered,
    completeness_check,
    correct_check,
    covered,
    cs_correct,
    enumerate_atoms,
    oracle_tree_complete,
    parse_program,
    parse_query,
    parse_spec,
    query_transform,
    recurrent_check,
    semi_complete,
    well_asserted_clause,
    well_asserted_query,
)
from cutcheck.atomsets import AtomPattern, Guard, contains, membership_reads
from cutcheck.levels import LevelMapping, atom_level_bound, level_of, level_reads
from cutcheck.syntax import atom_text, resolve_alphabet
from cutcheck.terms import CUT, Alphabet, Pred, Var, const, is_ground, make_list, match
from cutcheck.verdicts import Verdict, weakest
from cutcheck.verify import s_subset_post_check

import full_product
from conftest import load_program, load_spec_text
from full_product import full_acceptable_check, full_correct_check, full_recurrent_check

a, b, c = const("a"), const("b"), const("c")


def setup_example(pl, spec):
    prog = load_program(pl)
    suite = parse_spec(load_spec_text(spec))
    alpha = resolve_alphabet(prog, (), suite)
    return prog, suite, alpha


class TestVerdicts:
    def test_weakest_order(self):
        v = weakest([Verdict.verified(), Verdict.unknown("x")])
        assert v.is_unknown
        v = weakest([Verdict.unknown("x"), Verdict.refuted({"w": 1})])
        assert v.is_refuted
        assert weakest([]).is_verified

    def test_json_shape(self):
        v = Verdict.refuted({"atom": "p"}, "why", (("part", Verdict.verified()),))
        obj = v.to_json_obj()
        assert obj["status"] == "refuted" and obj["witness"] == {"atom": "p"}


class TestLevels:
    MAPS = {
        "p/2": LevelMapping("p", 2, 1, ((1, "len", 0), (2, "size", 1))),
    }

    def test_level_of(self):
        atom = Pred("p", (make_list([a, b]), const("x")))
        assert level_of(atom, self.MAPS) == 1 + 2 + 2 * 1
        assert level_of(CUT, self.MAPS) == 0

    def test_level_requires_ground(self):
        with pytest.raises(ValueError):
            level_of(Pred("p", (Var("X"), a)), self.MAPS)

    def test_undeclared_predicate(self):
        with pytest.raises(KeyError):
            level_of(Pred("z", ()), self.MAPS)

    def test_bound_closed_spine(self):
        atom = Pred("p", (make_list([Var("X"), Var("Y")]), a))
        # len is fixed by the closed spine; size of the ground constant is 1
        assert atom_level_bound(atom, self.MAPS) == 1 + 2 + 2 * 1

    def test_bound_open_spine_unbounded(self):
        from cutcheck.terms import cons

        atom = Pred("p", (cons(a, Var("T")), a))
        assert atom_level_bound(atom, self.MAPS) is None

    def test_bounded_query_verdicts(self):
        q = (Pred("p", (make_list([a]), b)),)
        assert bounded_query(q, self.MAPS).is_verified
        q2 = (Pred("p", (Var("L"), b)),)
        assert bounded_query(q2, self.MAPS).is_refuted


class TestCovered:
    def test_fact_covers_itself(self):
        prog = parse_program("p(a).")
        s = AtomSet(atoms=(Pred("p", (a,)),))
        alpha = resolve_alphabet(prog)
        v = covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1)
        assert v.is_verified

    def test_body_must_lie_in_set(self):
        prog = parse_program("p(X) :- q(X).")
        s = AtomSet(atoms=(Pred("p", (a,)),))
        alpha = resolve_alphabet(prog)
        v = covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1)
        assert v.is_refuted

    def test_cut_in_body_ignored(self):
        prog = parse_program("p(X) :- !, q(X).")
        s = AtomSet(atoms=(Pred("p", (a,)), Pred("q", (a,))))
        alpha = resolve_alphabet(prog)
        v = covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1)
        assert v.is_verified


class TestSemiCompleteAndCorrect:
    def test_append_semi_complete_small(self):
        prog, suite, alpha = setup_example("append.pl", "append.spec")
        v = semi_complete(prog, suite.s, alphabet=alpha, depth=2, resolver=suite.resolver)
        assert v.is_verified

    def test_append_not_correct(self):
        # app([], 1, 1) has an empty (true) body but a head outside the set
        prog, suite, alpha = setup_example("append.pl", "append.spec")
        v = correct_check(prog, suite.s, alphabet=alpha, depth=2, resolver=suite.resolver)
        assert v.is_refuted
        assert v.witness["head"].startswith("app([]")

    def test_correct_propositional(self):
        prog = parse_program("p :- q.\nq.")
        s = AtomSet(atoms=(Pred("p"), Pred("q")))
        v = correct_check(prog, s, alphabet=resolve_alphabet(prog), depth=0)
        assert v.is_verified
        s2 = AtomSet(atoms=(Pred("q"),))
        v2 = correct_check(prog, s2, alphabet=resolve_alphabet(prog), depth=0)
        assert v2.is_refuted


class TestWellAsserted:
    def test_in_program_well_asserted(self):
        prog, suite, alpha = setup_example("in.pl", "in.spec")
        v = cs_correct(prog, suite.pre, suite.post, alphabet=alpha, depth=2,
                       resolver=suite.resolver)
        assert v.is_verified

    def test_violating_clause_refuted_with_ground_witness(self):
        prog = parse_program("p(X) :- q(X).")
        pre = AtomSet(atoms=(Pred("p", (a,)),))
        post = UNIVERSAL
        # q(a) is not in pre, so the clause is not well-asserted
        v = well_asserted_clause(
            prog.clauses[0], pre, AtomSet(), alphabet=resolve_alphabet(prog), depth=1
        )
        assert v.is_refuted
        assert v.witness["position"] == 1

    def test_query_well_asserted_uses_fresh_predicate(self):
        prog = parse_program("p(a).")
        pre = AtomSet(patterns=(AtomPattern(Pred("p", (Var("X"),)), ()),))
        v = well_asserted_query(parse_query("p(Y)"), pre, UNIVERSAL,
                                program=prog, depth=1)
        assert v.is_verified


class TestCCovered:
    def test_artificial_with_real_post(self):
        prog, suite, alpha = setup_example("artificial.pl", "artificial.spec")
        v = c_covered(Pred("p", (a, c)), prog, suite.s, suite.pre, suite.post,
                      alphabet=alpha, depth=1, resolver=suite.resolver)
        assert v.is_verified

    def test_artificial_with_universal_post_lists_both_failures(self):
        prog, suite, alpha = setup_example("artificial.pl", "artificial_posthb.spec")
        v = c_covered(Pred("p", (a, c)), prog, suite.s, suite.pre, suite.post,
                      alphabet=alpha, depth=1, resolver=suite.resolver)
        assert v.is_refuted
        clause2 = dict(v.parts)["clause 2: p(X, Z) :- q(X, Y), !, r(Y, Z)."]
        conds = dict(clause2.parts)
        assert conds["condition 2 (earlier cut clauses)"].is_refuted
        assert conds["condition 3 (own cut)"].is_refuted


class TestPipeline:
    def test_artificial_pipeline(self):
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec")
        rep = completeness_check(prog, parse_query("p(a, Z)"), suite)
        assert rep.verdict.is_verified
        assert oracle_tree_complete(prog, parse_query("p(a, Z)"), suite).is_verified

    def test_query_with_cut_rejected(self):
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec")
        with pytest.raises(ValueError):
            completeness_check(prog, parse_query("p(a, Z), !"), suite)

    def test_query_transform_handles_cut(self):
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec")
        extra, query, suite2 = query_transform(parse_query("p(a, Z), !"), suite, prog)
        assert len(extra) == 1 and extra[0].body[-1] is CUT
        assert len(query) == 1 and not any(x is CUT for x in query)
        from cutcheck import Program

        rep = completeness_check(Program(prog.clauses + tuple(extra)), query, suite2)
        assert rep.verdict.status in ("verified", "unknown")

    def test_report_json_shape(self):
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec")
        rep = completeness_check(prog, parse_query("p(a, Z)"), suite)
        obj = rep.to_json_obj()
        assert list(obj) == ["check", "verdict", "bounds", "witnesses", "per_atom", "timing_ms"]
        assert list(obj["bounds"]) == ["depth", "nodes", "steps"]

    def test_s_subset_post_probes_every_listed_atom(self):
        alpha = Alphabet((("a", 0), ("f", 1)), (("p", 1), ("q", 1)))
        listed = parse_spec("[S]\np(f(f(f(a)))).\n\n[post]\nq(a).\n")
        for depth in (1, 2, 3):
            v = s_subset_post_check(listed.s, listed.post, alphabet=alpha, depth=depth)
            assert v.is_refuted and v.witness["atom"] == "p(f(f(f(a))))"
        inside = parse_spec("[S]\np(f(f(f(a)))).\n\n[post]\np(X).\n")
        v = s_subset_post_check(inside.s, inside.post, alphabet=alpha, depth=1)
        assert v.is_verified and v.reason == "all members probed"
        patterns = parse_spec("[S]\np(X) where ground(X).\n\n[post]\np(X).\n")
        v = s_subset_post_check(patterns.s, patterns.post, alphabet=alpha, depth=1)
        assert v.is_verified and v.reason == "probe up to depth 1 passed"

    def test_unknown_when_tree_truncated(self):
        prog = parse_program("p :- p.")
        from cutcheck.syntax import SpecSuite

        suite = SpecSuite(budget=Budget(depth=1, nodes=5, steps=5))
        rep = completeness_check(prog, parse_query("p"), suite)
        assert rep.verdict.is_unknown


class TestTermination:
    def test_in_recurrent(self):
        prog, suite, alpha = setup_example("in.pl", "in.spec")
        v = recurrent_check(prog, suite.level_maps, alphabet=alpha, depth=1)
        assert v.is_verified
        # the levels read only T and L (E is a list element): 147^2 instances at depth 2
        v2 = recurrent_check(prog, suite.level_maps, alphabet=alpha, depth=2)
        assert v2.is_verified and v2.reason == "no counterexample within depth 2"

    def test_non_decreasing_refuted(self):
        prog = parse_program("p(X) :- p(X).\np(a).")
        maps = {"p/1": LevelMapping("p", 1, 0, ((1, "size", 0),))}
        v = recurrent_check(prog, maps, alphabet=resolve_alphabet(prog), depth=1)
        assert v.is_refuted

    def test_acceptable_uses_prefix(self):
        # the recursive call is guarded by q(X), false in S for the looping value
        prog = parse_program("p(X) :- q(X), p(a).\nq(b).")
        s = AtomSet(atoms=(Pred("q", (b,)), Pred("p", (b,)), Pred("p", (a,))))
        maps = {
            "p/1": LevelMapping("p", 1, 0, ((1, "size", 0),)),
            "q/1": LevelMapping("q", 1, 0, ()),
        }
        v = acceptable_check(prog, s, maps, alphabet=resolve_alphabet(prog), depth=1)
        assert v.is_refuted  # p(b) :- q(b), p(a): level 0 -> 0 with prefix true


class TestOracleCompleteness:
    def test_in_nonground_query_refuted(self):
        prog, suite, _ = setup_example("in.pl", "in.spec")
        v = oracle_tree_complete(prog, parse_query("in([X], [1, 2])"), suite)
        assert v.is_refuted
        assert v.witness["instance"] == "in([2], [1, 2])"

    def test_ground_queries_confirmed(self):
        prog, suite, _ = setup_example("in.pl", "in.spec")
        v = oracle_tree_complete(prog, parse_query("in([1], [1, 2])"), suite)
        assert v.is_verified


P5_PROGRAM = "p(A, B, C, D, E) :- q.\nq."
P5_SPEC = """\
[alphabet]
functor a/0.
functor f/1.
functor g/2.

[S]
q.
p(a, B, C, D, E).
p(f(X), B, C, D, E).

[level]
p(A, B, C, D, E) = 1.
q = 0.
"""


# p/5 with S and levels that read every argument
P5_GUARDED_SPEC = P5_SPEC.replace(
    "p(a, B, C, D, E).\np(f(X), B, C, D, E).",
    "p(a, B, C, D, E) where ground(B), ground(C), ground(D), ground(E).\n"
    "p(f(X), B, C, D, E) where ground(B), ground(C), ground(D), ground(E).",
)
P5_SIZED_SPEC = P5_SPEC.replace(
    "p(A, B, C, D, E) = 1.",
    "p(A, B, C, D, E) = 1 + size(A) + size(B) + size(C) + size(D) + size(E).",
)
assert P5_GUARDED_SPEC != P5_SPEC and P5_SIZED_SPEC != P5_SPEC


# the level loop's counterpart of the p/5 program
LEVEL_PROGRAM = "p(A, B, C, D, E) :- r(A).\nr(a)."
LEVEL_SPEC = """\
[alphabet]
functor a/0.
functor f/1.
functor g/2.

[level]
p(A, B, C, D, E) = 3.
r(X) = size(X).
"""


class TestHonestCaps:
    """A cap either lets the search finish or turns the verdict Unknown."""

    def test_p5_refuted_then_unknown_not_verified(self):
        prog = parse_program(P5_PROGRAM)
        suite = parse_spec(P5_SPEC)
        alpha = resolve_alphabet(prog, (), suite)
        v1 = correct_check(prog, suite.s, alphabet=alpha, depth=1, resolver=suite.resolver)
        assert v1.is_refuted
        assert v1.witness["head"] == "p(g(a, a), a, a, a, a)"
        # S reads only A, so 13 groundings at depth 2 reach the same witness
        v2 = correct_check(prog, suite.s, alphabet=alpha, depth=2, resolver=suite.resolver)
        assert v2.is_refuted
        assert v2.witness == v1.witness

    def test_acceptable_returns_correct_checks_unknown(self):
        # S reads all five arguments of p/5: 13^5 groundings pass the cap
        prog = parse_program(P5_PROGRAM)
        suite = parse_spec(P5_GUARDED_SPEC)
        alpha = resolve_alphabet(prog, (), suite)
        model = correct_check(prog, suite.s, alphabet=alpha, depth=2,
                              resolver=suite.resolver, cap=1000)
        v = acceptable_check(prog, suite.s, suite.level_maps, alphabet=alpha, depth=2,
                             resolver=suite.resolver, cap=1000)
        assert model.is_unknown
        assert v == model

    def test_level_loop_cap_still_reports_cap_hit(self):
        # the level of p/5 reads all five arguments: 13^5 groundings pass the cap
        prog = parse_program(P5_PROGRAM)
        suite = parse_spec(P5_SIZED_SPEC)
        alpha = resolve_alphabet(prog, (), suite)
        v = recurrent_check(prog, suite.level_maps, alphabet=alpha, depth=2, cap=1000)
        assert v.is_unknown and v.reason == "instance cap 1000 hit at depth 2"

    def test_level_loop_refuted_then_unknown_not_verified(self):
        prog = parse_program(LEVEL_PROGRAM)
        suite = parse_spec(LEVEL_SPEC)
        alpha = resolve_alphabet(prog, (), suite)
        v1 = recurrent_check(prog, suite.level_maps, alphabet=alpha, depth=1)
        assert v1.is_refuted
        assert v1.witness["instance"] == "p(g(a, a), a, a, a, a) :- r(g(a, a))."
        # the levels read only A, so 13 groundings at depth 2 reach the same witness
        v2 = recurrent_check(prog, suite.level_maps, alphabet=alpha, depth=2)
        assert v2.is_refuted and v2.witness == v1.witness

    def test_universal_pre_enumeration_stops_at_its_cap(self):
        # pre = any: refuting the head needs p/5 heads, 3^5 at depth 1 and 13^5 at depth 2
        prog = parse_program(P5_PROGRAM)
        suite = parse_spec(P5_SPEC.split("[S]")[0] + "[post]\nq.\np(a, B, C, D, E).\n")
        alpha = resolve_alphabet(prog, (), suite)
        v1 = cs_correct(prog, suite.pre, suite.post, alphabet=alpha, depth=1)
        assert v1.is_refuted and v1.witness["atom"] == "p(f(a), a, a, a, a)"
        v2 = cs_correct(prog, suite.pre, suite.post, alphabet=alpha, depth=2)
        assert v2.is_unknown
        clause1 = dict(v2.parts)["clause 1: p(A, B, C, D, E) :- q."]
        assert clause1.reason == "universal enumeration cap 50000 hit at depth 2"

    def test_cover_search_cap_is_unknown(self):
        prog = parse_program("p(X) :- q(X), q(Y), q(Z).")
        s = AtomSet(atoms=(Pred("q", (a,)), Pred("q", (b,))))
        alpha = Alphabet((("a", 0), ("b", 0)), (("p", 1), ("q", 1)))
        v = covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1, cap=2)
        assert v.is_unknown and v.reason == "cover search visit cap 2 hit at depth 1"
        assert covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1).is_verified

    def test_refuted_at_depth_d_never_verified_at_d_plus_1(self):
        rng = random.Random(1)
        refuted = dict.fromkeys(CHECKS, 0)
        for clauses, prog, s, maps in random_check_cases(rng, 150):
            cap = rng.choice(RANDOM_CAPS)
            for name, check in CHECKS.items():
                for d in (1, 2):
                    if check(prog, s, maps, alphabet=AF_ALPHA, depth=d, cap=cap).is_refuted:
                        refuted[name] += 1
                        after = check(prog, s, maps, alphabet=AF_ALPHA, depth=d + 1, cap=cap)
                        assert not after.is_verified, (name, clauses, s, maps, cap, d)
        assert min(refuted.values()) > 100, refuted


AF_PREDS = (("p", 1), ("q", 1), ("r", 2), ("s", 3))
AF_ALPHA = Alphabet((("a", 0), ("f", 1)), AF_PREDS)
RANDOM_CAPS = [2, 3, 4, 5, 6, 7, 8, 12, 30, 1000]
CHECKS = {
    "correct": lambda prog, s, maps, **kw: correct_check(prog, s, **kw),
    "recurrent": lambda prog, s, maps, **kw: recurrent_check(prog, maps, **kw),
    "acceptable": acceptable_check,
}
FULL_CHECKS = {
    "correct": lambda prog, s, maps, **kw: full_correct_check(prog, s, **kw),
    "recurrent": lambda prog, s, maps, **kw: full_recurrent_check(prog, maps, **kw),
    "acceptable": full_acceptable_check,
}


def random_check_cases(rng, count):
    """Random programs over a/0, f/1 with unguarded pattern sets and size
    level maps: (clause texts, program, S, level maps) per case."""

    def atom():
        name, arity = rng.choice(AF_PREDS)
        args = (rng.choice(["a", "f(a)", "X", "Y", "Z", "f(X)", "f(Y)"]) for _ in range(arity))
        return f"{name}({', '.join(args)})"

    def level(name, arity):
        sized = tuple((1, "size", i) for i in range(arity) if rng.random() < 0.5)
        return LevelMapping(name, arity, rng.randint(0, 2), sized)

    for _ in range(count):
        clauses = []
        for _ in range(rng.randint(1, 3)):
            body = [atom() for _ in range(rng.randint(0, 2))]
            clauses.append(atom() + (" :- " + ", ".join(body) if body else "") + ".")
        prog = parse_program("\n".join(clauses))
        s = AtomSet(patterns=tuple(AtomPattern(parse_query(atom())[0], ())
                              for _ in range(rng.randint(1, 6))))
        maps = {f"{name}/{arity}": level(name, arity) for name, arity in AF_PREDS}
        yield clauses, prog, s, maps


LIST_PREDS = (("m", 2), ("n", 1))
LIST_ALPHA = Alphabet((("1", 0), ("[]", 0), (".", 2)), LIST_PREDS)
LIST_SETS = (
    "m(X, L) where ground_list(L), member(X, L).",
    "m(X, L) where list(L).",
    "m(A, B).",
    "m(1, B).",
    "m([], [1]).",
    "n(L) where ground_list(L).",
    "n([1 | T]).",
    "n(X) where notin(m(X, X), s).",
)


def random_list_cases(rng, count):
    """Random list programs over 1, [] and '.'/2 with guarded pattern sets
    and mixed len/size level maps, at most two variables per clause."""

    def atom():
        name, arity = rng.choice(LIST_PREDS)
        args = (rng.choice(["[]", "[1]", "[X | T]", "[1 | T]", "X", "T", "[X, 1]", "1"])
                for _ in range(arity))
        return f"{name}({', '.join(args)})"

    def level(name, arity):
        terms = tuple((rng.randint(0, 2), rng.choice(["len", "size"]), i)
                      for i in range(arity) if rng.random() < 0.7)
        return LevelMapping(name, arity, rng.randint(0, 2), terms)

    for _ in range(count):
        clauses = []
        for _ in range(rng.randint(1, 3)):
            body = [rng.choice([atom(), "!"]) for _ in range(rng.randint(0, 2))]
            clauses.append(atom() + (" :- " + ", ".join(body) if body else "") + ".")
        prog = parse_program("\n".join(clauses))
        s = parse_spec("[S]\n" + "\n".join(rng.sample(LIST_SETS, rng.randint(1, 4)))).s
        maps = {f"{name}/{arity}": level(name, arity) for name, arity in LIST_PREDS}
        yield clauses, prog, s, maps


def assert_real_counterexample(kind, prog, s, maps, verdict, resolver=None):
    """The witness is a ground instance of a program clause that breaks the
    checked condition."""
    w = verdict.witness
    clause = parse_program(w["clause"]).clauses[0]
    instance = parse_program(w["instance"]).clauses[0]
    assert clause in prog.clauses and is_ground(instance)
    assert match((clause.head,) + clause.body, (instance.head,) + instance.body) is not None
    if "head" in w:  # body in S + {!}, head outside S
        assert all(b is CUT or contains(s, b, resolver) for b in instance.body)
        assert not contains(s, instance.head, resolver) and w["head"] == atom_text(instance.head)
        return
    h = level_of(instance.head, maps)
    assert h == w["head_level"]
    assert any(
        (atom_text(b) if b is not CUT else "!") == w["body_atom"]
        and h <= level_of(b, maps)
        and (kind == "recurrent"
             or all(x is CUT or contains(s, x, resolver) for x in instance.body[:i]))
        for i, b in enumerate(instance.body)
    )


class TestReducedGrounding:
    """The model and level checks ground only the variables their test reads;
    wherever the full product finishes within the cap the verdict, witness
    and reason are the full product's."""

    def compare(self, cases, alphabet, resolver_of):
        counts = {"equal": 0, "refuted": 0, "capped": 0, "rechecked": 0}
        for clauses, prog, s, maps, cap in cases:
            resolver = resolver_of(s)
            for name in CHECKS:
                for d in (1, 2):
                    kw = dict(alphabet=alphabet, depth=d)
                    if name != "recurrent":
                        kw["resolver"] = resolver
                    for c in (10**6, cap):  # 10**6: a cap the full product never reaches
                        full_product.CAP_HITS.clear()
                        want = FULL_CHECKS[name](prog, s, maps, cap=c, **kw)
                        got = CHECKS[name](prog, s, maps, cap=c, **kw)
                        context = (name, clauses, s, maps, c, d)
                        if not full_product.CAP_HITS:
                            assert (got.status, got.witness, got.reason) == (
                                want.status, want.witness, want.reason), context
                            counts["equal"] += 1
                            counts["refuted"] += got.is_refuted
                            continue
                        assert c == cap, context
                        counts["capped"] += 1
                        if got.is_refuted:
                            assert_real_counterexample(name, prog, s, maps, got, resolver)
                            counts["rechecked"] += 1
        return counts

    def test_equal_to_full_product_on_random_programs(self):
        rng = random.Random(1)
        cases = ((*case, rng.choice(RANDOM_CAPS)) for case in random_check_cases(rng, 150))
        counts = self.compare(cases, AF_ALPHA, lambda s: None)
        assert counts["equal"] > 1500 and counts["refuted"] > 1000, counts
        assert counts["capped"] > 40 and counts["rechecked"] > 10, counts

    def test_equal_to_full_product_on_list_programs(self):
        rng = random.Random(2)
        cases = ((*case, rng.choice(RANDOM_CAPS)) for case in random_list_cases(rng, 100))
        counts = self.compare(cases, LIST_ALPHA, lambda s: {"s": s})
        assert counts["equal"] > 900 and counts["refuted"] > 600, counts
        assert counts["capped"] > 100 and counts["rechecked"] > 25, counts


class TestReaders:
    def test_membership_reads_p5(self):
        p = parse_query("p(A, B, C, D, E)")[0]
        assert membership_reads(parse_spec(P5_SPEC).s, p) == {"A"}
        assert membership_reads(parse_spec(P5_GUARDED_SPEC).s, p) == {"A", "B", "C", "D", "E"}

    def test_membership_reads_parts(self):
        p = parse_query("p(X, f(Y), Z)")[0]
        assert membership_reads(UNIVERSAL, p) == set()
        assert membership_reads(AtomSet(atoms=(Pred("q", (a,)),)), p) == set()
        assert membership_reads(AtomSet(atoms=(Pred("p", (a, a, a)),)), p) == {"X", "Y", "Z"}
        spec = "[S]\np(U, U, W).\n"  # U occurs twice: positions 0 and 1 are read
        assert membership_reads(parse_spec(spec).s, p) == {"X", "Y"}
        spec = "[S]\np(U, V, W) where notin(q(W), s).\nq(a).\n"
        assert membership_reads(parse_spec(spec).s, p) == {"Z"}
        spec = "[S]\np(U, V, W).\np(a, V, W).\n"  # every p/3 pattern counts
        assert membership_reads(parse_spec(spec).s, p) == {"X"}
        assert membership_reads(UNIVERSAL | parse_spec(spec).s, p) == {"X"}

    def test_level_reads(self):
        maps = {
            "m/2": LevelMapping("m", 2, 0, ((1, "len", 1),)),
            "s/2": LevelMapping("s", 2, 1, ((2, "size", 0), (0, "len", 1))),
        }
        reads = lambda text: level_reads(parse_query(text)[0], maps)
        assert reads("m(E, [E | L])") == {"L"}  # list elements are not read
        assert reads("m(E, L)") == {"L"}
        assert reads("m(E, [E, a])") == set()  # closed spine
        assert reads("m(E, [E | f(L)])") == set()  # a non-list tail has norm 0
        assert reads("s(f(X, [Y]), L)") == {"X", "Y"}  # coefficient 0 reads nothing
        assert level_reads(CUT, maps) == set()

