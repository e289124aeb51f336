import random

import pytest

from cutcheck import (
    Budget,
    Extensional,
    Intensional,
    Program,
    UNIVERSAL,
    UnionSet,
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
from cutcheck.atomsets import AtomPattern, Guard
from cutcheck.levels import LevelMapping, atom_level_bound, level_of
from cutcheck.syntax import resolve_alphabet
from cutcheck.terms import CUT, Alphabet, Pred, Var, const, make_list
from cutcheck.verdicts import Verdict, weakest

from conftest import load_program, load_spec_text

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
        s = Extensional((Pred("p", (a,)),))
        alpha = resolve_alphabet(prog)
        v = covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1)
        assert v.is_verified

    def test_body_must_lie_in_set(self):
        prog = parse_program("p(X) :- q(X).")
        s = Extensional((Pred("p", (a,)),))
        alpha = resolve_alphabet(prog)
        v = covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1)
        assert v.is_refuted

    def test_cut_in_body_ignored(self):
        prog = parse_program("p(X) :- !, q(X).")
        s = Extensional((Pred("p", (a,)), Pred("q", (a,))))
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
        s = Extensional((Pred("p"), Pred("q")))
        v = correct_check(prog, s, alphabet=resolve_alphabet(prog), depth=0)
        assert v.is_verified
        s2 = Extensional((Pred("q"),))
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
        pre = Extensional((Pred("p", (a,)),))
        post = UNIVERSAL
        # q(a) is not in pre, so the clause is not well-asserted
        v = well_asserted_clause(
            prog.clauses[0], pre, Extensional(()), alphabet=resolve_alphabet(prog), depth=1
        )
        assert v.is_refuted
        assert v.witness["position"] == 1

    def test_query_well_asserted_uses_fresh_predicate(self):
        prog = parse_program("p(a).")
        pre = Intensional((AtomPattern(Pred("p", (Var("X"),)), ()),))
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
        # at depth 2 the ground instances of in/2's clauses pass the cap
        v2 = recurrent_check(prog, suite.level_maps, alphabet=alpha, depth=2)
        assert v2.is_unknown and v2.reason == "instance cap 50000 hit at depth 2"

    def test_non_decreasing_refuted(self):
        prog = parse_program("p(X) :- p(X).\np(a).")
        maps = {"p/1": LevelMapping("p", 1, 0, ((1, "size", 0),))}
        v = recurrent_check(prog, maps, alphabet=resolve_alphabet(prog), depth=1)
        assert v.is_refuted

    def test_acceptable_uses_prefix(self):
        # the recursive call is guarded by q(X), false in S for the looping value
        prog = parse_program("p(X) :- q(X), p(a).\nq(b).")
        s = Extensional((Pred("q", (b,)), Pred("p", (b,)), Pred("p", (a,))))
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
        # 13^5 groundings at depth 2: the witness lies beyond the instance cap
        v2 = correct_check(prog, suite.s, alphabet=alpha, depth=2, resolver=suite.resolver)
        assert v2.is_unknown
        assert v2.reason == "instance cap 50000 hit at depth 2"

    def test_acceptable_returns_correct_checks_unknown(self):
        prog = parse_program(P5_PROGRAM)
        suite = parse_spec(P5_SPEC)
        alpha = resolve_alphabet(prog, (), suite)
        model = correct_check(prog, suite.s, alphabet=alpha, depth=2,
                              resolver=suite.resolver, cap=1000)
        v = acceptable_check(prog, suite.s, suite.level_maps, alphabet=alpha, depth=2,
                             resolver=suite.resolver, cap=1000)
        assert model.is_unknown
        assert v == model

    def test_level_loop_cap_still_reports_cap_hit(self):
        prog = parse_program(P5_PROGRAM)
        suite = parse_spec(P5_SPEC)
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
        # 13^5 groundings at depth 2: the witness lies beyond the instance cap
        v2 = recurrent_check(prog, suite.level_maps, alphabet=alpha, depth=2)
        assert v2.is_unknown and v2.reason == "instance cap 50000 hit at depth 2"

    def test_cover_search_cap_is_unknown(self):
        prog = parse_program("p(X) :- q(X), q(Y), q(Z).")
        s = UnionSet((Extensional((Pred("q", (a,)), Pred("q", (b,)))), Extensional(())))
        alpha = Alphabet((("a", 0), ("b", 0)), (("p", 1), ("q", 1)))
        v = covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1, cap=2)
        assert v.is_unknown and v.reason == "cover search visit cap 2 hit at depth 1"
        assert covered(Pred("p", (a,)), prog.clauses[0], s, alphabet=alpha, depth=1).is_verified

    def test_refuted_at_depth_d_never_verified_at_d_plus_1(self):
        rng = random.Random(1)
        preds = (("p", 1), ("q", 1), ("r", 2), ("s", 3))
        alpha = Alphabet((("a", 0), ("f", 1)), preds)

        def atom():
            name, arity = rng.choice(preds)
            args = (rng.choice(["a", "f(a)", "X", "Y", "Z", "f(X)", "f(Y)"]) for _ in range(arity))
            return f"{name}({', '.join(args)})"

        def level(name, arity):
            sized = tuple((1, "size", i) for i in range(arity) if rng.random() < 0.5)
            return LevelMapping(name, arity, rng.randint(0, 2), sized)

        checks = {
            "correct": lambda prog, s, maps, **kw: correct_check(prog, s, **kw),
            "recurrent": lambda prog, s, maps, **kw: recurrent_check(prog, maps, **kw),
            "acceptable": acceptable_check,
        }
        refuted = dict.fromkeys(checks, 0)
        for _ in range(150):
            clauses = []
            for _ in range(rng.randint(1, 3)):
                body = [atom() for _ in range(rng.randint(0, 2))]
                clauses.append(atom() + (" :- " + ", ".join(body) if body else "") + ".")
            prog = parse_program("\n".join(clauses))
            s = Intensional(tuple(AtomPattern(parse_query(atom())[0], ())
                                  for _ in range(rng.randint(1, 6))))
            maps = {f"{name}/{arity}": level(name, arity) for name, arity in preds}
            cap = rng.choice([2, 3, 4, 5, 6, 7, 8, 12, 30, 1000])
            for name, check in checks.items():
                for d in (1, 2):
                    if check(prog, s, maps, alphabet=alpha, depth=d, cap=cap).is_refuted:
                        refuted[name] += 1
                        after = check(prog, s, maps, alphabet=alpha, depth=d + 1, cap=cap)
                        assert not after.is_verified, (name, clauses, s, maps, cap, d)
        assert min(refuted.values()) > 100, refuted


class TestCompletenessCache:
    def test_cache_is_keyed_on_the_program(self):
        prog, suite, _ = setup_example("in.pl", "in.spec")
        without_m2 = Program(tuple(c for c in prog.clauses if c is not prog.clauses[3]))
        query = parse_query("in([2], [1, 2])")
        cache: dict = {}
        assert completeness_check(prog, query, suite, cache=cache).verdict.is_verified
        rep = completeness_check(without_m2, query, suite, cache=cache)
        assert not rep.verdict.is_verified
        assert rep.verdict.status == completeness_check(without_m2, query, suite).verdict.status
