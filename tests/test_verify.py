import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cutcheck.atomsets
import cutcheck.verify
from cutcheck import (
    AtomSet,
    Budget,
    Program,
    SpecSuite,
    UNIVERSAL,
    acceptable_check,
    completeness_check,
    correct_check,
    cs_correct,
    enumerate_atoms,
    oracle_tree_complete,
    parse_program,
    parse_query,
    parse_spec,
    recurrent_check,
    semi_complete,
)
from cutcheck.atomsets import (
    GUARDS, AtomPattern, CapHit, Guard, contains, guard_holds, membership_reads,
)
from cutcheck.cli import main
from cutcheck.levels import LevelMapping, level_of, level_reads
from cutcheck.syntax import atom_text, resolve_alphabet
from cutcheck.terms import (
    CUT, Alphabet, Clause, Compound, Pred, Var, apply, ground_atoms, ground_terms, is_ground,
    is_list, make_list, match, vars_of,
)
from cutcheck.verdicts import Verdict, weakest
from cutcheck.verify import (
    _CheckContext, _CoverSearch, _atom_size, _c_covered, _cover_verdict, _covering_instance,
    _cs_correct, _guard_facts, _query_transform, _s_coverage, _s_subset_post, _s_true_instances,
    _slice_coverage, _well_asserted, _well_asserted_query,
)

import full_product
from conftest import load_program, load_spec_text, search_answers, stage_context
from full_product import full_acceptable_check, full_correct_check, full_recurrent_check
from smoke import RELATIONAL_PRE_PROGRAM, RELATIONAL_PRE_SPEC

a, b, c = Compound("a"), Compound("b"), Compound("c")

# renames a pattern apart from its own variables and prints the variant
RENAME_IN_CHILD = (
    "from cutcheck import parse_spec\n"
    "from cutcheck.syntax import atom_text\n"
    "from cutcheck.terms import FreshNames, Pred\n"
    "from cutcheck.verify import _rename_pattern\n"
    "p = parse_spec('[S]\\napp(K, L, M) where ground_list(K), ground_list(L), "
    "concat(K, L, M).\\n').s.patterns[0]\n"
    "v = _rename_pattern(p, {'K', 'L', 'M'}, FreshNames())\n"
    "print(atom_text(v.template), 'where', "
    "', '.join(atom_text(Pred(g.name, g.args)) for g in v.guards))\n"
)


def _renamed_in_child(seed: str) -> str:
    """The variant ``RENAME_IN_CHILD`` prints in a fresh interpreter under
    ``PYTHONHASHSEED=seed``."""
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(cutcheck.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", RENAME_IN_CHILD], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.strip()


def set_caps(m, cap):
    """Set the instance cap and the visit cap to ``cap`` under the monkeypatch
    (or monkeypatch context) ``m``."""
    m.setattr(cutcheck.verify, "INSTANCE_CAP", cap)
    m.setattr(cutcheck.verify, "VISIT_CAP", cap)


def setup_example(pl, spec, depth=None):
    """The fixture program and spec, with the spec's depth replaced by
    ``depth`` when given, and the alphabet the checkers resolve from them."""
    prog = load_program(pl)
    suite = parse_spec(load_spec_text(spec))
    if depth is not None:
        suite = at_depth(suite, depth)
    alpha = resolve_alphabet(prog, (), suite)
    return prog, suite, alpha


def at_depth(suite: SpecSuite, depth: int, alphabet=None) -> SpecSuite:
    """``suite`` with its depth bound set to ``depth`` and, when given, its
    declared alphabet set to ``alphabet``."""
    suite = replace(suite, budget=replace(suite.budget, depth=depth))
    return suite if alphabet is None else replace(suite, alphabet=alphabet)


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
        atom = Pred("p", (make_list([a, b]), Compound("x")))
        assert level_of(atom, self.MAPS) == 1 + 2 + 2 * 1
        assert level_of(CUT, self.MAPS) == 0

    def test_level_requires_ground(self):
        with pytest.raises(ValueError):
            level_of(Pred("p", (Var("X"), a)), self.MAPS)

    def test_undeclared_predicate(self):
        with pytest.raises(KeyError):
            level_of(Pred("z", ()), self.MAPS)


class TestCovered:
    def test_fact_covers_itself(self):
        [clause] = parse_program("p(a).").clauses
        s = AtomSet(atoms=(Pred("p", (a,)),))
        atom = Pred("p", (a,))
        ctx = stage_context(clause, SpecSuite(s=s, budget=Budget(depth=1)), (atom,))
        assert _cover_verdict(atom, clause, match(clause.head, atom), ctx).is_verified

    def test_body_must_lie_in_set(self):
        [clause] = parse_program("p(X) :- q(X).").clauses
        s = AtomSet(atoms=(Pred("p", (a,)),))
        atom = Pred("p", (a,))
        ctx = stage_context(clause, SpecSuite(s=s, budget=Budget(depth=1)), (atom,))
        assert _cover_verdict(atom, clause, match(clause.head, atom), ctx).is_refuted

    def test_cut_in_body_ignored(self):
        [clause] = parse_program("p(X) :- !, q(X).").clauses
        s = AtomSet(atoms=(Pred("p", (a,)), Pred("q", (a,))))
        atom = Pred("p", (a,))
        ctx = stage_context(clause, SpecSuite(s=s, budget=Budget(depth=1)), (atom,))
        assert _cover_verdict(atom, clause, match(clause.head, atom), ctx).is_verified


class TestSemiCompleteAndCorrect:
    def test_append_semi_complete_small(self):
        prog, suite, _ = setup_example("append.pl", "append.spec", depth=2)
        v = semi_complete(prog, suite)
        assert v.is_verified

    def test_append_not_correct(self):
        # app([], 1, 1) has an empty (true) body but a head outside the set
        prog, suite, _ = setup_example("append.pl", "append.spec", depth=2)
        v = correct_check(prog, suite)
        assert v.is_refuted
        assert v.witness["head"].startswith("app([]")

    def test_correct_propositional(self):
        prog = parse_program("p :- q.\nq.")
        s = AtomSet(atoms=(Pred("p"), Pred("q")))
        v = correct_check(prog, SpecSuite(s=s, budget=Budget(depth=0)))
        assert v.is_verified
        s2 = AtomSet(atoms=(Pred("q"),))
        v2 = correct_check(prog, SpecSuite(s=s2, budget=Budget(depth=0)))
        assert v2.is_refuted


class TestWellAsserted:
    def test_in_program_well_asserted(self):
        prog, suite, _ = setup_example("in.pl", "in.spec", depth=2)
        v = cs_correct(prog, suite)
        assert v.is_verified

    def test_violating_clause_refuted_with_ground_witness(self):
        prog = parse_program("p(X) :- q(X).")
        pre = AtomSet(atoms=(Pred("p", (a,)),))
        post = UNIVERSAL
        # q(a) is not in pre, so the clause is not well-asserted
        suite = SpecSuite(pre=pre, post=AtomSet(), budget=Budget(depth=1))
        v = _well_asserted(prog.clauses[0], suite.pre, suite.post,
                           stage_context(prog.clauses[0], suite))
        assert v.is_refuted
        assert v.witness["position"] == 1

    @staticmethod
    def branch_capped(body):
        """The well-asserted verdict of ``p :- body.`` over constants a0..a8,
        with pre = {p, q(a0..a8)} and post = pre + {r(a0..a8)}: three q/1
        atoms with a free argument give 9^3 pattern branches."""
        consts = [f"a{i}" for i in range(9)]
        qs = " ".join(f"q({k})." for k in consts)
        rs = " ".join(f"r({k})." for k in consts)
        alphabet = " ".join(f"functor {k}/0." for k in consts)
        suite = parse_spec(f"[alphabet]\n{alphabet}\n[pre]\np. {qs}\n[post]\np. {qs} {rs}\n")
        prog = parse_program(f"p :- {body}.")
        suite = at_depth(suite, 1)
        return _well_asserted(prog.clauses[0], suite.pre, suite.post,
                              stage_context(prog.clauses[0], suite))

    def test_branch_cap_leaves_the_ground_search_to_refute(self, monkeypatch):
        v = self.branch_capped("r(W), q(X), q(Y), q(Z)")
        assert v.is_refuted and v.witness["position"] == 1
        assert v.witness["instance"] == "p :- r(a0), q(a0), q(a0), q(a0)."
        monkeypatch.setattr(cutcheck.verify, "_BRANCH_CAP", 10**6)
        assert self.branch_capped("r(W), q(X), q(Y), q(Z)") == v

    def test_branch_cap_without_a_ground_witness_is_unknown(self):
        v = self.branch_capped("q(X), q(Y), q(Z)")
        assert v.is_unknown and v.reason == "branch cap 512 hit"

    def test_only_a_pattern_of_the_atoms_predicate_is_renamed(self, monkeypatch):
        """A membership branch renames a pattern only when its template has
        the atom's name and arity, as the listed atoms are filtered: on
        in.pl's clauses, 4 renamings over in.spec's pre and post, against 8
        when every pattern of the set was renamed before unification
        rejected it."""
        renamed = []
        real = cutcheck.verify._rename_pattern

        def counted(p, forbidden, fresh):
            renamed.append(p.template.name)
            return real(p, forbidden, fresh)

        monkeypatch.setattr(cutcheck.verify, "_rename_pattern", counted)
        prog, suite, _ = setup_example("in.pl", "in.spec", depth=2)
        assert cs_correct(prog, suite).is_verified
        assert sorted(renamed) == ["in", "in", "m", "m"]

    def test_a_pattern_is_renamed_alike_under_every_hash_seed(self):
        """The fresh names of a pattern variant follow the pattern's variables
        in first-occurrence order, not the iteration order of a set, so two
        interpreters with different hash seeds build the same variant."""
        variants = {_renamed_in_child(seed) for seed in ("0", "1", "2", "3")}
        assert variants == {"app(K1, L2, M3) where ground_list(K1), ground_list(L2), "
                            "concat(K1, L2, M3)"}

    def test_query_well_asserted_uses_fresh_predicate(self):
        prog = parse_program("p(a).")
        pre = AtomSet(patterns=(AtomPattern(Pred("p", (Var("X"),)), ()),))
        suite = SpecSuite(pre=pre, post=UNIVERSAL, budget=Budget(depth=1))
        v = _well_asserted_query(stage_context(prog, suite, parse_query("p(Y)")))
        assert v.is_verified


class TestCCovered:
    def test_artificial_with_real_post(self):
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec", depth=1)
        atom = Pred("p", (a, c))
        v = _c_covered(atom, stage_context(prog, suite, (atom,)), True)
        assert v.is_verified

    def test_artificial_with_universal_post_lists_both_failures(self):
        prog, suite, _ = setup_example("artificial.pl", "artificial_posthb.spec", depth=1)
        atom = Pred("p", (a, c))
        v = _c_covered(atom, stage_context(prog, suite, (atom,)), True)
        assert v.is_refuted
        clause2 = dict(v.parts)["clause 2: p(X, Z) :- q(X, Y), !, r(Y, Z)."]
        conds = dict(clause2.parts)
        assert conds["condition 2 (earlier cut clauses)"].is_refuted
        assert conds["condition 3 (own cut)"].is_refuted

    @pytest.mark.parametrize("clauses, most", [(5, 8), (10, 18)])
    def test_condition_2_once_per_preceding_clause(self, monkeypatch, clauses, most):
        # r/1 is not in S, so no clause covers an atom and the loop reaches every clause
        prog = parse_program("p(X) :- q(X), !, r(X).\n" * clauses)
        suite = parse_spec("[S]\np(a). p(b). q(a). q(b).\n[pre]\nany.\n[post]\nany.\n"
                           "[bounds]\ndepth = 1.\n")
        calls = []
        cond2 = cutcheck.verify._cond2_preceding
        monkeypatch.setattr(cutcheck.verify, "_cond2_preceding",
                            lambda *args: calls.append(args) or cond2(*args))
        for atom in (Pred("p", (a,)), Pred("p", (b,))):
            v = _c_covered(atom, stage_context(prog, suite, (atom,)), True)
            assert v.is_refuted and len(v.parts) == clauses
        assert len(calls) <= most


class TestPipeline:
    def test_artificial_pipeline(self):
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec")
        rep = completeness_check(prog, parse_query("p(a, Z)"), suite)
        assert rep.verdict.is_verified
        assert oracle_tree_complete(prog, parse_query("p(a, Z)"), suite).is_verified

    @pytest.mark.parametrize("cap", [None, 2])
    def test_query_with_cut_library_and_cli_agree(self, fixtures_dir, tmp_path, capsys,
                                                  monkeypatch, cap):
        """``completeness_check`` rewrites a query with cut itself, and reports
        what ``check complete`` reports, also when the S extension passes the
        instance cap: then Unknown naming the cap, with no pruned tree."""
        if cap is not None:
            monkeypatch.setattr(cutcheck.verify, "INSTANCE_CAP", cap)
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec")
        report = completeness_check(prog, parse_query("p(a, Z), !"), suite)
        dot = tmp_path / "t.dot"
        code = main(["check", "complete", str(fixtures_dir / "artificial.pl"),
                     "--spec", str(fixtures_dir / "artificial.spec"),
                     "--query", "p(a, Z), !", "--json", "--dot", str(dot)])
        printed = json.loads(capsys.readouterr().out)
        want = json.loads(json.dumps(report.to_json_obj()))
        assert printed | {"timing_ms": 0} == want | {"timing_ms": 0}
        assert code == {"verified": 0, "refuted": 1, "unknown": 3}[report.verdict.status]
        if cap is None:
            assert report.pruned is not None and dot.exists()
            assert len(want["per_atom"]) > 0
        else:
            assert report.verdict.is_unknown
            assert report.verdict.reason == "instance cap 2 hit at depth 1"
            assert report.pruned is None and not dot.exists()
            assert want["witnesses"] == want["per_atom"] == []

    def test_query_transform_handles_cut(self):
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec")
        ctx = _query_transform(stage_context(prog, suite, parse_query("p(a, Z), !")))
        extra = ctx.program.clauses[len(prog.clauses):]
        assert len(extra) == 1 and extra[0].body[-1] is CUT
        assert len(ctx.query) == 1 and not any(x is CUT for x in ctx.query)
        rep = completeness_check(ctx.program, ctx.query, ctx.suite)
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
            v = _s_subset_post(stage_context(Program(), at_depth(listed, depth, alpha)))
            assert v.is_refuted and v.witness["atom"] == "p(f(f(f(a))))"
        inside = parse_spec("[S]\np(f(f(f(a)))).\n\n[post]\np(X).\n")
        v = _s_subset_post(stage_context(Program(), at_depth(inside, 1, alpha)))
        assert v.is_verified and v.reason == "all members probed"
        patterns = parse_spec("[S]\np(X) where ground(X).\n\n[post]\np(X).\n")
        v = _s_subset_post(stage_context(Program(), at_depth(patterns, 1, alpha)))
        assert v.is_verified and v.reason == "probe up to depth 1 passed"

    def test_violated_premise_reason_is_plain_text(self):
        prog = load_program("in.pl")
        suite = parse_spec(load_spec_text("in.spec").replace(
            "[post]\nany.", "[post]\nm(X, L) where ground_list(L)."))
        rep = completeness_check(prog, parse_query("in([1], [1, 2])"), suite)
        premise = dict(rep.verdict.parts)["S subset of post"]
        assert premise.is_unknown
        assert premise.reason == (
            "premise S subset-of post is violated: in([], []) is in S but not in post")

    def test_unknown_when_tree_truncated(self):
        prog = parse_program("p :- p.")
        suite = SpecSuite(budget=Budget(depth=1, nodes=5, steps=5))
        rep = completeness_check(prog, parse_query("p"), suite)
        assert rep.verdict.is_unknown


class TestTermination:
    def test_in_recurrent(self):
        prog, suite, _ = setup_example("in.pl", "in.spec")
        v = recurrent_check(prog, at_depth(suite, 1))
        assert v.is_verified
        # the levels read only T and L (E is a list element): 147^2 instances at depth 2
        v2 = recurrent_check(prog, at_depth(suite, 2))
        assert v2.is_verified and v2.reason == "no counterexample within depth 2"

    def test_non_decreasing_refuted(self):
        prog = parse_program("p(X) :- p(X).\np(a).")
        maps = {"p/1": LevelMapping("p", 1, 0, ((1, "size", 0),))}
        v = recurrent_check(prog, SpecSuite(level_maps=maps, budget=Budget(depth=1)))
        assert v.is_refuted

    def test_acceptable_uses_prefix(self):
        # the recursive call is guarded by q(X), false in S for the looping value
        prog = parse_program("p(X) :- q(X), p(a).\nq(b).")
        s = AtomSet(atoms=(Pred("q", (b,)), Pred("p", (b,)), Pred("p", (a,))))
        maps = {
            "p/1": LevelMapping("p", 1, 0, ((1, "size", 0),)),
            "q/1": LevelMapping("q", 1, 0, ()),
        }
        v = acceptable_check(prog, SpecSuite(s=s, level_maps=maps, budget=Budget(depth=1)))
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



# constants a and b, and the predicates the cap-site tests use, at depth 1
CAP_HEADER = ("[alphabet]\nfunctor a/0.\nfunctor b/0.\npredicate p/1.\npredicate p/2.\n"
              "predicate q/1.\npredicate r/1.\n[bounds]\ndepth = 1.\n")


class TestCapSites:
    """Each site where a check stops at a cap answers Unknown, with a reason
    naming the cap, its value and the depth, under a cap lowered for the test."""

    @staticmethod
    def clause_condition(v: Verdict, clause: str, condition: int) -> Verdict:
        """The verdict of condition 1, 2 or 3 of ``clause`` in a ``_c_covered`` verdict."""
        return dict(v.parts)[clause].parts[condition - 1][1]

    def test_semi_complete_enumeration_of_s(self, monkeypatch):
        monkeypatch.setattr(cutcheck.atomsets, "ENUM_CAP", 3)  # S holds 10 atoms
        prog = parse_program("p(a).\nq(b).")
        suite = parse_spec(CAP_HEADER + "[S]\nany.\n")
        v = semi_complete(prog, suite)
        assert v.is_unknown and v.reason == "universal enumeration cap 3 hit at depth 1"

    def test_ground_well_asserted_search_counts_over_all_heads(self, monkeypatch):
        # two heads in pre, two groundings of Y each: 4 instances, no head past the cap
        monkeypatch.setattr(cutcheck.verify, "INSTANCE_CAP", 3)
        clause = parse_program("p(X) :- q(Y).").clauses[0]
        suite = parse_spec(CAP_HEADER + "[pre]\np(a).\np(b).\nq(a).\nq(b).\n"
                           "[post]\np(a).\np(b).\nq(a).\nq(b).\n")
        v = _well_asserted(clause, suite.pre, suite.post, stage_context(clause, suite))
        assert v.is_unknown and v.reason == "instance cap 3 hit at depth 1"

    # p(a, a) lies in pre only through a pattern with no closed form: a lattice walk
    GEN_SPEC = (CAP_HEADER + "[S]\np(a, a).\nq(a).\nr(a).\n[pre]\np(X, Y) where eq(X, Y).\n"
                "[post]\nany.\n")

    def test_condition_2_generalizations(self, monkeypatch):
        monkeypatch.setattr(cutcheck.atomsets, "GENERALIZATION_CAP", 1)
        prog = parse_program("p(X, Y) :- q(X), !.\np(X, Y) :- r(X).")
        atom = Pred("p", (a, a))
        v = _c_covered(atom, stage_context(prog, parse_spec(self.GEN_SPEC), (atom,)), True)
        cond2 = self.clause_condition(v, "clause 2: p(X, Y) :- r(X).", 2)
        assert v.is_unknown and cond2 == Verdict.unknown("generalization cap 1 hit")

    def test_condition_3_generalizations(self, monkeypatch):
        monkeypatch.setattr(cutcheck.atomsets, "GENERALIZATION_CAP", 1)
        prog = parse_program("p(X, Y) :- q(X), !.")
        atom = Pred("p", (a, a))
        v = _c_covered(atom, stage_context(prog, parse_spec(self.GEN_SPEC), (atom,)), True)
        cond3 = self.clause_condition(v, "clause 1: p(X, Y) :- q(X), !.", 3)
        assert v.is_unknown and cond3 == Verdict.unknown("generalization cap 1 hit")

    def test_condition_2_grounding(self, monkeypatch):
        # the search for q(X), r(X) in post visits q(a) and q(b), each to fail on r
        monkeypatch.setattr(cutcheck.verify, "VISIT_CAP", 2)
        prog = parse_program("p(X) :- q(X), r(X), !.\np(X) :- q(X).")
        suite = parse_spec(CAP_HEADER + "[S]\np(a).\nq(a).\n[pre]\nany.\n"
                           "[post]\np(a).\nq(a).\nq(b).\n")
        atom = Pred("p", (a,))
        v = _c_covered(atom, stage_context(prog, suite, (atom,)), True)
        cond2 = self.clause_condition(v, "clause 2: p(X) :- q(X).", 2)
        assert v.is_unknown
        assert cond2 == Verdict.unknown("cover search visit cap 2 hit at depth 1")

    def test_condition_2_non_exhaustive_search(self):
        # post holds q/1 by a pattern, so the search enumerates it and cannot be exhaustive
        prog = parse_program("p(X) :- q(X), r(X), !.\np(X) :- q(X).")
        suite = parse_spec(CAP_HEADER + "[S]\np(a).\nq(a).\n[pre]\nany.\n"
                           "[post]\np(a).\nq(X).\n")
        atom = Pred("p", (a,))
        v = _c_covered(atom, stage_context(prog, suite, (atom,)), True)
        cond2 = self.clause_condition(v, "clause 2: p(X) :- q(X).", 2)
        assert v.is_unknown and cond2 == Verdict.unknown(
            "cover search for the preceding clause exhausted depth 1")

    def test_s_subset_post_enumeration_of_s(self, monkeypatch):
        monkeypatch.setattr(cutcheck.atomsets, "ENUM_CAP", 3)  # S holds 10 atoms
        prog = parse_program("q(a).\nr(a).")
        suite = parse_spec(CAP_HEADER + "[S]\nany.\n[post]\nq(a).\n")
        v = _s_subset_post(stage_context(prog, suite))
        assert v.is_unknown and v.reason == "universal enumeration cap 3 hit at depth 1"

    def test_s_coverage_enumeration_of_s(self, monkeypatch):
        monkeypatch.setattr(cutcheck.atomsets, "ENUM_CAP", 3)
        prog = parse_program("q(a).\nr(a).")
        suite = parse_spec(CAP_HEADER + "[S]\nany.\n")
        v = _s_coverage(stage_context(prog, suite), True)
        assert v.is_unknown and v.reason == "universal enumeration cap 3 hit at depth 1"

    def test_oracle_tree_budget(self):
        prog = parse_program("p :- p.\np.")
        suite = replace(parse_spec(CAP_HEADER + "[S]\nany.\n"), budget=Budget(depth=1, steps=20))
        v = oracle_tree_complete(prog, parse_query("p"), suite)
        assert v.is_unknown and v.reason == "tree step budget 20 exhausted; answers may be missing"

    def test_oracle_s_true_instances(self, monkeypatch):
        # every instance is answered, and the four groundings of X and Y pass the cap
        monkeypatch.setattr(cutcheck.verify, "INSTANCE_CAP", 3)
        prog = parse_program("p(X, Y).")
        suite = parse_spec(CAP_HEADER + "[S]\nany.\n")
        v = oracle_tree_complete(prog, parse_query("p(X, Y)"), suite)
        assert v.is_unknown and v.reason == "instance cap 3 hit at depth 1"


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
        v1 = correct_check(prog, at_depth(suite, 1))
        assert v1.is_refuted
        assert v1.witness["head"] == "p(g(a, a), a, a, a, a)"
        # S reads only A, so 13 groundings at depth 2 reach the same witness
        v2 = correct_check(prog, at_depth(suite, 2))
        assert v2.is_refuted
        assert v2.witness == v1.witness

    def test_acceptable_returns_correct_checks_unknown(self, monkeypatch):
        # S reads all five arguments of p/5: 13^5 groundings pass the cap
        prog = parse_program(P5_PROGRAM)
        suite = at_depth(parse_spec(P5_GUARDED_SPEC), 2)
        set_caps(monkeypatch, 1000)
        model = correct_check(prog, suite)
        v = acceptable_check(prog, suite)
        assert model.is_unknown
        assert v == model

    def test_level_loop_cap_still_reports_cap_hit(self, monkeypatch):
        # the level of p/5 reads all five arguments: 13^5 groundings pass the cap
        prog = parse_program(P5_PROGRAM)
        suite = parse_spec(P5_SIZED_SPEC)
        monkeypatch.setattr(cutcheck.verify, "INSTANCE_CAP", 1000)
        v = recurrent_check(prog, at_depth(suite, 2))
        assert v.is_unknown and v.reason == "instance cap 1000 hit at depth 2"

    def test_level_loop_refuted_then_unknown_not_verified(self):
        prog = parse_program(LEVEL_PROGRAM)
        suite = parse_spec(LEVEL_SPEC)
        v1 = recurrent_check(prog, at_depth(suite, 1))
        assert v1.is_refuted
        assert v1.witness["instance"] == "p(g(a, a), a, a, a, a) :- r(g(a, a))."
        # the levels read only A, so 13 groundings at depth 2 reach the same witness
        v2 = recurrent_check(prog, at_depth(suite, 2))
        assert v2.is_refuted and v2.witness == v1.witness

    def test_universal_pre_enumeration_stops_at_its_cap(self):
        # pre = any: refuting the head needs p/5 heads, 3^5 at depth 1 and 13^5 at depth 2
        prog = parse_program(P5_PROGRAM)
        suite = parse_spec(P5_SPEC.split("[S]")[0] + "[post]\nq.\np(a, B, C, D, E).\n")
        v1 = cs_correct(prog, at_depth(suite, 1))
        assert v1.is_refuted and v1.witness["atom"] == "p(f(a), a, a, a, a)"
        v2 = cs_correct(prog, at_depth(suite, 2))
        assert v2.is_unknown
        clause1 = dict(v2.parts)["clause 1: p(A, B, C, D, E) :- q."]
        assert clause1.reason == "universal enumeration cap 50000 hit at depth 2"

    def test_cover_search_cap_is_unknown(self, monkeypatch):
        prog = parse_program("p(X) :- q(X), q(Y), q(Z).")
        alpha = Alphabet((("a", 0), ("b", 0)), (("p", 1), ("q", 1)))
        suite = SpecSuite(s=AtomSet(atoms=(Pred("q", (a,)), Pred("q", (b,)))), alphabet=alpha,
                          budget=Budget(depth=1))
        [clause], atom = prog.clauses, Pred("p", (a,))
        theta = match(clause.head, atom)
        with monkeypatch.context() as m:
            m.setattr(cutcheck.verify, "VISIT_CAP", 2)
            v = _cover_verdict(atom, clause, theta, stage_context(clause, suite, (atom,)))
        assert v.is_unknown and v.reason == "cover search visit cap 2 hit at depth 1"
        assert _cover_verdict(atom, clause, theta, stage_context(clause, suite, (atom,))).is_verified

    def test_cover_search_cap_on_a_ground_body(self, monkeypatch):
        # the head match leaves the body ground: one visit per atom found, one for the end
        prog = parse_program("p(X) :- q(X), !, q(X), q(X).")
        alpha = Alphabet((("a", 0), ("b", 0)), (("p", 1), ("q", 1)))
        suite = SpecSuite(s=AtomSet(atoms=(Pred("q", (a,)),)), alphabet=alpha,
                          budget=Budget(depth=1))
        [clause], atom = prog.clauses, Pred("p", (a,))
        theta = match(clause.head, atom)
        for cap in (1, 2, 3):
            monkeypatch.setattr(cutcheck.verify, "VISIT_CAP", cap)
            v = _cover_verdict(atom, clause, theta, stage_context(clause, suite, (atom,)))
            assert v.is_unknown and v.reason == f"cover search visit cap {cap} hit at depth 1"
        monkeypatch.setattr(cutcheck.verify, "VISIT_CAP", 4)
        v = _cover_verdict(atom, clause, theta, stage_context(clause, suite, (atom,)))
        assert v.is_verified and v.witness["instance"] == "p(a) :- q(a), !, q(a), q(a)."
        sp = AtomSet(atoms=(Pred("q", (a,)), Pred("p", (a,))))
        all_sp = replace(suite, s=sp, pre=sp, post=sp)
        for cap, status in ((2, "unknown"), (3, "verified")):  # condition 3 probes q(a), q(a)
            set_caps(monkeypatch, cap)
            assert _c_covered(atom, stage_context(prog, all_sp, (atom,)), True).status == status
        missing = AtomSet(atoms=(Pred("q", (b,)),))  # the first probe fails before any cap
        monkeypatch.setattr(cutcheck.verify, "VISIT_CAP", 1)
        v = _cover_verdict(atom, clause, theta,
                           stage_context(clause, replace(suite, s=missing), (atom,)))
        assert v.is_refuted and v.witness["note"] == "no ground body instance in the set"

    def test_refuted_at_depth_d_never_verified_at_d_plus_1(self, monkeypatch):
        rng = random.Random(1)
        refuted = dict.fromkeys(CHECKS, 0)
        for clauses, prog, s, maps in random_check_cases(rng, 150):
            cap = rng.choice(RANDOM_CAPS)
            set_caps(monkeypatch, cap)
            for name, check in CHECKS.items():
                for d in (1, 2):
                    if check(prog, af_suite(s, maps, d)).is_refuted:
                        refuted[name] += 1
                        after = check(prog, af_suite(s, maps, d + 1))
                        assert not after.is_verified, (name, clauses, s, maps, cap, d)
        assert min(refuted.values()) > 100, refuted


AF_PREDS = (("p", 1), ("q", 1), ("r", 2), ("s", 3))
AF_ALPHA = Alphabet((("a", 0), ("f", 1)), AF_PREDS)
RANDOM_CAPS = [2, 3, 4, 5, 6, 7, 8, 12, 30, 1000]
CHECKS = {"correct": correct_check, "recurrent": recurrent_check, "acceptable": acceptable_check}
FULL_CHECKS = {
    "correct": full_correct_check,
    "recurrent": full_recurrent_check,
    "acceptable": full_acceptable_check,
}


def af_suite(s, maps, depth) -> SpecSuite:
    return SpecSuite(s=s, level_maps=maps, alphabet=AF_ALPHA, budget=Budget(depth=depth))


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

    def compare(self, monkeypatch, cases, alphabet):
        counts = {"equal": 0, "refuted": 0, "capped": 0, "rechecked": 0}
        for clauses, prog, s, maps, cap in cases:
            for name in CHECKS:
                for d in (1, 2):
                    suite = SpecSuite(s=s, level_maps=maps, alphabet=alphabet,
                                      budget=Budget(depth=d))
                    for c in (10**6, cap):  # 10**6: a cap the full product never reaches
                        full_product.CAP_HITS.clear()
                        set_caps(monkeypatch, c)
                        want = FULL_CHECKS[name](prog, suite, c)
                        got = CHECKS[name](prog, suite)
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
                            assert_real_counterexample(name, prog, s, maps, got, suite.resolver)
                            counts["rechecked"] += 1
        return counts

    def test_equal_to_full_product_on_random_programs(self, monkeypatch):
        rng = random.Random(1)
        cases = ((*case, rng.choice(RANDOM_CAPS)) for case in random_check_cases(rng, 150))
        counts = self.compare(monkeypatch, cases, AF_ALPHA)
        assert counts["equal"] > 1500 and counts["refuted"] > 1000, counts
        assert counts["capped"] > 40 and counts["rechecked"] > 10, counts

    def test_equal_to_full_product_on_list_programs(self, monkeypatch):
        rng = random.Random(2)
        cases = ((*case, rng.choice(RANDOM_CAPS)) for case in random_list_cases(rng, 100))
        counts = self.compare(monkeypatch, cases, LIST_ALPHA)
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



FIXTURE_PAIRS = (
    ("append.pl", "append.spec"),
    ("in.pl", "in.spec"),
    ("artificial.pl", "artificial.spec"),
    ("artificial.pl", "artificial_posthb.spec"),
    ("notp.pl", "notp.spec"),
    ("notp.pl", "notp_nonground.spec"),
)


def semi_complete_atom_by_atom(program, suite):
    """``semi_complete``'s verdict, from one ``_cover_verdict`` call per atom
    and clause, each with a context of its own."""
    try:
        atoms = enumerate_atoms(suite.s, resolve_alphabet(program, (), suite), suite.budget.depth,
                                suite.resolver)
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    per_atom = []
    for a in atoms:
        verdict = None
        for _, clause in program.matching(a):
            v = _cover_verdict(a, clause, match(clause.head, a),
                               stage_context(clause, suite, (a,)))
            if v.is_verified:
                verdict = Verdict.verified()
                break
            if v.is_unknown and verdict is None:
                verdict = v
        text = atom_text(a)
        per_atom.append((text, verdict or Verdict.refuted({"atom": text, "note": "not covered"})))
    return weakest([v for _, v in per_atom], tuple(per_atom))


def c_coverage_atom_by_atom(program, suite):
    """The c-coverage stage's verdict, from one ``_c_covered`` call per atom,
    each with a context of its own.  The premise S subset-of post is checked
    once, as the stage does, so that the reference stays linear in S."""
    try:
        atoms = enumerate_atoms(suite.s, resolve_alphabet(program, (), suite), suite.budget.depth,
                                suite.resolver)
    except CapHit as exc:
        return Verdict.unknown(str(exc))
    premise = _s_subset_post(stage_context(program, suite)).is_verified
    per_atom = [(atom_text(a), _c_covered(a, stage_context(program, suite, (a,)), premise))
                for a in atoms]
    return weakest([v for _, v in per_atom], tuple(per_atom))


class TestCoverContext:
    """The two loops over S share one context per loop; their verdict trees
    are the ones the per-atom entry points give without one."""

    def check(self, program, suite, alphabet, depth):
        suite = at_depth(suite, depth, alphabet)
        got = semi_complete(program, suite)
        want = semi_complete_atom_by_atom(program, suite)
        assert got.to_json_obj() == want.to_json_obj()
        ctx = stage_context(program, suite)
        got = _s_coverage(ctx, _s_subset_post(ctx).is_verified)
        want = c_coverage_atom_by_atom(program, suite)
        assert got.to_json_obj() == want.to_json_obj()
        return got, len(got.parts)

    @pytest.mark.parametrize("pl, spec", FIXTURE_PAIRS)
    @pytest.mark.parametrize("depth", [1, 2])
    def test_fixtures(self, pl, spec, depth):
        prog, suite, alpha = setup_example(pl, spec)
        _, atoms = self.check(prog, suite, alpha, depth)
        assert atoms > 0

    def test_seeded_programs_and_specs(self):
        rng = random.Random(11)
        statuses, atoms, deep = set(), 0, 0
        for _, prog, _, _ in random_list_cases(rng, 100):
            sets = ["\n".join(rng.sample(LIST_SETS, rng.randint(1, 3))) for _ in range(3)]
            pre = rng.choice(["any.", sets[1]])
            post = rng.choice(["any.", sets[0], sets[2]])
            suite = parse_spec(f"[S]\n{sets[0]}\n[pre]\n{pre}\n[post]\n{post}\n")
            for depth in (1, 2):
                # at depth 2 an unguarded m/2 pattern has 1,444 atoms: too slow for Tier-1;
                # S sets of 722 to 759 atoms (list(L) patterns) stay in
                if depth == 2 and len(enumerate_atoms(suite.s, LIST_ALPHA, 2, suite.resolver)) > 800:
                    continue
                got, n = self.check(prog, suite, LIST_ALPHA, depth)
                statuses.add(got.status)
                atoms += n
                deep += depth == 2
        assert statuses == {"verified", "refuted", "unknown"}, statuses
        assert atoms > 15000 and deep > 75, (atoms, deep)


def rename_pattern_vars(s: AtomSet, rng, pool) -> AtomSet:
    """``s`` with the variables of each pattern renamed, injectively within
    the pattern, to names drawn from ``pool``."""
    patterns = []
    for p in s.patterns:
        names = set(vars_of(p.template))
        for g in p.guards:
            names.update(n for x in g.args if not isinstance(x, str) for n in vars_of(x))
        names = sorted(names)
        mapping = {n: Var(m) for n, m in zip(names, rng.sample(pool, len(names)))}
        guards = tuple(Guard(g.name, tuple(x if isinstance(x, str) else apply(mapping, x)
                                           for x in g.args))
                       for g in p.guards)
        patterns.append(AtomPattern(apply(mapping, p.template), guards))
    return AtomSet(s.universal, s.atoms, tuple(patterns))


class TestPatternVariableNames:
    """The names of pre and post pattern variables are bound locally: no
    renaming of them, onto the names of clause variables included, changes
    a well-assertedness verdict."""

    # the clause variables of the programs below, pattern variables and fresh names
    POOL = ["X", "T", "L", "A", "B", "W1", "W2", "W3", "W4"]

    def test_renaming_keeps_the_verdict_trees(self):
        rng = random.Random(14)
        statuses = set()
        for _, prog, _, _ in random_list_cases(rng, 300):
            sets = ["\n".join(rng.sample(LIST_SETS, rng.randint(1, 3))) for _ in range(2)]
            suite = parse_spec(f"[S]\nm(A, B).\n[pre]\n{sets[0]}\n[post]\n{sets[1]}\n")
            clause = prog.clauses[0]
            query = (clause.head,) + clause.body
            suite = at_depth(suite, 1, LIST_ALPHA)
            want_cs = cs_correct(prog, suite).to_json_obj()
            want_q = _well_asserted_query(stage_context(prog, suite, query)).to_json_obj()
            for _ in range(5):
                pre = rename_pattern_vars(suite.pre, rng, self.POOL)
                post = rename_pattern_vars(suite.post, rng, self.POOL)
                renamed = replace(suite, pre=pre, post=post)
                got = cs_correct(prog, renamed)
                assert got.to_json_obj() == want_cs, (prog, pre, post)
                got = _well_asserted_query(stage_context(prog, renamed, query))
                assert got.to_json_obj() == want_q, (query, pre, post)
                statuses.add(got.status)
        assert statuses == {"verified", "refuted", "unknown"}, statuses


def probed_covering_instance(a, clause, s, ctx, cap):
    """``_covering_instance`` for a clause whose body the head match leaves
    ground, from ``contains`` alone: the body's atoms are probed in order,
    one visit each, and one more for the end of the body; past ``cap``
    visits the answer is Unknown."""
    body = apply(match(clause.head, a), clause.body)
    atoms = [b for b in body if b is not CUT]
    failing = next((i for i, b in enumerate(atoms) if not contains(s, b, ctx.resolver)), None)
    visits = len(atoms) + 1 if failing is None else failing + 1
    if visits > cap:
        return "unknown", f"cover search visit cap {cap} hit at depth {ctx.depth}"
    if failing is None:
        return "verified", Clause(a, body)
    return "refuted", "no ground body instance in the set"


class TestDirectProbe:
    """``_covering_instance`` against references outside the cover search.
    A body the head match leaves ground is decided as probing its atoms
    with ``contains`` decides it, at the visit cap too, and also where a
    pass over the set has enumerated it for ``in_set`` to look atoms up in
    (depth 2 here).  Otherwise a
    Verified instance is a ground instance of the clause with head ``a``
    and every body atom in the set, and a Refuted one leaves no grounding
    of the body's variables over the terms up to the depth inside the set."""

    def test_covering_instance_against_contains(self, monkeypatch):
        rng = random.Random(16)
        counts = dict.fromkeys(["verified", "refuted", "unknown", "ground", "open verified",
                                "open refuted", "open unknown"], 0)
        for _, prog, _, _ in random_list_cases(rng, 150):
            s = parse_spec("[S]\n" + "\n".join(rng.sample(LIST_SETS, rng.randint(1, 3)))).s
            for depth in (1, 2):
                ctx = stage_context(Program(), at_depth(SpecSuite(s=s), depth, LIST_ALPHA))
                if depth == 2:
                    ctx.members(s)
                atoms = list(ground_atoms(LIST_ALPHA, depth))
                terms = ground_terms(LIST_ALPHA, depth)
                # each clause, and each clause cut short before a cut (condition 1's prefix)
                clauses = list(prog.clauses) + [
                    Clause(c.head, c.body[:i]) for c in prog.clauses
                    for i, b in enumerate(c.body) if b is CUT
                ]
                for a in rng.sample(atoms, 12):
                    for clause in clauses:
                        theta = match(clause.head, a)
                        if theta is None:
                            continue
                        body = apply(theta, clause.body)
                        n = sum(g is not CUT for g in body)
                        for cap in {1, n, n + 1, n + 2, 50_000}:
                            monkeypatch.setattr(cutcheck.verify, "VISIT_CAP", cap)
                            got = _covering_instance(a, clause, theta, ctx)
                            counts[got[0]] += 1
                            if is_ground(body):
                                counts["ground"] += 1
                                assert got == probed_covering_instance(a, clause, s, ctx, cap), (
                                    a, clause, s, depth, cap)
                                continue
                            counts["open " + got[0]] += 1
                            if got[0] == "verified":
                                instance = got[1]
                                assert is_ground(instance) and instance.head == a
                                assert match(body, instance.body) is not None
                                assert all(b is CUT or contains(s, b, ctx.resolver)
                                           for b in instance.body)
                            elif got[0] == "refuted":
                                names = vars_of(body)
                                for combo in itertools.product(terms, repeat=len(names)):
                                    grounded = apply(dict(zip(names, combo)), body)
                                    assert not all(b is CUT or contains(s, b, ctx.resolver)
                                                   for b in grounded), (a, clause, s, depth)
        assert min(counts[k] for k in ("verified", "refuted", "unknown", "ground")) > 200, counts
        assert min(counts["open verified"], counts["open refuted"]) > 20, counts


class TestClosedFormGeneralizations:
    def test_relational_pre_keeps_the_lattice_verdicts(self, monkeypatch):
        prog = parse_program(RELATIONAL_PRE_PROGRAM)
        suite = at_depth(parse_spec(RELATIONAL_PRE_SPEC), 1)

        def stages():
            ctx = stage_context(prog, suite)
            premise = _s_subset_post(ctx)
            return [v.to_json_obj() for v in (premise, _cs_correct(ctx),
                                              _s_coverage(ctx, premise.is_verified))]

        got = stages()
        # every pattern walks the generalization lattice
        monkeypatch.setattr(AtomPattern, "closed_form", property(lambda self: None))
        want = stages()
        assert got == want
        coverage = got[2]
        assert coverage["status"] == "refuted" and len(coverage["parts"]) == 18

    def test_forced_pre_past_the_walk_cap(self):
        # the lattice walk over this atom's generalizations passes its cap of
        # 8192, so condition 3 read Unknown; the closed form decides it
        prog = parse_program("p(L, L) :- !.")
        suite = parse_spec("[S]\np([1, 1, 1, 1, 1], [1, 1, 1, 1, 1]).\n"
                           "[pre]\np(X, Y) where ground_list(Y), eq(X, Y).\n[post]\nany.\n")
        [a] = suite.s.atoms
        v = _c_covered(a, stage_context(prog, at_depth(suite, 1), (a,)), True)
        [(_, clause)] = v.parts
        assert v.is_verified and clause.parts[2] == ("condition 3 (own cut)", Verdict.verified())

    def test_free_variable_past_the_walk_cap(self):
        # eq forces X ground and leaves Y free: the closed form generalises Y
        # where the lattice walk passed its cap of 8192 and condition 3 read Unknown
        prog = parse_program("p(L, M) :- !.")
        suite = parse_spec("[S]\np([1, 1, 1, 1, 1], [1, 1, 1, 1, 1]).\n"
                           "[pre]\np(X, Y) where eq(X, [1, 1, 1, 1, 1]).\n[post]\nany.\n")
        [a] = suite.s.atoms
        v = _c_covered(a, stage_context(prog, at_depth(suite, 1), (a,)), True)
        [(_, clause)] = v.parts
        assert v.is_verified and clause.parts[2] == ("condition 3 (own cut)", Verdict.verified())


def whole_s_report(program, query, suite, monkeypatch):
    """``completeness_check`` with the query's slice always giving way to the
    whole of S."""
    with monkeypatch.context() as m:
        m.setattr(cutcheck.verify, "_slice_coverage", lambda *args: None)
        return completeness_check(program, query, suite)


def report_obj(report):
    return report.to_json_obj() | {"timing_ms": 0}


def slice_taken(report) -> bool:
    coverage = dict(report.verdict.parts)["every S atom c-covered"]
    return (coverage.reason or "").startswith("query slice of S: ")


# query arguments with at most the one variable X
SLICE_QUERY_ARGS = ("[]", "[1]", "1", "[1, 1]", "[1 | X]", "[X]", "X")


class TestQuerySlice:
    """The c-coverage stage closes the query's slice of S or gives way to
    the whole of S, with the whole-S report then unchanged."""

    def test_seeded_programs_specs_and_queries(self, monkeypatch):
        """A Verified report over a closed slice is never refuted by
        ``oracle_tree_complete``, and ``prolog_search`` answers every S-true
        instance; where the whole-S report is Verified, so is the slice's."""
        rng = random.Random(19)
        counts = {"closed": 0, "verified": 0, "searched": 0, "fallback": 0}
        for _, prog, _, _ in random_list_cases(rng, 60):
            sets = ["\n".join(rng.sample(LIST_SETS, rng.randint(1, 3))) for _ in range(3)]
            pre = rng.choice(["any.", sets[1]])
            post = rng.choice(["any.", sets[0], sets[2]])
            suite = parse_spec(f"[S]\n{sets[0]}\n[pre]\n{pre}\n[post]\n{post}\n")
            for depth in (1, 2):
                # whole-S reports over more depth-2 atoms are too slow for Tier-1
                if depth == 2 and len(enumerate_atoms(suite.s, LIST_ALPHA, 2, suite.resolver)) > 300:
                    continue
                bounded = replace(suite, alphabet=LIST_ALPHA,
                                  budget=Budget(depth=depth, nodes=300, steps=300))
                for _ in range(3):
                    name, arity = rng.choice(LIST_PREDS)
                    args = ", ".join(rng.choice(SLICE_QUERY_ARGS) for _ in range(arity))
                    query = parse_query(f"{name}({args})")
                    got = completeness_check(prog, query, bounded)
                    want = whole_s_report(prog, query, bounded, monkeypatch)
                    context = (prog, suite, query, depth)
                    if not slice_taken(got):
                        assert report_obj(got) == report_obj(want), context
                        counts["fallback"] += 1
                        continue
                    counts["closed"] += 1
                    assert got.verdict.is_verified or not want.verdict.is_verified, context
                    if not got.verdict.is_verified:
                        continue
                    counts["verified"] += 1
                    assert not oracle_tree_complete(prog, query, bounded).is_refuted, context
                    search, answers = search_answers(prog, query, Budget(steps=2000))
                    if search.exact:
                        counts["searched"] += 1
                        for _, inst in _s_true_instances(stage_context(prog, bounded, query)):
                            assert any(match(ans, inst) is not None for ans in answers), (
                                context, inst)
        assert counts["closed"] > 150 and counts["fallback"] > 80, counts
        assert counts["verified"] > 25 and counts["searched"] > 25, counts

    @pytest.mark.parametrize("pl, spec, query", [
        ("artificial.pl", "artificial_posthb.spec", "p(a, Z)"),
        ("notp.pl", "notp_nonground.spec", "notp(b)"),
    ])
    def test_failed_condition_falls_back(self, monkeypatch, pl, spec, query):
        prog, suite, _ = setup_example(pl, spec)
        got = completeness_check(prog, parse_query(query), suite)
        assert not slice_taken(got) and got.verdict.is_refuted
        assert report_obj(got) == report_obj(whole_s_report(prog, parse_query(query), suite,
                                                            monkeypatch))

    def test_incomplete_query_not_verified(self):
        prog, suite, _ = setup_example("in.pl", "in.spec")
        query = parse_query("in([X], [1, 2])")
        got = completeness_check(prog, query, suite)
        assert slice_taken(got) and not got.verdict.is_verified
        assert oracle_tree_complete(prog, query, suite).is_refuted

    def test_ground_slice(self):
        prog, suite, _ = setup_example("in.pl", "in.spec", depth=3)
        got = completeness_check(prog, parse_query("in([1], [1, 2])"), suite)
        assert got.verdict.is_verified
        assert dict(got.verdict.parts)["every S atom c-covered"].reason == (
            "query slice of S: 3 atoms c-covered")
        assert got.per_atom == [("in([1], [1, 2])", "verified"), ("in([], [1, 2])", "verified"),
                                ("m(1, [1, 2])", "verified")]

    def test_long_list_passes_the_slice_cap(self, monkeypatch):
        prog, suite, _ = setup_example("in.pl", "in.spec", depth=1)
        cells = lambda n: parse_query("in([" + ", ".join(["1"] * n) + "], [1])")
        short = completeness_check(prog, cells(10), suite)
        assert slice_taken(short) and len(short.per_atom) == 12
        size = sum(_atom_size(parse_query(text)[0]) for text, _ in short.per_atom)
        assert size <= cutcheck.verify.SLICE_CAP
        monkeypatch.setattr(cutcheck.verify, "SLICE_CAP", size - 1)
        assert report_obj(completeness_check(prog, cells(10), suite)) == report_obj(
            whole_s_report(prog, cells(10), suite, monkeypatch))
        monkeypatch.undo()
        long = cells(4000)
        assert _atom_size(long[0]) > cutcheck.verify.SLICE_CAP
        assert _slice_coverage(stage_context(prog, suite, long), True) is None

    def test_groundings_past_the_cap_build_none(self, monkeypatch):
        """The slice's root search and ``_query_transform`` give up before the
        first grounding when the product passes the instance cap."""
        built = []

        def counted(sigma, names, ctx, read=None):
            for theta in groundings(sigma, names, ctx, read):
                built.append(theta)
                yield theta

        groundings = cutcheck.verify._groundings
        monkeypatch.setattr(cutcheck.verify, "_groundings", counted)
        prog, suite, _ = setup_example("append.pl", "append.spec")  # 1,446 terms at depth 3
        with pytest.raises(CapHit, match="^instance cap 50000 hit at depth 3$"):
            _query_transform(stage_context(prog, suite, parse_query("app(X, Y, [1]), !")))
        assert built == []
        prog, suite, _ = setup_example("in.pl", "in.spec", depth=1)
        query = parse_query("in([X], [Y])")
        ctx = stage_context(prog, suite, query)
        product = len(ground_terms(ctx.alphabet, 1)) ** 2  # 12 terms at depth 1
        monkeypatch.setattr(cutcheck.verify, "INSTANCE_CAP", product - 1)
        assert _slice_coverage(ctx, True) is None and built == []
        monkeypatch.setattr(cutcheck.verify, "INSTANCE_CAP", product)
        assert _slice_coverage(ctx, True) is not None
        assert len(built) == product == 144


class TestMemoScope:
    """Every memo a check reads lives on its ``_CheckContext``: one
    enumeration per (set, cap, predicate) and one build of the ground terms
    per context, that of the context's pool, which every enumeration draws
    from, and one context per public call."""

    @staticmethod
    def record(monkeypatch) -> dict:
        calls = {"contexts": 0, "ground_terms": [], "enumerations": []}
        init, terms, enumerate_ = (_CheckContext.__init__, cutcheck.atomsets.ground_terms,
                                   cutcheck.verify.enumerate_atoms)

        def counted_init(self, *args):
            calls["contexts"] += 1
            init(self, *args)

        def counted_terms(alphabet, depth):
            calls["ground_terms"].append((alphabet, depth))
            return terms(alphabet, depth)

        def counted_enumerate(s, alphabet, depth, resolver=None, cap=None, predicate=None,
                              pool=None):
            calls["enumerations"].append((s, cap, predicate))
            return enumerate_(s, alphabet, depth, resolver, cap, predicate=predicate, pool=pool)

        monkeypatch.setattr(_CheckContext, "__init__", counted_init)
        # every pool, the context's and any an enumeration would build, calls this one
        monkeypatch.setattr(cutcheck.atomsets, "ground_terms", counted_terms)
        monkeypatch.setattr(cutcheck.verify, "enumerate_atoms", counted_enumerate)
        return calls

    def test_one_enumeration_per_key(self, monkeypatch):
        # m(1, []) is not c-covered, so the query slice gives way to all 722 atoms of S
        prog = parse_program(RELATIONAL_PRE_PROGRAM)
        suite = at_depth(parse_spec(RELATIONAL_PRE_SPEC), 2)
        calls = self.record(monkeypatch)
        report = completeness_check(prog, parse_query("m(1, [])"), suite)
        assert report.verdict.is_refuted and len(report.per_atom) == 722
        keys = calls["enumerations"]
        assert (suite.s, None, None) in keys and len(set(keys)) == len(keys)
        assert calls["contexts"] == 1 and len(calls["ground_terms"]) <= 1

    def test_a_cut_query_enumerates_each_key_once(self, monkeypatch):
        # the transformed check gets a context of its own, since its program and sets
        # differ, but keeps the ground terms: its alphabet adds only a predicate
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec", depth=1)
        query = parse_query("p(X, Z), !")
        ctx = _query_transform(stage_context(prog, suite, query))
        transformed = resolve_alphabet(ctx.program, ctx.query, ctx.suite)
        assert transformed.functors == resolve_alphabet(prog, query, suite).functors
        calls = self.record(monkeypatch)
        completeness_check(prog, query, suite)
        keys, built = calls["enumerations"], calls["ground_terms"]
        assert keys and len(set(keys)) == len(keys)
        assert calls["contexts"] == 2 and len(built) == 1

    def test_acceptable_check_shares_one_context(self, monkeypatch):
        # the model part grounds the clauses and refutes; the level part is not reached
        prog, suite, _ = setup_example("in.pl", "in.spec", depth=1)
        calls = self.record(monkeypatch)
        assert acceptable_check(prog, suite).is_refuted
        assert calls["contexts"] == 1 and len(calls["ground_terms"]) == 1
        prog = parse_program("p(X) :- q(X).\nq(a).\n")
        suite = parse_spec("[S]\np(a).\nq(a).\n[level]\np(X) = 1.\nq(X) = 0.\n")
        calls = self.record(monkeypatch)
        assert acceptable_check(prog, suite).is_verified  # both parts ground p(X) :- q(X)
        assert calls["contexts"] == 1 and len(calls["ground_terms"]) == 1

    def test_the_query_stage_shares_the_context(self, monkeypatch):
        prog, suite, _ = setup_example("notp.pl", "notp.spec", depth=1)
        query = parse_query("notp(X)")
        want = _well_asserted_query(stage_context(prog, suite, query))
        calls = self.record(monkeypatch)
        report = completeness_check(prog, query, suite)
        stage = dict(report.verdict.parts)["query well-asserted"]
        assert stage.to_json_obj() == want.to_json_obj() and calls["contexts"] == 1


class TestCandidates:
    """A cover search is exhaustive on a goal whose predicate has no pattern
    in a set that is not universal: its candidates are the listed atoms."""

    def test_a_pattern_of_another_predicate(self):
        p, q, X = (lambda t: Pred("p", (t,))), (lambda t: Pred("q", (t,))), Var("X")
        s = AtomSet(atoms=(p(a), p(b)), patterns=(AtomPattern(q(X)),))
        ctx = _CheckContext(Program(()), (), SpecSuite(s=s, alphabet=Alphabet(((c.functor, 0),))))
        search = _CoverSearch(s, ctx)
        assert list(search.solutions((p(X),), {})) == [{"X": a}, {"X": b}] and search.exhaustive
        search = _CoverSearch(s, ctx)
        # the alphabet holds a and b, from the listed atoms, and the declared c
        want = [{"X": a}, {"X": b}, {"X": c}]
        assert list(search.solutions((q(X),), {})) == want and not search.exhaustive

    def test_a_cut_query_is_verified_as_the_oracle_finds(self):
        # the marker pattern q0(V...) joins post; the eta search on q0's clause stays exhaustive
        prog, suite, _ = setup_example("artificial.pl", "artificial.spec", depth=1)
        query = parse_query("p(a, Z), !")
        report = completeness_check(prog, query, suite)
        assert report.verdict.is_verified, report.to_text()
        assert oracle_tree_complete(prog, query, suite).is_verified


class TestGuardFacts:
    """The facts the well-asserted walk draws from a holding guard agree with
    ground enumeration: a dropped branch has no grounding that satisfies the
    guard, a ``list`` fact holds on every grounding that does, and every
    grounding that satisfies ``eq`` is an instance of the refined match."""

    NIL = Compound("[]")
    ALPHA = Alphabet((("a", 0), ("[]", 0), (".", 2)), (("q", 1),))
    RESOLVER = {"s": AtomSet(atoms=(Pred("q", (a,)),),
                             patterns=(AtomPattern(Pred("q", (Var("E"),)),
                                                   (Guard("list", (Var("E"),)),)),))}

    def random_arg(self, rng, depth=2):
        if depth == 0 or rng.random() < 0.45:
            return rng.choice([Var("X"), Var("Y"), a, self.NIL])
        return Compound(".", (self.random_arg(rng, depth - 1), self.random_arg(rng, depth - 1)))

    def random_guard(self, rng, name):
        args = [Pred("q", (self.random_arg(rng),)) if kind == "atom"
                else "s" if kind == "set" else self.random_arg(rng)
                for kind in GUARDS[name].signature]
        return Guard(name, tuple(args))

    def test_facts_agree_with_ground_enumeration(self):
        rng = random.Random(21)
        terms = ground_terms(self.ALPHA, 2)
        seen = {"drop": 0, "list": 0, "unifier": 0, "held": 0}
        for name in sorted(GUARDS):
            for _ in range(30):
                g = self.random_guard(rng, name)
                facts: dict = {}
                refined = _guard_facts(g, {}, facts, self.RESOLVER)
                names = vars_of(g.terms)
                pick = Pred("t", tuple(Var(v) for v in names))
                lists = [v for v, flags in facts.items() if "list" in flags]
                for combo in itertools.product(terms, repeat=len(names)):
                    sigma = dict(zip(names, combo))
                    if not guard_holds(g, sigma, None, self.RESOLVER):
                        continue
                    seen["held"] += 1
                    assert refined is not None, (g, sigma)
                    assert all(is_list(sigma[v]) for v in lists), (g, sigma, facts)
                    assert match(apply(refined, pick), apply(sigma, pick)) is not None, (
                        g, sigma, refined)
                seen["drop"] += refined is None
                seen["list"] += bool(lists)
                seen["unifier"] += bool(refined)
        assert min(seen.values()) >= 5, seen
