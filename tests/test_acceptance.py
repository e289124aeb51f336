"""End-to-end acceptance suite.

Each test prints a single PASS line with its measured statistics; every test
also enforces its own wall-clock budget.  Randomized tests use fixed seeds.
"""

import random
import time
from dataclasses import replace

import pytest

import cutcheck.verify
from cutcheck import (
    Budget,
    CUT,
    AtomSet,
    Program,
    UNIVERSAL,
    build_tree,
    completeness_check,
    enumerate_atoms,
    oracle_tree_complete,
    parse_program,
    parse_query,
    parse_spec,
    pruned_tree,
    recurrent_check,
    semi_complete,
)
from cutcheck.engine import resolved_queries
from cutcheck.syntax import query_text, resolve_alphabet
from cutcheck.terms import (
    Alphabet,
    Compound,
    Pred,
    Var,
    apply,
    canonical,
    ground_terms,
    is_ground,
    match,
    rename_apart,
    term_depth,
    unify,
    vars_of,
)
from cutcheck.verify import _c_covered

from conftest import (
    least_model_propositional,
    load_program,
    load_spec_text,
    propositional_suite,
    pruned_answers,
    random_propositional_program,
    random_term_program,
    search_answers,
    stage_context,
)
from derivations import branch_derivation, recorded_steps, subderivation, variant_equal
from fixpoint import fixpoint_prune, walk_and_fixpoint
from full_tree import root_path
from naive_unify import is_idempotent, naive_apply, naive_unify, occurs, range_vars


def report(line: str):
    print(f"\n{line}")


class TestCriterion1PruningSemantics:
    def test_pruning_tree_example(self):
        t0 = time.perf_counter()
        prog = load_program("pruning_tree.pl")
        tree = build_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        assert tree.exact
        pt, pt_answers = pruned_answers(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        got, expected = walk_and_fixpoint(pt, pt_answers, fixpoint_prune(tree))
        assert got == expected
        queries = resolved_queries(pt.base)
        kept_labels = {query_text(queries[n]) for n in pt.kept}
        executing = next(
            n for n in pt.kept if pt.base.nodes[n].query[0] is CUT
            and query_text(queries[n]) == "!, r, !"
        )
        # descendants/right-side survivors of the executing (!, r, !) node:
        # only (r, !) below it and the top-level r branch remain
        assert "r, !" in kept_labels and "r" in kept_labels
        assert {"t, !", "r, r, !", ""}.isdisjoint(kept_labels)
        assert pt_answers == []

        modified = load_program("pruning_tree_modified.pl")
        tree2 = build_tree(modified, parse_query("p"), Budget(nodes=1000, steps=100))
        pt2, pt2_answers = pruned_answers(modified, parse_query("p"),
                                          Budget(nodes=1000, steps=100))
        got, expected = walk_and_fixpoint(pt2, pt2_answers, fixpoint_prune(tree2))
        assert got == expected
        queries2 = resolved_queries(pt2.base)
        removed = {query_text(queries2[n]) for n in set(pt2.base.ids) - pt2.kept}
        assert removed == {"r, r, !", "r"}
        answers = [query_text(a) for a in pt2_answers]
        assert answers == ["p"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        report(f"CRITERION 1: PASS - pruning semantics exact on both trees "
               f"({elapsed * 1000:.0f} ms)")


class TestCriterion2OracleEquivalence:
    FIXTURE_QUERIES = [
        ("pruning_tree.pl", "p"),
        ("pruning_tree_modified.pl", "p"),
        ("in.pl", "in([X], [1, 2])"),
        ("artificial.pl", "p(a, Z)"),
        ("notp.pl", "notp(b)"),
    ]

    @staticmethod
    def _sequences_equal(prog, query, nodes=400, steps=400):
        pt, pt_answers = pruned_answers(prog, query, Budget(nodes=nodes, steps=steps))
        if not pt.exact:
            return None
        res, res_answers = search_answers(prog, query, Budget(steps=5000))
        if not res.exact:
            return None
        got = [repr(canonical(a)) for a in pt_answers]
        want = [repr(canonical(a)) for a in res_answers]
        return got == want

    def test_pruned_answers_equal_prolog_search(self):
        t0 = time.perf_counter()
        for name, q in self.FIXTURE_QUERIES:
            outcome = self._sequences_equal(load_program(name), parse_query(q),
                                            nodes=2000, steps=1000)
            assert outcome is True, f"fixture {name} disagrees"

        rng = random.Random(20240817)
        exact = 0
        while exact < 1000:
            if rng.random() < 0.6:
                src = random_propositional_program(rng, ["a", "b", "c"])
                query = parse_query(rng.choice(["a", "b", "c"]))
                outcome = self._sequences_equal(parse_program(src), query)
            else:
                # keep derivations short: a clause like r(f(Y)) :- r(f(g(Y,Y)))
                # doubles term size per step, so deep truncation is exponential
                src = random_term_program(rng)
                query = parse_query(f"{rng.choice(['p', 'q', 'r'])}(X)")
                outcome = self._sequences_equal(parse_program(src), query,
                                                nodes=300, steps=14)
            if outcome is None:
                continue
            assert outcome, f"oracle disagreement on:\n{src}\nquery: {query_text(query)}"
            exact += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report(f"CRITERION 2: PASS - 5 fixtures + {exact} random programs, "
               f"0 mismatches ({elapsed:.1f} s)")


class TestCriterion3InExample:
    def test_in_completeness_and_oracle(self):
        t0 = time.perf_counter()
        # each ground query c-covers its own slice of S (a few atoms), not all of S
        prog = load_program("in.pl")
        suite = parse_spec(load_spec_text("in.spec"))
        alpha = resolve_alphabet(prog, (), suite)
        in_pre = AtomSet(patterns=tuple(p for p in suite.pre.patterns if p.template.name == "in"))
        queries = enumerate_atoms(in_pre, alpha, 2, suite.resolver)
        assert len(queries) > 1000
        for atom in queries:
            rep = completeness_check(prog, (atom,), suite)
            assert rep.verdict.is_verified, f"not verified: {query_text((atom,))}"
        for atom in queries:
            v = oracle_tree_complete(prog, (atom,), suite)
            assert v.is_verified, f"oracle disagrees: {query_text((atom,))}"

        v = oracle_tree_complete(prog, parse_query("in([X], [1, 2])"), suite)
        assert v.is_refuted
        assert v.witness["instance"] == "in([2], [1, 2])"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        report(f"CRITERION 3: PASS - {len(queries)} queries verified and "
               f"oracle-confirmed; non-ground refutation witness in([2], [1, 2]) "
               f"({elapsed:.1f} s)")


class TestCriterion4ArtificialExample:
    def test_c_covered_and_pipeline(self):
        t0 = time.perf_counter()
        prog = load_program("artificial.pl")
        suite = parse_spec(load_spec_text("artificial.spec"))  # at depth 1
        atom = Pred("p", (Compound("a"), Compound("c")))

        v = _c_covered(atom, stage_context(prog, suite, (atom,)), True)
        assert v.is_verified

        hb = parse_spec(load_spec_text("artificial_posthb.spec"))  # at depth 1
        v2 = _c_covered(atom, stage_context(prog, hb, (atom,)), True)
        assert v2.is_refuted
        clause2 = dict(v2.parts)["clause 2: p(X, Z) :- q(X, Y), !, r(Y, Z)."]
        conds = dict(clause2.parts)
        assert conds["condition 2 (earlier cut clauses)"].is_refuted
        assert conds["condition 3 (own cut)"].is_refuted

        query = parse_query("p(a, Z)")
        rep = completeness_check(prog, query, suite)
        assert rep.verdict.is_verified
        answers = [query_text(a) for a in pruned_answers(prog, query, suite.budget)[1]]
        assert answers == ["p(a, c)"]
        assert oracle_tree_complete(prog, query, suite).is_verified
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report(f"CRITERION 4: PASS - c-coverage, both universal-post failures "
               f"listed, pipeline + oracle agree on p(a, c) ({elapsed * 1000:.0f} ms)")


class TestCriterion5NotpExample:
    def test_negation_as_failure(self):
        t0 = time.perf_counter()
        prog = load_program("notp.pl")
        suite = parse_spec(load_spec_text("notp.spec"))  # at depth 1
        atom = Pred("notp", (Compound("b"),))  # p(b) is not in post0

        v = _c_covered(atom, stage_context(prog, suite, (atom,)), True)
        assert v.is_verified
        clause3 = dict(v.parts)["clause 3: notp(X)."]
        assert dict(clause3.parts)["condition 2 (earlier cut clauses)"].is_verified

        rep = completeness_check(prog, parse_query("notp(b)"), suite)
        assert rep.verdict.is_verified

        nonground = parse_spec(load_spec_text("notp_nonground.spec"))  # at depth 1
        v2 = _c_covered(atom, stage_context(prog, nonground, (atom,)), True)
        assert v2.is_refuted
        clause3 = dict(v2.parts)["clause 3: notp(X)."]
        cond2 = dict(clause3.parts)["condition 2 (earlier cut clauses)"]
        assert cond2.is_refuted
        assert cond2.witness["covered_instance"] == "notp(a) :- p(a)."
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        report(f"CRITERION 5: PASS - ground pre verifies, non-ground pre refutes "
               f"with witness notp(a) :- p(a). ({elapsed * 1000:.0f} ms)")


class TestCriterion6SemiCompletenessAndTermination:
    def test_append_and_in(self, monkeypatch):
        t0 = time.perf_counter()
        prog = load_program("append.pl")
        suite = parse_spec(load_spec_text("append.spec"))  # at depth 3
        v = semi_complete(prog, suite)
        assert v.is_verified

        only_base = Program(prog.clauses[:1])
        v2 = semi_complete(only_base, suite)
        assert v2.is_refuted
        witness = next(sub.witness for _, sub in v2.parts if sub.is_refuted)
        assert witness["atom"].startswith("app(")

        in_prog = load_program("in.pl")
        in_suite = parse_spec(load_spec_text("in.spec"))
        assert set(in_suite.level_maps) == {"m/2", "in/2"}
        # the ground instances of in/2's clauses at depth 3 pass the cap
        monkeypatch.setattr(cutcheck.verify, "INSTANCE_CAP", 10_000)
        v3 = recurrent_check(in_prog,
                             replace(in_suite, budget=replace(in_suite.budget, depth=3)))
        assert v3.is_unknown and v3.reason == "instance cap 10000 hit at depth 3"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        report(f"CRITERION 6: PASS - append semi-complete (witness on deletion: "
               f"{witness['atom']}), in recurrent Unknown at the depth-3 cap ({elapsed:.1f} s)")


class TestCriterion7TheoremSoundness:
    def test_verified_implies_oracle_complete(self):
        t0 = time.perf_counter()
        rng = random.Random(7321)
        budget = Budget(depth=1, nodes=300, steps=600)
        verified = 0
        violations = []
        attempts = 0
        while verified < 200 and attempts < 5000:
            attempts += 1
            preds = ["a", "b", "c", "d"][: rng.randint(2, 4)]
            src = random_propositional_program(rng, preds)
            prog = parse_program(src)
            suite = propositional_suite(least_model_propositional(prog), budget)
            query = parse_query(rng.choice(preds))
            rep = completeness_check(prog, query, suite)
            if not rep.verdict.is_verified:
                continue
            if not pruned_tree(prog, query, budget).exact:
                continue
            verified += 1
            v = oracle_tree_complete(prog, query, suite)
            if v.is_refuted:
                violations.append((src, query_text(query), v.witness))
        assert verified >= 200
        assert not violations, f"soundness violations: {violations[:3]}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report(f"CRITERION 7: PASS - {verified} verified triples, 0 oracle "
               f"refutations ({elapsed:.1f} s)")


class TestCriterion8CoreAlgebra:
    ALPHABET = Alphabet((("a", 0), ("b", 0), ("f", 1), ("g", 2)), ())

    def _random_term(self, rng, depth):
        r = rng.random()
        if depth == 0 or r < 0.35:
            return rng.choice(
                [Compound("a"), Compound("b"), Var("X"), Var("Y"), Var("Z")]
            )
        if r < 0.75:
            return Compound("f", (self._random_term(rng, depth - 1),))
        return Compound(
            "g",
            (self._random_term(rng, depth - 1), self._random_term(rng, depth - 1)),
        )

    def test_property_suite(self):
        t0 = time.perf_counter()
        rng = random.Random(424242)
        cases = 0

        # unify: mgu correctness, idempotence, relevance, occurs-check; the
        # naive apply + compose unification fails exactly when unify does
        for _ in range(3000):
            s, t = self._random_term(rng, 2), self._random_term(rng, 2)
            theta = unify(s, t)
            reference = naive_unify(s, t)
            cases += 1
            assert (theta is None) == (reference is None), (s, t)
            if theta is None:
                continue
            assert is_idempotent(reference)
            assert variant_equal(apply(theta, s), naive_apply(reference, s))
            assert apply(theta, s) == apply(theta, t)
            assert is_idempotent(theta)
            allowed = set(vars_of(s)) | set(vars_of(t))
            assert set(theta) | range_vars(theta) <= allowed
            assert all(not _occurs_in_own_binding(theta, v) for v in theta)

        # match: general instance recovered, never the other way
        for _ in range(2500):
            g = self._random_term(rng, 2)
            sigma = {v: self._random_term(rng, 1) for v in vars_of(g)}
            inst = apply(sigma, g)
            theta = match(g, inst)
            cases += 1
            assert theta is not None and apply(theta, g) == inst
            if not is_ground(inst) or vars_of(g):
                pass
            if inst != g and is_ground(inst) and vars_of(g):
                assert match(inst, g) is None

        # rename_apart: freshness and variant shape
        for _ in range(1500):
            term = self._random_term(rng, 2)
            forbidden = set(vars_of(term)) | {"X", "Y", "Z"}
            variant = rename_apart(term, forbidden)
            cases += 1
            assert set(vars_of(variant)).isdisjoint(forbidden) or not vars_of(term)
            assert canonical(variant) == canonical(term)

        # ground_terms: exhaustive and sound at depth <= 2
        seen = set(ground_terms(self.ALPHABET, 2))
        for t in seen:
            cases += 1
            assert is_ground(t) and term_depth(t) <= 2
        brute = {t for t in _brute_force_terms(self.ALPHABET, 2)}
        for t in brute:
            cases += 1
            assert t in seen
        assert seen == brute

        # subderivation variable lemma: clause variants introduce only fresh
        # variables, so each variant is disjoint from every earlier query
        checked_derivations = 0
        while cases < 10_000 or checked_derivations < 300:
            src = random_term_program(rng, max_clauses=4)
            prog = parse_program(src)
            query = parse_query(f"{rng.choice(['p', 'q', 'r'])}(g(X, Y))")
            with recorded_steps() as steps:
                tree = build_tree(prog, query, Budget(nodes=60, steps=12))
            leaves = [i for i, n in enumerate(tree.nodes) if not n.children]
            if not leaves:
                continue
            leaf = rng.choice(leaves)
            d = branch_derivation(tree, leaf)
            checked_derivations += 1
            seen_vars = set(vars_of(d.queries[0]))
            for i, nid in enumerate(root_path(tree, leaf)[1:]):
                step = steps[tree][nid]
                assert step.mgu is tree.nodes[nid].mgu
                if step.clause_variant is None:
                    continue
                vvars = set(vars_of(step.clause_variant))
                cases += 1
                assert vvars.isdisjoint(seen_vars), src
                seen_vars |= vvars | set(vars_of(d.queries[i + 1]))
            if len(d) > 1:
                j = rng.randrange(len(d.queries))
                k = rng.randint(0, len(d.queries[j]))
                sub, ok, answer = subderivation(d, j, k)
                cases += 1
                assert (answer is not None) == ok
                if ok:
                    assert match(d.queries[j][:k], answer) is not None

        elapsed = time.perf_counter() - t0
        assert cases >= 10_000
        assert elapsed < 30.0
        report(f"CRITERION 8: PASS - {cases} property cases, 0 failures "
               f"({elapsed:.1f} s)")


def _occurs_in_own_binding(theta, v):
    bound = theta.get(v)
    return bound is not None and occurs(v, bound)


def _brute_force_terms(alphabet, depth):
    """Independent reconstruction of the depth-bounded ground term universe."""
    layers = [set()]
    consts = [Compound(n) for n, k in alphabet.functors if k == 0]
    layers[0] = set(consts)
    for d in range(1, depth + 1):
        layer = set(layers[d - 1])
        import itertools as it

        for name, k in alphabet.functors:
            if k == 0:
                continue
            for args in it.product(layers[d - 1], repeat=k):
                cand = Compound(name, args)
                if term_depth(cand) <= d:
                    layer.add(cand)
        layers.append(layer)
    return layers[depth]
