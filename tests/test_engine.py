import itertools
import random

import pytest

from cutcheck import Budget, CUT, Program, apply, build_tree, parse_program, parse_query
from cutcheck.engine import (
    FAILURE,
    SUCCESS,
    TRUNCATED,
    LdStep,
    ld_expand,
)
from cutcheck.syntax import query_text
from cutcheck.terms import FreshNames, canonical, rename_apart, unify, vars_of

from conftest import random_atom_text, random_propositional_program, random_term_program
from derivations import branch_derivation, subderivation
from full_tree import answers, preorder


def tree_of(src: str, query: str, **kw):
    budget = Budget(**{"depth": 3, "nodes": 500, "steps": 60, **kw})
    return build_tree(parse_program(src), parse_query(query), budget)


class TestBuildTree:
    def test_success_and_failure_leaves(self):
        t = tree_of("p(a).", "p(X)")
        statuses = {n.status for n in t.nodes}
        assert SUCCESS in statuses

    def test_answers(self):
        t = tree_of("p(a).\np(b).", "p(X)")
        assert [query_text(q) for q in answers(t)] == ["p(a)", "p(b)"]

    def test_cut_step_consumes(self):
        t = tree_of("p :- !.", "p")
        child = t.nodes[t.root.children[0]]
        assert child.query[0] is CUT
        grandchild = t.nodes[child.children[0]]
        assert grandchild.query == () and grandchild.status == SUCCESS

    def test_query_with_leading_cut(self):
        t = tree_of("p.", "!, p")
        assert t.root.query[0] is CUT
        assert any(n.status == SUCCESS for n in t.nodes)

    def test_step_budget_truncates(self):
        t = tree_of("p :- p.", "p", steps=5)
        assert not t.exact
        assert any(n.status == TRUNCATED for n in t.nodes)

    def test_node_budget_truncates(self):
        t = tree_of("p :- p, p.", "p", nodes=8)
        assert not t.exact

    def test_standardized_apart(self):
        t = tree_of("q(f(X)) :- r(X).\nr(a).", "q(Y)")
        for n in t.nodes:
            if n.step is not None and n.step.clause_variant is not None:
                variant_vars = set(vars_of(n.step.clause_variant))
                parent = t.nodes[n.parent]
                assert variant_vars.isdisjoint(vars_of(parent.query))

    def test_clause_order_is_child_order(self):
        t = tree_of("p(b).\np(a).", "p(X)")
        kids = [t.nodes[c].step.clause_index for c in t.root.children]
        assert kids == sorted(kids)

    def test_failure_status(self):
        t = tree_of("p(a).", "q(X)")
        assert t.root.status == FAILURE


class TestPreorder:
    def test_plain_order(self):
        t = tree_of("p :- q, r.\nq.\nr.", "p")
        seq = preorder(t)
        assert seq.ids[0] == 0
        assert seq.exact
        assert len(seq.ids) == len(t)

    def test_blocks_right_of_truncated(self):
        t = tree_of("p :- p.\np.", "p", steps=4)
        seq = preorder(t)
        assert not seq.exact
        # the second clause's success branch lies right of the infinite one
        success = [n.id for n in t.nodes if n.status == SUCCESS and n.parent == 0]
        assert all(s not in seq.ids for s in success)

    def test_kept_filter(self):
        t = tree_of("p.\np.", "p")
        seq = preorder(t, kept={0})
        assert seq.ids == (0,)


class TestSubderivation:
    def test_successful_prefix(self):
        t = tree_of("q(a).\nr(b).", "q(X), r(Y)")
        leaf = next(n.id for n in t.nodes if n.status == SUCCESS)
        d = branch_derivation(t, leaf)
        sub, ok, answer = subderivation(d, 0, 1)
        assert ok
        assert query_text(answer) == "q(a)"

    def test_unfinished_prefix(self):
        t = tree_of("q(a).", "q(X), r(Y)")
        leaf = [n.id for n in t.nodes if n.parent is not None][-1]
        d = branch_derivation(t, leaf)
        sub, ok, answer = subderivation(d, 0, 2)
        assert not ok and answer is None

    def test_bad_indices(self):
        t = tree_of("q(a).", "q(X)")
        d = branch_derivation(t, 0)
        with pytest.raises(IndexError):
            subderivation(d, 5, 0)
        with pytest.raises(IndexError):
            subderivation(d, 0, 9)


class TestAnswerSemantics:
    def test_answer_is_instance_of_query(self):
        t = tree_of("p(f(a)).", "p(X)")
        for ans in answers(t):
            assert canonical(ans) != canonical(parse_query("p(Y)")) or True
            from cutcheck.terms import match

            assert match(parse_query("p(X)"), ans) is not None

    def test_composed_substitution(self):
        t = tree_of("p(X, Y) :- q(X), r(Y).\nq(a).\nr(b).", "p(U, V)")
        assert [query_text(q) for q in answers(t)] == ["p(a, b)"]


class TestClauseIndex:
    def test_matching_equals_clause_order_scan(self):
        prog = parse_program("p(a).\nq(X).\np(X, Y).\np(b).\nq(a) :- p(a).\np(c).")
        for atom in parse_query("p(Z), q(Z), p(Z, Z), r(Z), p"):
            scan = [
                (i, c)
                for i, c in enumerate(prog.clauses)
                if c.head.name == atom.name and len(c.head.args) == len(atom.args)
            ]
            assert prog.matching(atom) == scan

    def test_index_is_not_part_of_the_value(self):
        p1, p2 = parse_program("p(a).\nq."), parse_program("p(a).\nq.")
        assert p1 == p2 and hash(p1) == hash(p2)
        assert repr(p1) == f"Program(clauses={p1.clauses!r})"


def reference_ld_expand(program, query, forbidden, fresh):
    """``ld_expand`` as it was before it left an untouched tail alone: the
    mgu is applied to the clause body and the tail together."""
    if not query:
        return []
    selected = query[0]
    if selected is CUT:
        return [(query[1:], LdStep({}, None, None))]
    out = []
    for idx, clause in program.matching(selected):
        variant = rename_apart(clause, forbidden, fresh)
        theta = unify(selected, variant.head)
        if theta is None:
            continue
        forbidden.update(vars_of(variant))
        out.append((apply(theta, variant.body + query[1:]), LdStep(theta, idx, variant)))
    return out


def tail_case(query, step) -> str:
    if not step.mgu:
        return "empty"
    if set(vars_of(query[0])).isdisjoint(step.mgu):
        return "clause"
    return "tail"


class TestResolventTail:
    def random_case(self, rng):
        if rng.random() < 0.3:
            preds = ["p", "q", "r", "s"]
            src = random_propositional_program(rng, preds)
            atoms = [rng.choice(preds + ["!"]) for _ in range(rng.randint(1, 3))]
        else:
            src = random_term_program(rng, max_body=3)
            atoms = [random_atom_text(rng) if rng.random() < 0.85 else "!"
                     for _ in range(rng.randint(1, 3))]
        return parse_program(src), parse_query(", ".join(atoms))

    def test_children_equal_the_old_formula(self):
        """The derivations of 300 seeded programs, expanded
        breadth-first with both formulas side by side from the same state."""
        rng = random.Random(5)
        cases = {"empty": 0, "clause": 0, "tail": 0}
        for _ in range(300):
            program, query = self.random_case(rng)
            forbidden, fresh = set(vars_of(query)), FreshNames()
            ref_forbidden, ref_fresh = set(forbidden), FreshNames()
            queue = [query]
            for q in itertools.islice(queue, 60):  # the loop reaches children appended below
                got = ld_expand(program, q, forbidden, fresh)
                want = reference_ld_expand(program, q, ref_forbidden, ref_fresh)
                assert got == want, (program, q)
                assert (fresh.n, forbidden) == (ref_fresh.n, ref_forbidden)
                for child, step in got:
                    if step.clause_index is not None:
                        cases[tail_case(q, step)] += 1
                    queue.append(child)
        assert min(cases.values()) > 300, cases

    def expand_one(self, src, query):
        q = parse_query(query)
        ((child, step),) = ld_expand(parse_program(src), q, set(vars_of(q)), FreshNames())
        return q, child, step

    def test_empty_mgu_keeps_the_tail(self):
        q, child, step = self.expand_one("p :- q.", "p, r(Y)")
        assert tail_case(q, step) == "empty"
        assert child == parse_query("q, r(Y)") and child[1] is q[1]

    def test_mgu_of_the_clause_only_keeps_the_tail(self):
        q, child, step = self.expand_one("p(X, f(Z)) :- q(X, Z).", "p(a, f(b)), r(Y, a)")
        assert tail_case(q, step) == "clause"
        assert child == parse_query("q(a, b), r(Y, a)") and child[1] is q[1]

    def test_mgu_of_the_selected_atom_reaches_the_tail(self):
        q, child, step = self.expand_one("p(a, X) :- q(X).", "p(Y, Y), r(Y)")
        assert tail_case(q, step) == "tail"
        assert child == parse_query("q(a), r(a)")
