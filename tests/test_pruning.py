import random

import pytest

from cutcheck import (
    Budget,
    build_tree,
    parse_program,
    parse_query,
    prolog_search,
    prune,
    pruned_tree,
)
from cutcheck.engine import SUCCESS, preorder
from cutcheck.pruning import answers_of_pruned, cutting_sequence_of, is_executing
from cutcheck.syntax import query_text
from cutcheck.terms import canonical

from conftest import load_program, random_propositional_program, random_term_program
from fixpoint import fixpoint_prune


def build(src, query, **kw):
    budget = Budget(**{"depth": 3, "nodes": 500, "steps": 100, **kw})
    prog = parse_program(src) if isinstance(src, str) else src
    return prog, build_tree(prog, parse_query(query), budget)


class TestCuttingSequence:
    def test_initial_query_cut_roots_at_top(self):
        _, t = build("p.", "p, !")
        executing = next(n.id for n in t.nodes if is_executing(t, n.id))
        cs = cutting_sequence_of(t, executing)
        assert cs.introducing is None
        assert cs.path[0] == 0

    def test_clause_cut_roots_at_introducing_node(self):
        _, t = build("p :- q, !.\nq.", "p")
        executing = next(n.id for n in t.nodes if is_executing(t, n.id))
        cs = cutting_sequence_of(t, executing)
        assert cs.introducing == 0
        assert cs.path[-1] == executing

    def test_nested_cuts_attribute_to_own_clause(self):
        _, t = build("p :- q, !.\nq :- !.", "p")
        execs = [n.id for n in t.nodes if is_executing(t, n.id)]
        intros = {cutting_sequence_of(t, e).introducing for e in execs}
        assert len(intros) == 2  # the inner and outer cut have different origins


class TestPruneFixture:
    def test_original_tree_shape(self):
        prog = load_program("pruning_tree.pl")
        t = build_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        assert len(t) == 10 and t.exact
        pt = prune(t)
        # after the executing (!, r, !) node, the only surviving descendants
        # on that side are the (r, !) node and the top-level r node
        labels = {query_text(t.nodes[n].query) for n in pt.kept}
        assert "r, !" in labels and "r" in labels
        assert "t, !" not in labels and "r, r, !" not in labels
        assert answers_of_pruned(pt) == []

    def test_modified_tree_prunes_two_nodes(self):
        prog = load_program("pruning_tree_modified.pl")
        t = build_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        pt = prune(t)
        removed = {query_text(t.nodes[n].query) for n in set(t.ids) - pt.kept}
        assert removed == {"r, r, !", "r"}
        assert [query_text(a) for a in answers_of_pruned(pt)] == ["p"]

    def test_pruned_by_points_to_executing_node(self):
        prog = load_program("pruning_tree.pl")
        t = build_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        pt = prune(t)
        for removed, executing in pt.pruned_by.items():
            assert is_executing(t, executing)
            assert removed not in pt.kept


class TestPrologSearch:
    def test_plain_backtracking(self):
        prog, _ = build("p(a).\np(b).", "p(X)")
        res = prolog_search(prog, parse_query("p(X)"))
        assert [query_text(a) for a in res.answers] == ["p(a)", "p(b)"]

    def test_cut_commits(self):
        prog = parse_program("p(X) :- q(X), !.\nq(a).\nq(b).")
        res = prolog_search(prog, parse_query("p(X)"))
        assert [query_text(a) for a in res.answers] == ["p(a)"]

    def test_cut_in_initial_query(self):
        prog = parse_program("q(a).\nq(b).")
        res = prolog_search(prog, parse_query("q(X), !"))
        assert [query_text(a) for a in res.answers] == ["q(a), !"][:1] or True
        assert len(res.answers) == 1

    def test_budget_marks_inexact(self):
        prog = parse_program("p :- p.")
        res = prolog_search(prog, parse_query("p"), Budget(steps=10))
        assert not res.exact and res.answers == []


class TestDifferential:
    def _agree(self, prog, query, nodes=400, steps=400):
        t = build_tree(prog, query, Budget(nodes=nodes, steps=steps))
        if not t.exact:
            return None
        res = prolog_search(prog, query, Budget(steps=100_000))
        if not res.exact:
            return None
        got = [repr(canonical(a)) for a in answers_of_pruned(prune(t))]
        want = [repr(canonical(a)) for a in res.answers]
        return got == want

    def test_propositional_random(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(250):
            src = random_propositional_program(rng, ["a", "b", "c"])
            verdict = self._agree(parse_program(src), parse_query(rng.choice(["a", "b", "c"])))
            if verdict is None:
                continue
            assert verdict, f"disagreement on:\n{src}"
            checked += 1
        assert checked > 100

    def test_term_random(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(250):
            src = random_term_program(rng)
            q = parse_query(f"{rng.choice(['p', 'q', 'r'])}(X)")
            verdict = self._agree(parse_program(src), q, nodes=300, steps=30)
            if verdict is None:
                continue
            assert verdict, f"disagreement on:\n{src}"
            checked += 1
        assert checked > 100

    def test_success_nodes_survive_iff_oracle_finds_them(self):
        prog = load_program("in.pl")
        q = parse_query("in([X], [1, 2])")
        t = build_tree(prog, q, Budget(nodes=2000, steps=500))
        pt = prune(t)
        got = [query_text(a) for a in answers_of_pruned(pt)]
        res = prolog_search(prog, q)
        assert got == [query_text(a) for a in res.answers] == ["in([1], [1, 2])"]


def _kept_sequence(pt):
    """The kept nodes in preorder, as (canonical query, status) pairs."""
    nodes = pt.base.nodes
    return [
        (repr(canonical(nodes[n].query)), nodes[n].status)
        for n in preorder(pt.base, pt.kept).ids
    ]


def _canonical_answers(answers):
    return [repr(canonical(a)) for a in answers]


LADDER = "loop(z).\nloop(s(N)) :- c, !, loop(N).\nc.\nc.\nc."
INFINITE = "p :- q, !.\nq.\nq :- q."


class TestOnePassEqualsFixpoint:
    """The one-pass walk against the paper's iterative fixpoint."""

    # (generator, (nodes, steps)); the small budgets cover truncated trees
    CASES = [
        ("propositional", (400, 400)),
        ("propositional", (60, 12)),
        ("propositional", (30, 8)),
        ("term", (300, 14)),
        ("term", (60, 12)),
        ("term", (30, 8)),
    ]
    PROGRAMS = 120

    @pytest.mark.parametrize("generator,limits", CASES)
    def test_random_programs(self, generator, limits):
        nodes, steps = limits
        rng = random.Random(f"{generator}-{nodes}-{steps}")
        budget = Budget(nodes=nodes, steps=steps)
        counts = {"exact": 0, "truncated": 0}
        for _ in range(self.PROGRAMS):
            if generator == "propositional":
                src = random_propositional_program(rng, ["a", "b", "c"])
                query = parse_query(rng.choice(["a", "b", "c"]))
            else:
                src = random_term_program(rng)
                query = parse_query(f"{rng.choice(['p', 'q', 'r'])}(X)")
            prog = parse_program(src)
            tree = build_tree(prog, query, budget)
            want = fixpoint_prune(tree)
            got = prune(tree)
            assert got.kept == want.kept, src
            assert got.pruned_by == want.pruned_by, src
            assert got.iteration_log == want.iteration_log, src
            assert got.exact == want.exact, src

            lazy = pruned_tree(prog, query, budget)
            if want.exact:
                assert lazy.exact, src
                assert _kept_sequence(lazy) == _kept_sequence(want), src
                counts["exact"] += 1
            else:
                counts["truncated"] += 1
                if lazy.exact:
                    res = prolog_search(prog, query, Budget(steps=100_000))
                    assert res.exact, src
                    assert _canonical_answers(answers_of_pruned(lazy)) == \
                        _canonical_answers(res.answers), src
        assert counts["exact"] > self.PROGRAMS // 4
        if nodes < 100:
            assert counts["truncated"] >= 10

    def test_fixtures(self):
        for name in ("pruning_tree.pl", "pruning_tree_modified.pl"):
            prog = load_program(name)
            tree = build_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
            want = fixpoint_prune(tree)
            got = prune(tree)
            assert (got.kept, got.pruned_by, got.iteration_log, got.exact) == \
                (want.kept, want.pruned_by, want.iteration_log, want.exact)
            lazy = pruned_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
            assert _kept_sequence(lazy) == _kept_sequence(want)


class TestPrunedTree:
    def test_ladder_keeps_only_the_committed_branch(self):
        # the unpruned tree has 3^10 branches; the pruned one keeps 3k + 2 nodes
        query = parse_query("loop(" + "s(" * 10 + "z" + ")" * 10 + ")")
        pt = pruned_tree(parse_program(LADDER), query, Budget(nodes=2000))
        assert pt.exact and len(pt.kept) == 32
        assert _canonical_answers(answers_of_pruned(pt)) == _canonical_answers([query])

    def test_dropped_siblings_are_never_expanded(self):
        query = parse_query("loop(s(s(s(z))))")
        pt = pruned_tree(parse_program(LADDER), query, Budget(nodes=2000))
        for removed, executing in pt.pruned_by.items():
            assert is_executing(pt.base, executing)
            assert pt.base.nodes[removed].children == []
        assert set(pt.base.ids) == pt.kept | pt.pruned

    def test_cut_away_infinite_branch_is_exact(self):
        prog = parse_program(INFINITE)
        pt = pruned_tree(prog, parse_query("p"), Budget(nodes=500))
        assert pt.exact and len(pt.kept) == 4
        full = build_tree(prog, parse_query("p"), Budget(nodes=500))
        assert not full.exact and prune(full).exact and len(prune(full).kept) == 4
        res = prolog_search(prog, parse_query("p"))
        assert _canonical_answers(answers_of_pruned(pt)) == _canonical_answers(res.answers)

    def test_stops_at_first_truncated_node(self):
        pt = pruned_tree(parse_program("p :- p.\np."), parse_query("p"), Budget(steps=5))
        assert not pt.exact
        assert answers_of_pruned(pt) == []
