import random

import pytest

from cutcheck import (
    Budget,
    build_tree,
    parse_program,
    parse_query,
    pruned_tree,
)
from cutcheck.engine import TRUNCATED, goal_atoms, resolved_queries
from cutcheck.syntax import query_text
from cutcheck.terms import CUT, canonical

import smoke
from conftest import (
    load_program, pruned_answers, random_atom_text, random_propositional_program,
    random_term_program, search_answers,
)
from fixpoint import fixpoint_prune, pruned_by, walk_and_fixpoint
from full_tree import root_path
from origins_reference import origins


def build(src, query, **kw):
    budget = Budget(**{"depth": 3, "nodes": 500, "steps": 100, **kw})
    prog = parse_program(src) if isinstance(src, str) else src
    return prog, build_tree(prog, parse_query(query), budget)


class TestCuttingSequence:
    def test_initial_query_cut_roots_at_top(self):
        pt = pruned_tree(parse_program("p."), parse_query("p, !"))
        [(path, removed)] = pt.iteration_log
        assert path == (0, 1) and removed == frozenset()
        assert origins(pt.base)[path[-1]][0] is None

    def test_clause_cut_roots_at_introducing_node(self):
        pt = pruned_tree(parse_program("p :- q, !.\nq."), parse_query("p"))
        [(path, _)] = pt.iteration_log
        assert path == (0, 1, 2) and pt.base.nodes[2].query[0] is CUT

    def test_nested_cuts_attribute_to_own_clause(self):
        pt = pruned_tree(parse_program("p :- q, !.\nq :- !."), parse_query("p"))
        # the inner cut comes from q's clause at node 1, the outer from p's at the root
        assert [path for path, _ in pt.iteration_log] == [(1, 2), (0, 1, 2, 3)]

    def test_300_nested_cut_scopes(self):
        """The cut-scope smoke row: each of 300 nested calls of ``c`` brings in
        its own cut, between a query atom before the calls and one after."""
        prog, query = parse_program(smoke.SCOPE_PROGRAM), parse_query(smoke.SCOPE_QUERY)
        pt, answers = pruned_answers(prog, query)
        ref = origins(pt.base)
        intros = [path[0] for path, _ in pt.iteration_log]
        assert intros == [ref[path[-1]][0] for path, _ in pt.iteration_log]
        assert len(set(intros)) == 2 * 301  # 301 under each b(X)
        _, want = search_answers(prog, query)
        assert pt.exact and len(answers) == 4
        assert [query_text(a) for a in answers] == [query_text(a) for a in want]


class TestCutLog:
    def test_paths_follow_the_forward_origins(self):
        """On seeded programs whose queries hold cuts too, the walk logs each
        executing node it reaches once, with a path that starts at the origin
        the forward bookkeeping gives the cut (the root for a cut of the
        query) and follows parent links down to it; what it removes are the
        path's right siblings that no earlier cut removed."""
        rng = random.Random("introducing")
        counts = {"executing": 0, "query cuts": 0, "nested": 0, "removed": 0}
        for i in range(3000):
            if i % 2:
                src = random_propositional_program(rng, ["a", "b", "c"], max_cuts=3)
                atoms = [rng.choice(["a", "b", "c"]) for _ in range(rng.randint(1, 3))]
            else:
                src = random_term_program(rng, max_cuts=3)
                atoms = [random_atom_text(rng, depth=1) for _ in range(rng.randint(1, 3))]
            goals = []
            for atom in atoms:
                goals += ["!", atom] if rng.random() < 0.3 else [atom]
            goals += ["!"] if rng.random() < 0.3 else []
            prog, query = parse_program(src), parse_query(", ".join(goals))
            pt = pruned_tree(prog, query, Budget(nodes=300, steps=12))
            nodes, ref, gone = pt.base.nodes, origins(pt.base), set()
            case = (src, ", ".join(goals))
            for path, removed in pt.iteration_log:
                e = path[-1]
                first = ref[e][0]
                assert nodes[e].query[0] is CUT, case
                assert path[0] == (0 if first is None else first), case
                assert all(nodes[b].parent == a for a, b in zip(path, path[1:])), case
                right = {c for a, b in zip(path, path[1:]) for c in nodes[a].children if c > b}
                assert removed == right - gone, case
                gone |= removed
                counts["executing"] += 1
                counts["query cuts"] += first is None
                counts["removed"] += len(removed)
                # a cut of another scope is pending behind this one
                counts["nested"] += any(a is CUT and o != first
                                        for a, o in zip(goal_atoms(nodes[e].query), ref[e]))
            executing = [n for n in sorted(pt.kept) if nodes[n].query[0] is CUT]
            assert sorted(path[-1] for path, _ in pt.iteration_log) == executing, case
        # 2,682 executing nodes, 1,238 of them query cuts, 656 nested, 1,054 ids removed
        assert counts["executing"] > 2_500 and counts["removed"] > 1_000, counts
        assert counts["query cuts"] > 1_000 and counts["nested"] > 500, counts


class TestPruneFixture:
    def test_original_tree_shape(self):
        prog = load_program("pruning_tree.pl")
        t = build_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        assert len(t) == 10 and t.exact
        pt, answers = pruned_answers(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        # after the executing (!, r, !) node, the only surviving descendants
        # on that side are the (r, !) node and the top-level r node
        queries = resolved_queries(pt.base)
        labels = {query_text(queries[n]) for n in pt.kept}
        assert "r, !" in labels and "r" in labels
        assert "t, !" not in labels and "r, r, !" not in labels
        assert answers == []

    def test_modified_tree_prunes_two_nodes(self):
        prog = load_program("pruning_tree_modified.pl")
        pt, answers = pruned_answers(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        queries = resolved_queries(pt.base)
        removed = {query_text(queries[n]) for n in set(pt.base.ids) - pt.kept}
        assert removed == {"r, r, !", "r"}
        assert [query_text(a) for a in answers] == ["p"]

    def test_pruned_by_points_to_executing_node(self):
        prog = load_program("pruning_tree.pl")
        pt = pruned_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
        assert pruned_by(pt)
        for removed, executing in pruned_by(pt).items():
            assert pt.base.nodes[executing].query[0] is CUT
            assert removed not in pt.kept


class TestPrologSearch:
    def test_plain_backtracking(self):
        prog, _ = build("p(a).\np(b).", "p(X)")
        _, answers = search_answers(prog, parse_query("p(X)"))
        assert [query_text(a) for a in answers] == ["p(a)", "p(b)"]

    def test_cut_commits(self):
        prog = parse_program("p(X) :- q(X), !.\nq(a).\nq(b).")
        _, answers = search_answers(prog, parse_query("p(X)"))
        assert [query_text(a) for a in answers] == ["p(a)"]

    def test_cut_in_initial_query(self):
        prog = parse_program("q(a).\nq(b).")
        _, answers = search_answers(prog, parse_query("q(X), !"))
        assert [query_text(a) for a in answers] == ["q(a), !"]

    def test_budget_marks_inexact(self):
        prog = parse_program("p :- p.")
        res, answers = search_answers(prog, parse_query("p"), Budget(steps=10))
        assert not res.exact and answers == []


class TestDifferential:
    def _agree(self, prog, query, nodes=400, steps=400):
        pt, answers = pruned_answers(prog, query, Budget(nodes=nodes, steps=steps))
        if not pt.exact:
            return None
        res, res_answers = search_answers(prog, query, Budget(steps=100_000))
        if not res.exact:
            return None
        got = [repr(canonical(a)) for a in answers]
        want = [repr(canonical(a)) for a in res_answers]
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
        _, answers = pruned_answers(prog, q, Budget(nodes=2000, steps=500))
        got = [query_text(a) for a in answers]
        _, res_answers = search_answers(prog, q)
        assert got == [query_text(a) for a in res_answers] == ["in([1], [1, 2])"]


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
        counts = {"exact": 0, "truncated": 0, "compared": 0}
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
            lazy, lazy_answers = pruned_answers(prog, query, budget)
            # the full tree expanded every node the walk expanded unless its
            # node budget, which the walk spends differently, ran out first
            by_steps_only = all(
                len(root_path(tree, n)) > steps for n in tree.ids
                if tree.nodes[n].status == TRUNCATED
            )
            if want.exact or by_steps_only:
                got, expected = walk_and_fixpoint(lazy, lazy_answers, want)
                assert got == expected, src
                counts["compared"] += 1
            if want.exact:
                counts["exact"] += 1
            else:
                counts["truncated"] += 1
                if lazy.exact:
                    res, res_answers = search_answers(prog, query, Budget(steps=100_000))
                    assert res.exact, src
                    assert _canonical_answers(lazy_answers) == \
                        _canonical_answers(res_answers), src
        assert counts["exact"] > self.PROGRAMS // 4
        if nodes < 100:
            assert counts["truncated"] >= 10
            assert counts["compared"] > counts["exact"]  # truncated trees compared too

    def test_fixtures(self):
        for name in ("pruning_tree.pl", "pruning_tree_modified.pl"):
            prog = load_program(name)
            tree = build_tree(prog, parse_query("p"), Budget(nodes=1000, steps=100))
            want = fixpoint_prune(tree)
            lazy, lazy_answers = pruned_answers(prog, parse_query("p"),
                                                Budget(nodes=1000, steps=100))
            got, expected = walk_and_fixpoint(lazy, lazy_answers, want)
            assert want.exact and got == expected


class TestPrunedTree:
    def test_ladder_keeps_only_the_committed_branch(self):
        # the unpruned tree has 3^10 branches; the pruned one keeps 3k + 2 nodes
        query = parse_query("loop(" + "s(" * 10 + "z" + ")" * 10 + ")")
        pt, answers = pruned_answers(parse_program(LADDER), query, Budget(nodes=2000))
        assert pt.exact and len(pt.kept) == 32
        assert _canonical_answers(answers) == _canonical_answers([query])

    def test_dropped_siblings_are_never_expanded(self):
        query = parse_query("loop(s(s(s(z))))")
        pt = pruned_tree(parse_program(LADDER), query, Budget(nodes=2000))
        for removed, executing in pruned_by(pt).items():
            assert pt.base.nodes[executing].query[0] is CUT
            assert not pt.base.nodes[removed].children
        assert set(pt.base.ids) == pt.kept | set(pruned_by(pt))

    def test_cut_away_infinite_branch_is_exact(self):
        prog = parse_program(INFINITE)
        pt, answers = pruned_answers(prog, parse_query("p"), Budget(nodes=500))
        assert pt.exact and len(pt.kept) == 4
        full = build_tree(prog, parse_query("p"), Budget(nodes=500))
        want = fixpoint_prune(full)
        assert not full.exact and want.exact and len(want.kept) == 4
        got, expected = walk_and_fixpoint(pt, answers, want)
        assert got == expected
        _, res_answers = search_answers(prog, parse_query("p"))
        assert _canonical_answers(answers) == _canonical_answers(res_answers)

    def test_sibling_bindings_are_undone(self):
        # the first clause binds Y; the second binds its own Z to f(Y) and
        # leaves Y free, so the answer must not see the first clause's binding
        _, answers = pruned_answers(parse_program("p(f(a)).\np(Z)."), parse_query("p(f(Y))"))
        assert [query_text(a) for a in answers] == ["p(f(a))", "p(f(Y))"]

    def test_stops_at_first_truncated_node(self):
        pt, answers = pruned_answers(parse_program("p :- p.\np."), parse_query("p"),
                                     Budget(steps=5))
        assert not pt.exact
        assert answers == []
