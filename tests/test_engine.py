import contextlib
import dataclasses
import io
import itertools
import random
import tracemalloc
from unittest import mock

import pytest

from cutcheck import (
    Budget, CUT, apply, build_tree, engine, parse_program, parse_query, prolog_search, pruned_tree,
    pruning, terms,
)
from cutcheck.cli import main
from cutcheck.engine import (
    FAILURE,
    SUCCESS,
    TRUNCATED,
    ld_expand,
)
from cutcheck.syntax import query_text
from cutcheck.terms import FreshNames, match, rename_apart, unify, vars_of

from conftest import (
    load_program, pruned_answers, random_atom_text, random_propositional_program,
    random_term_program,
)
from derivations import branch_derivation, recorded_steps, subderivation
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
        child = t.nodes[t.nodes[0].children[0]]
        assert child.query[0] is CUT
        grandchild = t.nodes[child.children[0]]
        assert grandchild.query == () and grandchild.status == SUCCESS

    def test_query_with_leading_cut(self):
        t = tree_of("p.", "!, p")
        assert t.nodes[0].query[0] is CUT
        assert any(n.status == SUCCESS for n in t.nodes)

    def test_step_budget_truncates(self):
        t = tree_of("p :- p.", "p", steps=5)
        assert not t.exact
        assert any(n.status == TRUNCATED for n in t.nodes)

    def test_node_budget_truncates(self):
        t = tree_of("p :- p, p.", "p", nodes=8)
        assert not t.exact

    def test_standardized_apart(self):
        with recorded_steps() as steps:
            t = tree_of("q(f(X)) :- r(X).\nr(a).", "q(Y)")
        assert len(steps[t]) == len(t) - 1
        for nid, step in steps[t].items():
            if step.clause_variant is not None:
                variant_vars = set(vars_of(step.clause_variant))
                parent = t.nodes[t.nodes[nid].parent]
                assert variant_vars.isdisjoint(vars_of(parent.query))

    def test_clause_order_is_child_order(self):
        with recorded_steps() as steps:
            t = tree_of("p(b).\np(a).", "p(X)")
        kids = [steps[t][c].clause_index for c in t.nodes[0].children]
        assert kids == sorted(kids) == [0, 1]

    def test_failure_status(self):
        t = tree_of("p(a).", "q(X)")
        assert t.nodes[0].status == FAILURE


class TestNodeMemory:
    def test_bytes_per_node(self):
        """A node is a slotted record of its query, parent, mgu, child range
        and status, and keeps neither the clause variant of its step nor its
        id, depth or a child list: under 950 traced bytes a node on Python
        3.10 to 3.13 (876, 731, 703 and 717 bytes on 3.10.13, 3.11.7, 3.12.1
        and 3.13.0; 900 to 1,150 with an id, a depth and a child list, 1,500
        to 2,000 with the variant kept)."""
        program, query = load_program("in.pl"), parse_query("in(X, [1, 2])")
        tracemalloc.start()
        try:
            pt = pruned_tree(program, query, Budget(nodes=8000))
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(pt.base) == 8000
        assert traced / len(pt.base) < 950

    def test_a_node_is_a_slotted_record(self):
        node = tree_of("p :- q.\nq.", "p").nodes[1]
        assert [f.name for f in dataclasses.fields(node)] == \
            ["query", "parent", "mgu", "children", "status"]
        assert not hasattr(node, "__dict__") and node.children == range(2, 3)


class TestClauseWalks:
    @staticmethod
    def walks(build) -> dict:
        """The calls ``build()`` makes to ``vars_of`` and ``rename_apart``,
        counted wherever ``terms``, ``engine`` and ``pruning`` reach them: a
        clause works out its variable names in ``terms``."""
        counts: dict = {}
        with contextlib.ExitStack() as stack:
            for module in (terms, engine, pruning):
                for name in ("vars_of", "rename_apart"):
                    real = getattr(module, name, None)
                    if real is None:
                        continue

                    def counted(*args, _real=real, _name=name, **kw):
                        counts[_name] = counts.get(_name, 0) + 1
                        return _real(*args, **kw)

                    stack.enter_context(mock.patch.object(module, name, counted))
            build()
        return counts

    def test_no_clause_walk_per_step(self):
        """A resolution step reads the variable names a clause worked out on
        its first use: the pruned tree of ``in(X, [1, 2])`` walks no clause
        more often at 2,000 nodes than at 500, nor the oracle's search at
        1,000 steps than at 250 (its answers grow, so more steps cost more
        than linear time).  A clause keeps its names, so each measurement
        parses its own program."""
        query = parse_query("in(X, [1, 2])")

        def tree(n):
            program = load_program("in.pl")
            return lambda: pruned_tree(program, query, Budget(nodes=n))

        def search(n):
            program = load_program("in.pl")
            return lambda: prolog_search(program, query, Budget(steps=n))

        small = self.walks(tree(500))
        assert small["vars_of"] > 1  # the query and the clauses a step reached
        assert small == self.walks(tree(2000))
        assert self.walks(search(250)) == self.walks(search(1000))

    def test_building_a_program_walks_no_clause(self):
        clauses = load_program("in.pl").clauses
        assert self.walks(lambda: engine.Program(clauses)) == {}

    def test_a_long_chain_walks_only_the_clauses_reached(self, tmp_path):
        """``tree p1 --nodes 10`` on a cut chain of m links (the CI reader
        smoke's program) walks as many clauses at 20,000 links as at 2,000."""

        def tree_walks(m):
            links = [f"p{i} :- !, p{i + 1}.\np{i}." for i in range(1, m + 1)]
            path = tmp_path / f"chain{m}.pl"
            path.write_text("\n".join(links + [f"p{m + 1}."]) + "\n", encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                counts = self.walks(lambda: main(["tree", str(path), "p1", "--nodes", "10"]))
            assert out.getvalue().startswith("tree: "), out.getvalue()
            return counts

        assert tree_walks(2000) == tree_walks(20000)


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
        success = [i for i, n in enumerate(t.nodes) if n.status == SUCCESS and n.parent == 0]
        assert all(s not in seq.ids for s in success)

    def test_kept_filter(self):
        t = tree_of("p.\np.", "p")
        seq = preorder(t, kept={0})
        assert seq.ids == (0,)


class TestSubderivation:
    def test_successful_prefix(self):
        t = tree_of("q(a).\nr(b).", "q(X), r(Y)")
        leaf = next(i for i, n in enumerate(t.nodes) if n.status == SUCCESS)
        d = branch_derivation(t, leaf)
        sub, ok, answer = subderivation(d, 0, 1)
        assert ok
        assert query_text(answer) == "q(a)"

    def test_unfinished_prefix(self):
        t = tree_of("q(a).", "q(X), r(Y)")
        leaf = len(t) - 1
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
        program, query = parse_program("p(f(a))."), parse_query("p(X)")
        _, got = pruned_answers(program, query)
        assert [query_text(a) for a in got] == ["p(f(a))"]
        assert match(query, got[0]) is not None

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


def reference_ld_expand(program, query, forbidden, fresh, failed=None):
    """The textbook resolvent: the whole clause is renamed apart, and the
    mgu is applied to the renamed body and the tail together.  Returns
    (child, mgu) pairs; ``failed``, when given, counts the matching clauses
    whose head does not unify."""
    if not query:
        return []
    selected = query[0]
    if selected is CUT:
        return [(query[1:], {})]
    out = []
    for _, clause in program.matching(selected):
        variant = rename_apart(clause, forbidden, fresh)
        theta = unify(selected, variant.head)
        if theta is None:
            if failed is not None:
                failed[0] += 1
            continue
        forbidden.update(vars_of(variant))
        out.append((apply(theta, variant.body + query[1:]), theta))
    return out


def tail_case(query, mgu) -> str:
    if not mgu:
        return "empty"
    if set(vars_of(query[0])).isdisjoint(mgu):
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
        """The head-first step against the whole-clause resolvent: the
        derivations of 300 seeded programs, expanded breadth-first with
        ``ld_expand`` and the reference side by side from the same state,
        give the same children and mgus, and leave the same fresh-name
        counter and forbidden names after every call.  The steps cover
        empty mgus, mgus of the clause only, mgus that reach the tail and
        clauses whose head fails after renaming."""
        rng = random.Random(5)
        cases = {"empty": 0, "clause": 0, "tail": 0}
        failed = [0]
        for _ in range(300):
            program, query = self.random_case(rng)
            forbidden, fresh = set(vars_of(query)), FreshNames()
            ref_forbidden, ref_fresh = set(forbidden), FreshNames()
            queue = [query]
            for q in itertools.islice(queue, 60):  # the loop reaches children appended below
                got = ld_expand(program, q, forbidden, fresh)
                want = reference_ld_expand(program, q, ref_forbidden, ref_fresh, failed)
                assert got == want, (program, q)
                assert (fresh.n, forbidden) == (ref_fresh.n, ref_forbidden)
                for child, mgu in got:
                    if q[0] is not CUT:
                        cases[tail_case(q, mgu)] += 1
                    queue.append(child)
        assert min(cases.values()) > 300 and failed[0] > 300, (cases, failed)

    def expand_one(self, src, query):
        q = parse_query(query)
        ((child, mgu),) = ld_expand(parse_program(src), q, set(vars_of(q)), FreshNames())
        return q, child, mgu

    def test_empty_mgu_keeps_the_tail(self):
        q, child, mgu = self.expand_one("p :- q.", "p, r(Y)")
        assert tail_case(q, mgu) == "empty"
        assert child == parse_query("q, r(Y)")

    def test_mgu_of_the_clause_only_keeps_the_tail(self):
        q, child, mgu = self.expand_one("p(X, f(Z)) :- q(X, Z).", "p(a, f(b)), r(Y, a)")
        assert tail_case(q, mgu) == "clause"
        assert child == parse_query("q(a, b), r(Y, a)")

    def test_mgu_of_the_selected_atom_reaches_the_tail(self):
        q, child, mgu = self.expand_one("p(a, X) :- q(X).", "p(Y, Y), r(Y)")
        assert tail_case(q, mgu) == "tail"
        assert child == parse_query("q(a), r(a)")
