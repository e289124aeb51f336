import contextlib
import dataclasses
import io
import itertools
import random
import tracemalloc
import types
from unittest import mock

import pytest

from cutcheck import (
    Budget, CUT, apply, build_tree, engine, parse_program, parse_query, prolog_search, pruned_tree,
    pruning, terms,
)
from cutcheck.cli import main
from cutcheck.engine import (
    EMPTY,
    FAILURE,
    SUCCESS,
    TRUNCATED,
    goal_atoms,
    goal_list,
    ld_expand,
    resolved_queries,
)
from cutcheck.syntax import query_text
from cutcheck.terms import (
    Compound, FreshNames, Pred, match, rename_apart, resolve, unify, vars_of,
)

from conftest import (
    load_program, pruned_answers, random_atom_text, random_propositional_program,
    random_term_program,
)
from derivations import branch_derivation, recorded_steps, subderivation, variant_equal
from full_tree import answers, preorder
import smoke


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
        assert grandchild.query == EMPTY and grandchild.status == SUCCESS

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
        """A variant shares no variable with its parent's goals, as written
        or resolved."""
        with recorded_steps() as steps:
            t = tree_of("q(f(X)) :- r(X).\nr(a).", "q(Y)")
        assert len(steps[t]) == len(t) - 1
        queries = resolved_queries(t)
        for nid, step in steps[t].items():
            if step.clause_variant is not None:
                variant_vars = set(vars_of(step.clause_variant))
                parent = t.nodes[nid].parent
                assert variant_vars.isdisjoint(vars_of(goal_atoms(t.nodes[parent].query)))
                assert variant_vars.isdisjoint(vars_of(queries[parent]))

    def test_clause_order_is_child_order(self):
        with recorded_steps() as steps:
            t = tree_of("p(b).\np(a).", "p(X)")
        kids = [steps[t][c].clause_index for c in t.nodes[0].children]
        assert kids == sorted(kids) == [0, 1]

    def test_failure_status(self):
        t = tree_of("p(a).", "q(X)")
        assert t.nodes[0].status == FAILURE

    def test_rebasing_changes_no_node(self, monkeypatch):
        """``build_tree`` resolves a node's goal list and starts its store
        afresh there once the node lies far enough below its base.  On 300
        seeded programs, rebasing wherever it may (``REBASE_SLACK`` 0) and
        never (10**9) build the same nodes: parents, children, statuses,
        queries and answers.  Rebasing at slack 0 takes place 579 times."""
        rng = random.Random(30)
        rebased = 0
        real_resolve = engine.resolve

        def counted(store, e):
            nonlocal rebased
            rebased += 1
            return real_resolve(store, e)

        for _ in range(300):
            program = parse_program(random_term_program(rng, max_body=3))
            query = parse_query(", ".join(random_atom_text(rng) for _ in range(rng.randint(1, 3))))
            shapes = []
            for slack in (0, 10 ** 9):
                monkeypatch.setattr(engine, "REBASE_SLACK", slack)
                monkeypatch.setattr(engine, "resolve", counted)
                t = build_tree(program, query, Budget(nodes=300, steps=30))
                monkeypatch.setattr(engine, "resolve", real_resolve)
                shapes.append(([(n.parent, n.children, n.status) for n in t.nodes],
                               resolved_queries(t), answers(t)))
            assert shapes[0] == shapes[1]
        assert rebased > 300


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


class TestStepCost:
    """On ``p(z).  p(s(X)) :- p(X), q(X).  q(X).`` with ``p(s(...s(z)...))``
    the goal list grows by one ``q/1`` goal a step, to n goals.  A step
    builds only its renamed clause and conses its body onto the goals after
    the selected atom, so what a step builds does not depend on n."""

    PROGRAM = "p(z).\np(s(X)) :- p(X), q(X).\nq(X)."

    @staticmethod
    def builds_per_call(run, owner, name) -> list:
        """The ``Pred`` and ``Compound`` builds ``run()`` makes from each call
        of ``owner.name`` to the next (the last: to the end of the run)."""
        builds = 0
        marks: list = []
        real_compound, real_pred, real = Compound.__init__, Pred.__init__, getattr(owner, name)

        def compound(self, *args):
            nonlocal builds
            builds += 1
            real_compound(self, *args)

        def pred(self, *args, **kw):
            nonlocal builds
            builds += 1
            real_pred(self, *args, **kw)

        def call(*args, **kw):
            marks.append(builds)
            return real(*args, **kw)

        with mock.patch.object(Compound, "__init__", compound), \
                mock.patch.object(Pred, "__init__", pred), mock.patch.object(owner, name, call):
            run()
        marks.append(builds)
        return [b - a for a, b in zip(marks, marks[1:])]

    def query(self, n):
        return parse_query("p(" + "s(" * n + "z" + ")" * n + ")")

    def test_a_node_costs_the_same_at_any_depth(self):
        """The builds of each expansion of the pruned-tree walk take the
        same values at n = 500 as at n = 2,000, at most four (applying each
        mgu to the tail built one atom per goal of the list)."""
        program, per_node = parse_program(self.PROGRAM), {}
        for n in (500, 2000):
            query = self.query(n)
            per_node[n] = self.builds_per_call(lambda: pruned_tree(program, query, Budget()),
                                               engine.TreeBuilder, "expand")
            assert len(per_node[n]) == 2 * n + 2
        assert set(per_node[500]) == set(per_node[2000]) and max(per_node[2000]) <= 4

    def test_a_search_step_costs_the_same_at_any_depth(self):
        """The builds of each step of ``prolog_search``, from one head
        unification to the next, take the same values at n = 500 as at
        n = 2,000, at most four (resolving each call built its goal and
        every binding in it)."""
        program, per_step = parse_program(self.PROGRAM), {}
        for n in (500, 2000):
            query = self.query(n)
            per_step[n] = self.builds_per_call(lambda: prolog_search(program, query, Budget()),
                                               pruning, "head_step")
            assert len(per_step[n]) == 3 * n + 2
        assert set(per_step[500]) == set(per_step[2000]) and max(per_step[2000]) <= 4


class TestOccursCheck:
    """A resolution step skips the occurs check only at the one occurrence
    of a head-linear variable, in both engines.  The answers are counted
    from the store, never resolved, so a cyclic binding fails the test
    instead of hanging it."""

    @staticmethod
    def answer_counts(src: str, query: str) -> tuple:
        program, q = parse_program(src), parse_query(query)
        counts = []
        for run in (pruned_tree, prolog_search):
            stores: list = []
            assert run(program, q, Budget(), on_answer=stores.append).exact
            counts.append(len(stores))
        return tuple(counts)

    @pytest.mark.parametrize("src, query, count", [
        # X occurs once in the head, but Z reaches its variable through the store, bound by
        # the first argument, before f(H) is bound to it: f(H) holds g(Z)
        ("p(X, H, f(H)).", "p(Z, g(Z), Z)", 0),
        ("p(X, f(X)).", "p(Y, Y)", 0),
        ("p(f(X), X).", "p(Y, Y)", 0),  # X occurs twice in the head: checked at both
        ("p(X, Y).", "p(Z, f(Z))", 1),
    ])
    def test_answer_count(self, src, query, count):
        assert self.answer_counts(src, query) == (count, count)

    def test_the_answer_of_linear_variables(self):
        pt, answers = pruned_answers(parse_program("p(X, Y)."), parse_query("p(Z, f(Z))"))
        assert len(answers) == 1 and variant_equal(answers[0], parse_query("p(Z, f(Z))"))


class TestOccursCheckCost:
    """On the resolution smoke query ``app(X, Y, [b, ..., b, a]), mem(a,
    X)`` with n cells, the occurs check of a resolution step walks a number
    of bound variables that does not grow with n, in both engines.  Binding
    ``mem``'s ``T`` to the rest of the list walked that rest, one store
    binding a cell, when the check ran at every binding."""

    @staticmethod
    def lookups_per_step(run) -> list:
        """The store lookups ``terms._occurs_bound`` makes, one per variable
        it visits, from each resolution step of ``run()`` to the next."""
        lookups = 0
        marks: list = []
        real_occurs, real_step = terms._occurs_bound, engine.head_step

        def occurs(name, t, store):
            def get(key):
                nonlocal lookups
                lookups += 1
                return store.get(key)

            return real_occurs(name, t, types.SimpleNamespace(get=get))

        def head_step(*args):
            marks.append(lookups)
            return real_step(*args)

        with mock.patch.object(terms, "_occurs_bound", occurs), \
                mock.patch.object(engine, "head_step", head_step), \
                mock.patch.object(pruning, "head_step", head_step):
            run()
        marks.append(lookups)
        return [b - a for a, b in zip(marks, marks[1:])]

    @pytest.mark.parametrize("run", [pruned_tree, prolog_search],
                             ids=["pruned_tree", "prolog_search"])
    def test_lookups_per_step_stay_flat(self, run):
        program = parse_program(smoke.bench_module("workloads").APPMEM_PROGRAM)
        most = {}
        for n in (25, 50, 100):
            query = parse_query("app(X, Y, [" + ", ".join(["b"] * (n - 1) + ["a"]) + "]), mem(a, X)")
            per_step = self.lookups_per_step(lambda: run(program, query, Budget()))
            assert len(per_step) > n * n // 2
            most[n] = max(per_step)
        assert most[25] == most[50] == most[100] <= 2, most


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
        """The head-first step on goals as written against the whole-clause
        resolvent on resolved queries: the derivations of 300 seeded
        programs, expanded breadth-first with ``ld_expand`` and the
        reference side by side from the same state, give the same children
        and mgus once a child's goals and mgu are resolved through its
        root-path store, share the parent's goals after the selected atom,
        leave the store as it was, and leave the same fresh-name counter
        and forbidden names after every call.  The steps cover empty mgus,
        mgus of the clause only, mgus that reach the tail and clauses whose
        head fails after renaming."""
        rng = random.Random(5)
        cases = {"empty": 0, "clause": 0, "tail": 0}
        failed = [0]
        for _ in range(300):
            program, query = self.random_case(rng)
            forbidden, fresh = set(vars_of(query)), FreshNames()
            ref_forbidden, ref_fresh = set(forbidden), FreshNames()
            queue = [(query, goal_list(query), {})]  # resolved query, goal list, root-path store
            for q, goals, store in itertools.islice(queue, 60):  # the loop reaches children appended below
                before = dict(store)
                got = ld_expand(program, goals, store, forbidden, fresh)
                want = reference_ld_expand(program, q, ref_forbidden, ref_fresh, failed)
                assert store == before
                resolved = []
                for child, mgu in got:
                    rest = child
                    for _ in range(child[2] - goals[2] + 1):
                        rest = rest[1]
                    assert rest is goals[1]  # the goals after the selected atom, shared
                    child_store = {**store, **mgu}
                    resolved.append((resolve(child_store, goal_atoms(child)),
                                     {name: resolve(child_store, t) for name, t in mgu.items()}))
                    queue.append((resolved[-1][0], child, child_store))
                assert resolved == want, (program, q)
                assert (fresh.n, forbidden) == (ref_fresh.n, ref_forbidden)
                if q and q[0] is not CUT:
                    for _, mgu in resolved:
                        cases[tail_case(q, mgu)] += 1
        assert min(cases.values()) > 300 and failed[0] > 300, (cases, failed)

    def expand_one(self, src, query):
        q = parse_query(query)
        goals = goal_list(q)
        ((child, mgu),) = ld_expand(parse_program(src), goals, {}, set(vars_of(q)), FreshNames())
        assert child[1] is goals[1]  # a one-atom body, consed onto the parent's tail
        return q, resolve(mgu, goal_atoms(child)), {name: resolve(mgu, t) for name, t in mgu.items()}

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
