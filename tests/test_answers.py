"""Answers resolved at success leaves, checked against the naive algebra.

Every node keeps only its own step mgu, and the pruned-tree walk resolves an
answer once per Success leaf through the bindings of the current root path;
here each leaf's answer is recomputed the slow way: every mgu
on its root path is recomputed with the naive unification of
``tests/naive_unify.py`` and composed naively, and the composition is
applied to the query.
"""

import random

import pytest

from cutcheck import Budget, parse_program, parse_query, prolog_search
from cutcheck.cli import main
from cutcheck.engine import SUCCESS
from cutcheck.terms import CUT, canonical

from conftest import load_program, pruned_answers
from derivations import recorded_steps
from full_tree import preorder
from naive_unify import naive_apply, naive_compose, naive_unify

APPMEM = """\
app([], L, L).
app([H|K], L, [H|M]) :- app(K, L, M).
mem(X, [X|T]).
mem(X, [H|T]) :- mem(X, T).
"""


def naive_answers(pt, steps: dict) -> list:
    """The root query under the naively recomputed and composed mgus of the
    root path of every kept Success leaf, in preorder.  ``steps`` is the
    tree's {node id: step} from ``recorded_steps``."""
    tree = pt.base
    out = []
    for nid in preorder(tree, pt.kept).ids:
        if tree.nodes[nid].status != SUCCESS:
            continue
        sigma = {}
        chain = tree.ancestors(nid)
        for parent, child in zip(chain, chain[1:]):
            step, mgu = steps[child], tree.nodes[child].mgu
            selected = tree.nodes[parent].query[0]
            if step.clause_index is None:
                assert selected is CUT and not mgu
                continue
            theta = naive_unify(selected, step.clause_variant.head)
            assert theta == mgu
            sigma = naive_compose(sigma, theta)
        out.append(naive_apply(sigma, tree.query))
    return out


def check_answers(program, query, budget) -> list:
    with recorded_steps() as steps:
        pt, got = pruned_answers(program, query, budget)
    assert got == naive_answers(pt, steps[pt.base])
    return got


def random_af_program(rng: random.Random) -> str:
    """A program over the constant ``a`` and the function ``f/1``, with cuts."""

    def term(depth):
        r = rng.random()
        if depth == 0 or r < 0.5:
            return rng.choice(["a", "X", "Y", "Z"])
        return f"f({term(depth - 1)})"

    def atom():
        if rng.random() < 0.5:
            return f"p({term(2)})"
        return f"q({term(2)}, {term(2)})"

    clauses = []
    for _ in range(rng.randint(1, 5)):
        body = [rng.choice(["!", atom(), atom()]) for _ in range(rng.randint(0, 3))]
        clauses.append(atom() + (" :- " + ", ".join(body) if body else "") + ".")
    return "\n".join(clauses)


class TestAnswersEqualNaiveComposition:
    @pytest.mark.parametrize("n", range(9))
    def test_appmem(self, n):
        items = ", ".join("a" if i % 3 != 1 else "b" for i in range(n))
        query = parse_query(f"app(X, Y, [{items}]), mem(a, X)")
        got = check_answers(parse_program(APPMEM), query, Budget())
        # an ``a`` at position p is a member of the n - p prefixes that hold it
        assert len(got) == sum(n - p for p in range(n) if p % 3 != 1)

    @pytest.mark.parametrize(
        "fixture, query, nodes, steps",
        [
            ("append.pl", "app(X, Y, Z)", 60, 12),
            ("append.pl", "app(X, [c], Z)", 40, 20),
            ("append.pl", "app(X, Y, [a, b, c])", 200, 50),
            ("in.pl", "in(X, [1, 2])", 150, 150),
            ("in.pl", "in(X, Y)", 100, 30),
            ("in.pl", "m(E, L)", 50, 10),
            ("artificial.pl", "p(X, Z)", 200, 50),
            ("artificial.pl", "q(X, Y), r(Y, Z)", 200, 50),
        ],
    )
    def test_fixtures(self, fixture, query, nodes, steps):
        got = check_answers(load_program(fixture), parse_query(query), Budget(nodes=nodes, steps=steps))
        assert got

    def test_random_programs(self):
        """Random programs over a/0 and f/1; where both engines are exact,
        the reference engine finds the same answers up to variable names."""
        rng = random.Random(2024)
        answered = compared = 0
        for _ in range(300):
            program = parse_program(random_af_program(rng))
            query = parse_query(rng.choice(["p(X)", "q(X, Y)", "q(f(X), X)"]))
            with recorded_steps() as steps:
                pt, got = pruned_answers(program, query, Budget(nodes=200, steps=20))
            assert got == naive_answers(pt, steps[pt.base])
            answered += bool(got)
            search = prolog_search(program, query, Budget(steps=200))
            if pt.exact and search.exact:
                compared += 1
                assert [canonical(a) for a in got] == [canonical(a) for a in search.answers]
        assert answered > 50 and compared > 100


class TestDeepAnswers:
    def test_in_with_thousands_of_list_cells(self, capsys, fixtures_dir):
        """The i-th answer is a list of i ones: 800 answers, the last holding
        a list 799 cells long, built and printed without recursion."""
        code = main(["run", str(fixtures_dir / "in.pl"), "in(X, [1, 2])", "--nodes", "4000"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        assert lines[-1] == "(budget exhausted; answer list may be incomplete)"
        assert len(lines[:-1]) == 800
        for i, line in enumerate(lines[:-1]):
            assert line == "in([" + ", ".join(["1"] * i) + "], [1, 2])"
