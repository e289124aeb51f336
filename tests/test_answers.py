"""Answers at success leaves, checked against the naive algebra, and the
printer that writes them from the binding store.

Every node keeps only its own step mgu, and the pruned-tree walk hands the
bindings of the current root path to ``on_answer`` once per Success leaf;
here each leaf's answer is recomputed the slow way: every mgu
on its root path is recomputed with the naive unification of
``tests/naive_unify.py`` and composed naively, and the composition is
applied to the query.  The printer's text of a store is checked against
the text of the query resolved through it.
"""

import random
import tracemalloc
from unittest import mock

import pytest

from cutcheck import Budget, parse_program, parse_query, prolog_search, pruned_tree
from cutcheck import syntax
from cutcheck.cli import main
from cutcheck.engine import SUCCESS, goal_atoms
from cutcheck.syntax import answer_printer, query_text
from cutcheck.terms import CUT, Compound, Var, canonical, make_list, resolve

from conftest import load_program, pruned_answers, random_term_program, search_answers
from derivations import recorded_steps
from full_tree import preorder, root_path
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
    tree's {node id: step} from ``recorded_steps``.

    A node keeps its goals as written and an mgu that binds over its
    parent's root path: the selected atom, under the composition of the
    mgus above it, is unified naively with the step's clause variant, and
    the step's mgu, under the composition that includes it, must give the
    same bindings."""
    tree = pt.base
    out = []
    for nid in preorder(tree, pt.kept).ids:
        if tree.nodes[nid].status != SUCCESS:
            continue
        sigma = {}
        chain = root_path(tree, nid)
        for parent, child in zip(chain, chain[1:]):
            step, mgu = steps[child], tree.nodes[child].mgu
            selected = tree.nodes[parent].query[0]
            if step.clause_index is None:
                assert selected is CUT and not mgu
                continue
            theta = naive_unify(naive_apply(sigma, selected), step.clause_variant.head)
            sigma = naive_compose(sigma, theta)
            assert {name: naive_apply(sigma, t) for name, t in mgu.items()} == theta
        out.append(naive_apply(sigma, goal_atoms(tree.nodes[0].query)))
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
            search, want = search_answers(program, query, Budget(steps=200))
            if pt.exact and search.exact:
                compared += 1
                assert [canonical(a) for a in got] == [canonical(a) for a in want]
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


def printed_pairs(program, query, budget) -> list:
    """Per answer of either engine, pruned tree first: the printer's text of
    the store and the text of the query resolved through it, both taken
    during the callback."""
    print_answer = answer_printer(query)
    pairs: list = []

    def record(store):
        pairs.append((print_answer(store), query_text(resolve(store, query))))

    pruned_tree(program, query, budget, on_answer=record)
    prolog_search(program, query, budget, on_answer=record)
    return pairs


def written_pieces(printer, store) -> tuple:
    """The printer's text of ``store``, and how many pieces ``_write``
    appended for it."""
    real = syntax._write
    pieces = 0

    def counted(out, *args):
        nonlocal pieces
        start = len(out)
        real(out, *args)
        pieces += len(out) - start

    with mock.patch.object(syntax, "_write", counted):
        text = printer(store)
    return text, pieces


# repeated, shared and unbound variables, ground arguments, cuts; and one query per kind of
# slot of the printer's template: a list with a variable tail inside a compound, a variable
# repeated across atoms, a quoted constant, a ground list beside a non-ground one ending in it
PRINTER_QUERIES = (
    "p(X)", "p(X), q(X)", "q(g(X, X))", "r(f(a)), p(Y)", "p(g(X, Y)), q(Y)",
    "q(f(a)), r(g(a, b))", "p(X), !, r(Z)", "r(g(f(X), Y)), p(Y), !",
    "q(f([a | X])), p(X)", "p(X), r(g(X, Y)), q(Y), p(X)", "r('A b'), p(X)",
    "p(g([a, b], [X, a, b])), q(X)",
)


class TestAnswerPrinter:
    def test_random_programs(self):
        """The printer's text of every store both engines hand over is the
        text of the resolved query."""
        rng = random.Random(24)
        printed = 0
        for _ in range(300):
            program = parse_program(src := random_term_program(rng))
            for query in PRINTER_QUERIES:
                for got, want in printed_pairs(program, parse_query(query),
                                               Budget(nodes=300, steps=30)):
                    assert got == want, (src, query)
                    printed += 1
        assert printed > 300

    @pytest.mark.parametrize(
        "program, query",
        [
            ("append.pl", "app(X, Y, [1, 2])"),
            ("append.pl", "app(X, X, Z)"),
            ("append.pl", "app(X, [a | T], Z)"),
            ("append.pl", "app(X, Y, Z), !"),
            ("in.pl", "in(X, Y)"),
            ("in.pl", "in(X, [1, 2])"),
            ("in.pl", "in([X, Y], [1, X])"),
            ("in.pl", "m(E, L)"),
            ("artificial.pl", "p(X, Z)"),
            ("artificial.pl", "q(X, Y), r(Y, Z)"),
            ("notp.pl", "notp(b)"),
            ("pruning_tree_modified.pl", "p"),
            (APPMEM, "app(X, Y, [a, b, a, a]), mem(a, X)"),
            (APPMEM, "app(X, Y, [a, b | T]), mem(a, Y)"),
            (APPMEM, "app(X, Y, Z), mem(W, X), mem(W, Y)"),
            (APPMEM, "app(X, Y, [A, b, C | T]), mem(a, X), mem(W, X)"),
            (APPMEM, "mem(W, [g([a | T]), h]), app(T, [b], Z)"),
            (APPMEM, "app(X, Y, [a, b]), app(Y, X, Z), mem(b, Z)"),
            (APPMEM, "mem(X, ['A b', 'c''d', [], '[]', f('[]')]), app([X], [X], Z)"),
            (APPMEM, "app([c | X], [a, b], Z), mem(a, [b | Z])"),
        ],
    )
    def test_fixtures_and_appmem(self, program, query):
        program = load_program(program) if program.endswith(".pl") else parse_program(program)
        pairs = printed_pairs(program, parse_query(query), Budget(nodes=400, steps=40))
        assert pairs and all(got == want for got, want in pairs)

    def test_a_name_is_printed_once_per_printer(self):
        """Over every answer of both engines, one printer works out the text
        of each functor once (``_name_text``), the query's own included: the
        texts of constants and of functors read no binding, so they outlive
        an answer.  Worked out afresh for each answer, they took 2,716 calls
        for 10 names here."""
        program = parse_program("t(f(a, g(b, 'C d'))).\nt(f(c, g(X, 'C d'))).\nt([h(a) | T]).\n"
                                "t(k(f(X, c), e)).\nt(f(X, Y)) :- t(Y).")
        query = parse_query("t(X), t(k(Y, e))")
        printer = answer_printer(query)
        texts, calls = [], []
        real = syntax._name_text

        def counted(name):
            calls.append(name)
            return real(name)

        with mock.patch.object(syntax, "_name_text", counted):
            for search in (pruned_tree, prolog_search):
                search(program, query, Budget(nodes=300, steps=30),
                       on_answer=lambda store: texts.append(printer(store)))
        assert len(texts) >= 20 and "t(f(a, g(b, 'C d'))), t(k(" in texts[0]
        assert sorted(calls) == sorted(set(calls)), calls

    def test_deep_answer(self):
        """An answer thousands of bindings deep prints without recursion,
        from a hand-built store and from both engines' own."""
        depth = 5000
        store = {f"X{i}": Compound("s", (Var(f"X{i + 1}"),)) for i in range(depth)}
        store[f"X{depth}"] = Compound("z")
        want = "n(" + "s(" * depth + "z" + ")" * depth + ")"
        assert answer_printer(parse_query("n(X0)"))(store) == want
        # d(K, N) binds N to s(N1), N1 to s(N2), ... once per s of K
        program = parse_program("d(0, z).\nd(s(K), s(N)) :- d(K, N).")
        query = parse_query("d(" + "s(" * depth + "0" + ")" * depth + ", N)")
        want = "d(" + "s(" * depth + "0" + ")" * depth + ", " + "s(" * depth + "z" + ")" * depth + ")"
        assert printed_pairs(program, query, Budget(steps=3 * depth)) == [(want, want)] * 2

    def test_variable_chain_is_followed_once(self):
        """A chain of 2,000 variables bound to variables, reached 2,000
        times: the store is read O(chain + occurrences) times, not once per
        link and occurrence."""

        class CountingStore(dict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        n = 2000
        store = CountingStore({f"X{i}": Var(f"X{i + 1}") for i in range(n)})
        store["L"] = make_list([Var("X0"), Var(f"X{n // 2}")] * (n // 2))
        assert answer_printer(parse_query("p(L)"))(store) == "p([" + ", ".join([f"X{n}"] * n) + "])"
        assert store.gets <= 2 * (n + n) + 10

    def test_a_step_leaves_no_variable_chain_of_its_own(self, fixtures_dir, capsys):
        """``in(X, [1, 2])`` at 2,000 nodes: a step of ``m(E, [E|L])`` binds
        the goal's element variable to the clause's, and that one to 1.  Its
        mgu binds both to 1, so the printer follows no chain of variables
        bound to variables: no ``_chain_end`` call, as when every mgu was
        made idempotent.  Left as the unification made it, the first binding
        took the printer through 79,800 such calls here, and 1,279,200 at
        8,000 nodes."""
        calls = 0
        real = syntax._chain_end

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        with mock.patch.object(syntax, "_chain_end", counted):
            code = main(["run", str(fixtures_dir / "in.pl"), "in(X, [1, 2])", "--nodes", "2000"])
        assert code == 3 and len(capsys.readouterr().out.splitlines()) == 401
        assert calls == 0

    def test_a_repeated_bound_variable_is_printed_once(self):
        """A variable bound to a non-ground list of 50 cells, met three times
        in one answer: the text is the resolved query's, and the store is
        read once per element and occurrence of the list's variable, since
        the printer copies the list's first text (three walks of the list
        read it over 150 times)."""

        class CountingStore(dict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        n = 50
        store = CountingStore({f"E{i}": Compound("a") for i in range(0, n, 2)})
        store["L"] = make_list([Var(f"E{i}") for i in range(n)], Var("T"))
        query = parse_query("p(L, f(L), L)")
        want = query_text(resolve(dict(store), query))
        assert "E1, a, E3" in want
        assert answer_printer(query)(store) == want
        assert store.gets <= n + 10, store.gets

    def test_a_compound_bound_to_two_variables_is_written_at_each(self):
        """Two query variables bound to one non-ground compound in one
        answer, directly and through a third variable: the text is the
        resolved query's, and ``_write`` appends no more pieces than the
        text has characters."""
        z = Var("Z")
        shared = Compound("f", (Compound("g", (z,)), make_list([Compound("a"), z], z)))
        store = {"X": shared, "Y": shared, "W": Var("X")}
        query = parse_query("p(X, Y), q(W, g(Y))")
        text, pieces = written_pieces(answer_printer(query), store)
        assert text == query_text(resolve(store, query))
        assert text.count("f(g(Z), [a, Z | Z])") == 4 and pieces <= len(text)
        program = parse_program("t(f(g(Z), [a | Z])).\ns(T, T).")
        pairs = printed_pairs(program, parse_query("t(X), s(X, Y)"), Budget())
        assert pairs == [("t(f(g(Z), [a | Z])), s(f(g(Z), [a | Z]), f(g(Z), [a | Z]))",) * 2] * 2

    def test_an_answer_that_doubles_is_written_in_time_linear_in_its_text(self):
        """``t(f(A, A)) :- t(A)``: the k-th answer binds X to a chain of k
        compounds, each holding the next twice, so its text doubles with k
        while its store grows by one binding.  The pieces ``_write`` appends
        stay within the text, in both engines."""
        program = parse_program("t(z).\nt(f(A, A)) :- t(A).")
        query = parse_query("t(X)")
        printer = answer_printer(query)
        for search in (pruned_tree, prolog_search):
            lengths = []

            def record(store):
                text, pieces = written_pieces(printer, store)
                assert text == query_text(resolve(store, query))
                assert pieces <= len(text)
                lengths.append(len(text) - len("t()"))

            search(program, query, Budget(steps=16), on_answer=record)
            assert len(lengths) >= 8, lengths
            assert all(b == 2 * a + len("f(, )") for a, b in zip(lengths, lengths[1:])), lengths

    def test_search_keeps_no_answer(self):
        """With a callback that keeps nothing, the search's traced peak grows
        by the bindings of its one branch, some hundreds of bytes a step;
        answers kept would add tens of kilobytes a step (their lists
        grow with the step count)."""
        program, query = load_program("in.pl"), parse_query("in(X, Y)")
        peaks = []
        for steps in (500, 2000):
            tracemalloc.start()
            try:
                prolog_search(program, query, Budget(steps=steps), on_answer=lambda store: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 1500 < 2000, peaks
