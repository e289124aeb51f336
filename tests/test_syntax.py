import pytest

from cutcheck import Budget, CUT, UNIVERSAL, AtomSet
from cutcheck.syntax import (
    ParseError,
    atom_text,
    clause_text,
    parse_program,
    parse_query,
    parse_spec,
    program_text,
    query_text,
    term_text,
)
from cutcheck.terms import Compound, Pred, Var, const, make_list


class TestProgramParsing:
    def test_facts_and_rules(self):
        p = parse_program("p(a).\nq(X) :- p(X), !.")
        assert len(p.clauses) == 2
        assert p.clauses[1].body[-1] is CUT

    def test_list_sugar(self):
        p = parse_program("p([a, b | T]).")
        t = p.clauses[0].head.args[0]
        assert t == Compound(".", (const("a"), Compound(".", (const("b"), Var("T")))))

    def test_quoted_and_primed_names(self):
        p = parse_program("p(a', 'Hello world').")
        assert p.clauses[0].head.args[0] == const("a'")
        assert p.clauses[0].head.args[1] == const("Hello world")

    def test_comments_ignored(self):
        p = parse_program("% top\np(a). % trailing\n")
        assert len(p.clauses) == 1

    def test_cut_head_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_program("! :- p.")
        assert "cut" in str(exc.value)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program("p(a)\nq(b).")
        assert exc.value.line == 2

    def test_query(self):
        q = parse_query("p(X), !, q(X)")
        assert len(q) == 3 and q[1] is CUT
        assert parse_query("") == ()


class TestPrinting:
    ROUNDTRIP = [
        "p(a).",
        "p([1, 2], [X | T]) :- q(X), !, r(T).",
        "p('odd name', a').",
        "p([]).",
    ]

    @pytest.mark.parametrize("src", ROUNDTRIP)
    def test_roundtrip(self, src):
        p = parse_program(src)
        assert program_text(parse_program(program_text(p))) == program_text(p)

    def test_improper_list(self):
        t = Compound(".", (const("a"), Var("T")))
        assert term_text(t) == "[a | T]"

    def test_query_text(self):
        assert query_text(parse_query("p(X), !")) == "p(X), !"

    def test_atom_and_clause_text(self):
        p = parse_program("p(f(X)) :- q.")
        assert clause_text(p.clauses[0]) == "p(f(X)) :- q."
        assert atom_text(p.clauses[0].head) == "p(f(X))"


class TestSpecParsing:
    def test_sets_and_bounds(self):
        suite = parse_spec(
            """
            [S]
            p(a).
            q(X) where ground(X).

            [pre]
            any.

            [post]
            p(a).

            [bounds]
            depth = 2. nodes = 10. steps = 20.
            """
        )
        assert not suite.s.universal
        assert suite.s.atoms == (Pred("p", (const("a"),)),)
        assert [p.template for p in suite.s.patterns] == [Pred("q", (Var("X"),))]
        assert suite.pre == UNIVERSAL
        assert suite.post == AtomSet(atoms=(Pred("p", (const("a"),)),))
        assert suite.budget == Budget(depth=2, nodes=10, steps=20)

    def test_alphabet_and_levels(self):
        suite = parse_spec(
            """
            [alphabet]
            functor '.'/2.
            functor '[]'/0.
            predicate p/1.

            [level]
            p(X) = 1 + 2*len(X).
            """
        )
        assert (".", 2) in suite.alphabet.functors
        lm = suite.level_maps["p/1"]
        assert lm.constant == 1 and lm.terms == ((2, "len", 0),)

    def test_named_sets_and_notin(self):
        suite = parse_spec(
            """
            [set mine]
            p(a).

            [S]
            q(X) where ground(X), notin(p(X), mine).
            """
        )
        assert suite.named_sets["mine"] == AtomSet(atoms=(Pred("p", (const("a"),)),))
        pattern = suite.s.patterns[0]
        assert pattern.guards[1].name == "notin"
        assert pattern.guards[1].args[1] == "mine"

    def test_declaration_outside_section(self):
        with pytest.raises(ParseError):
            parse_spec("p(a).")

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_spec("[wat]\np(a).")

    def test_unknown_guard(self):
        with pytest.raises(ParseError):
            parse_spec("[S]\np(X) where odd(X).")

    def test_errors_carry_file_lines(self):
        # section bodies skip blank and comment lines; errors still name the file line
        text = "[bounds]\ndepth = 1.\n\n[S]\n% S\nq.\n\np(X) where odd(X).\n"
        with pytest.raises(ParseError) as exc:
            parse_spec(text)
        assert (exc.value.line, exc.value.col) == (8, 12)
        with pytest.raises(ParseError) as exc:
            parse_spec("[alphabet]\n\nfunctor f/two.\n")
        assert str(exc.value) == "3:11: expected an arity"

    def test_any_section_makes_s_universal(self):
        suite = parse_spec("[S]\np(a).\n\n[S-patterns]\nq(X).\nany.\n")
        assert suite.s == UNIVERSAL

    def test_default_s_empty_when_sections_present(self):
        suite = parse_spec("[pre]\nany.")
        assert suite.s == AtomSet()
