import random

import pytest

from cutcheck import Budget, CUT, UNIVERSAL, AtomSet
from cutcheck.syntax import (
    ParseError,
    atom_text,
    clause_text,
    parse_program,
    parse_query,
    parse_spec,
    query_text,
    resolve_alphabet,
    term_text,
    _name_text,
)
from cutcheck.syntax import _pairs, tokenize
from cutcheck.terms import NIL, Compound, Pred, Var, list_items, make_list

from conftest import FIXTURES, random_term_program
from tokenize_reference import reference_tokenize


def program_text(p) -> str:
    """A program's clauses, one a line: the round-trip tests print with it."""
    return "\n".join(clause_text(c) for c in p.clauses) + ("\n" if p.clauses else "")


def recursive_term_text(t) -> str:
    """The recursive printer ``term_text`` was before it kept its own stack,
    kept as a test oracle: one Python call per subterm."""
    if isinstance(t, Var):
        return t.name
    items = list_items(t)
    if items is not None:
        return "[" + ", ".join(recursive_term_text(x) for x in items) + "]"
    if isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
        parts = []
        while isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
            parts.append(recursive_term_text(t.args[0]))
            t = t.args[1]
        return "[" + ", ".join(parts) + " | " + recursive_term_text(t) + "]"
    if t.args:
        return _name_text(t.functor) + "(" + ", ".join(recursive_term_text(a) for a in t.args) + ")"
    if t.functor == "[]":
        return "[]"
    return _name_text(t.functor)


class TestProgramParsing:
    def test_facts_and_rules(self):
        p = parse_program("p(a).\nq(X) :- p(X), !.")
        assert len(p.clauses) == 2
        assert p.clauses[1].body[-1] is CUT

    def test_list_sugar(self):
        p = parse_program("p([a, b | T]).")
        t = p.clauses[0].head.args[0]
        assert t == Compound(".", (Compound("a"), Compound(".", (Compound("b"), Var("T")))))

    def test_quoted_and_primed_names(self):
        p = parse_program("p(a', 'Hello world').")
        assert p.clauses[0].head.args[0] == Compound("a'")
        assert p.clauses[0].head.args[1] == Compound("Hello world")

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
        t = Compound(".", (Compound("a"), Var("T")))
        assert term_text(t) == "[a | T]"

    def test_query_text(self):
        assert query_text(parse_query("p(X), !")) == "p(X), !"

    def test_atom_and_clause_text(self):
        p = parse_program("p(f(X)) :- q.")
        assert clause_text(p.clauses[0]) == "p(f(X)) :- q."
        assert atom_text(p.clauses[0].head) == "p(f(X))"

    def test_shallow_terms_print_as_the_recursive_printer(self):
        rng = random.Random(3)
        functors = (("a", 0), ("'q x'", 0), ("1", 0), ("[]", 0), ("f", 1), ("g", 2), (".", 2),
                    (".", 1), ("[]", 1), ("h", 3))

        def term(depth):
            r = rng.random()
            if r < 0.2:
                return Var(rng.choice(("X", "Y", "_T")))
            if r < 0.35 and depth:  # a list, proper or not
                tail = NIL if rng.random() < 0.6 else term(depth - 1)
                return make_list([term(depth - 1) for _ in range(rng.randint(1, 3))], tail)
            name, k = rng.choice(functors if depth else functors[:4])
            return Compound(name.strip("'"), tuple(term(depth - 1) for _ in range(k)))

        for _ in range(3000):
            t = term(rng.randint(0, 4))
            text = term_text(t)
            assert text == recursive_term_text(t), t
            assert parse_query(f"p({text})")[0].args == (t,)

    def test_non_term_does_not_print(self):
        for t in (Compound("f", ("x",)), Compound("f", (1,)), make_list([Compound("a")], ")")):
            with pytest.raises(TypeError, match="cannot print"):
                term_text(t)

    def test_deep_terms_parse_and_print(self):
        n = 5000
        text = "s(" * n + "[1, [2 | T]]" + ")" * n
        t = parse_query(f"p({text})")[0].args[0]
        assert term_text(t) == text
        depth = 0
        while t.functor == "s":
            t, depth = t.args[0], depth + 1
        assert depth == n and term_text(t) == "[1, [2 | T]]"
        long_list = "[" + ", ".join(["a"] * n) + " | T]"
        assert term_text(parse_query(f"p({long_list})")[0].args[0]) == long_list


def _tokens_or_error(tokenizer, text):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenizer(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.message, exc.line, exc.col)


def _pairs_or_error(text):
    try:
        return _pairs(text)
    except ParseError as exc:
        return ("error", str(exc), exc.message, exc.line, exc.col)


class TestTokenizer:
    # pieces of program and spec text; the last eight cannot start a token
    PIECES = (
        "p", "q1", "f_x'", "0", "42", "X", "_", "_Y2", "Tail",
        "'a'", "'it''s'", "''", "'q x'", "'two\nlines'", "'''", "'.'",
        ":-", "(", ")", "[", "]", ",", "|", ".", "!", "=", "/", "*", "+",
        " ", "  ", "\t", "\n", "\n\n", " \n  \n\t", "\r\n",
        "% a comment", "%", "% it's % all\n", "[S]", "[set big]", "depth=3",
        "#", "@", ";", "\\", "-", '"', "é", "'open",
    )

    def random_text(self, rng):
        pieces = self.PIECES[:-8] if rng.random() < 0.6 else self.PIECES
        return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))

    # the traps of one token pattern scanned by ``findall``: a comment skip
    # that backtracks (``c`` a token), a trailing comment or white space
    # scanned again, the empty quoted name lost; then multi-line quoted
    # names, an unterminated quote and a bad character after a comment
    TRAPS = (
        "p(\n%c\n  a)", "p(\n%c\n  #", "p. % end", "p.  \n\t", "p.\n%", "  ", "% only",
        "p('').", "'' :- ''.", "p('a\nb', 'c\n\nd') :- q.", "'two\nlines' %c\n ;",
        "p('open).", "p :- q('it''s", "p. % c\n#", "p % 'q\n  @", "%a\n%b\n\n é",
    )

    def test_agrees_with_the_reference_tokenizer(self):
        rng = random.Random(12)
        texts = [self.random_text(rng) for _ in range(3000)] + list(self.TRAPS)
        texts += [random_term_program(rng) for _ in range(300)]
        texts += [f.read_text() for f in sorted(FIXTURES.iterdir()) if f.suffix in (".pl", ".spec")]
        errors = 0
        for text in texts:
            want = _tokens_or_error(reference_tokenize, text)
            assert _tokens_or_error(tokenize, text) == want, text
            # the parser's pairs: the same tokens, or the same error
            pairs = want if want[0] == "error" else [(kind, value) for kind, value, _, _ in want]
            assert _pairs_or_error(text) == pairs, text
            errors += want[0] == "error"
        assert 500 < errors < len(texts) - 1000  # both outcomes are well represented

    def test_traps(self):
        assert [t.value for t in tokenize("p(\n%c\n  a)")] == ["p", "(", "a", ")", ""]
        assert _pairs("p. % end") == [("name", "p"), ("punct", "."), ("eof", "")]
        assert _pairs("p.  \n\t") == [("name", "p"), ("punct", "."), ("eof", "")]
        assert tokenize("p.  \n\t")[-1] == ("eof", "", 2, 2)
        assert _pairs("p('').") == [("name", "p"), ("punct", "("), ("name", ""), ("punct", ")"),
                                    ("punct", "."), ("eof", "")]
        for text, line, col in (("p('open).", 1, 3), ("p. % c\n#", 2, 1),
                                ("p('a\nb', 'c\n\nd') :- #.", 4, 8)):
            with pytest.raises(ParseError) as exc:
                _pairs(text)
            assert (exc.value.line, exc.value.col) == (line, col), text

    def test_error_positions(self):
        for text, line, col in (("p.\n  q :- #.", 2, 8), ("'it''s' @", 1, 9),
                                ("'two\nlines' ;", 2, 8), ("p(X) % c\n\n\t\\", 3, 2)):
            with pytest.raises(ParseError) as exc:
                tokenize(text)
            assert (exc.value.line, exc.value.col) == (line, col)

    # each as the parser before the one-call reader reported it
    @pytest.mark.parametrize("parse, text, message, line, col", [
        (parse_program, "p.\nq :- r.\nr :- #.\n", "unexpected character '#'", 3, 6),
        (parse_program, "p :- 'open.\n", "unexpected character \"'\"", 1, 6),
        (parse_program, "p(a) :- q(\n  'two\nlines', ;).", "unexpected character ';'", 3, 9),
        (parse_program, "p. % trailing comment\n\n  ^", "unexpected character '^'", 3, 3),
        (parse_program, "! :- p.", "cut (!) cannot be a clause head", 1, 1),
        (parse_program, "p :- q\n", "expected '.', found 'eof'", 2, 1),
        (parse_query, "app(X, Y", "expected ')', found 'eof'", 1, 9),
        (parse_query, "p(X). q", "expected 'eof', found 'q'", 1, 7),
        (parse_query, "p(X) % c\n, 'it''s'(Y) @", "unexpected character '@'", 2, 14),
        (parse_spec, "[S]\np(a).\n\n[pre]\np(X) where odd(X).\n", "unknown guard 'odd'", 5, 12),
        (parse_spec, "[S]\n% note\nq(X) where ground(X), notin(p(X), nowhere).\n",
         "undeclared set 'nowhere' in notin guard", 3, 35),
        (parse_spec, "[set mine]\np(a).\n[S]\n\nq(X) where ground(X),\n"
         "   notin(p(X), mine), notin(r(X), other).\n", "undeclared set 'other' in notin guard", 6, 35),
        (parse_spec, "[alphabet]\nfunctor f/2.\npredicate p/x.\n", "expected an arity", 3, 13),
        (parse_spec, "[level]\np(X) = 1 + 2*len(Y).\n", "unknown argument variable 'Y'", 2, 14),
        (parse_spec, "[level]\np(X) = 1 + 2*depth(X).\n", "expected len(...) or size(...)", 2, 14),
        (parse_spec, "[post]\np('a\nb') where #.\n", "unexpected character '#'", 3, 11),
    ])
    def test_parse_errors_keep_message_and_position(self, parse, text, message, line, col):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)

    def test_tokens_are_tuples(self):
        assert tokenize("p :- 'q x'.") == [
            ("name", "p", 1, 1), ("punct", ":-", 1, 3), ("name", "q x", 1, 6),
            ("punct", ".", 1, 11), ("eof", "", 1, 12),
        ]


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
        assert suite.s.atoms == (Pred("p", (Compound("a"),)),)
        assert [p.template for p in suite.s.patterns] == [Pred("q", (Var("X"),))]
        assert suite.pre == UNIVERSAL
        assert suite.post == AtomSet(atoms=(Pred("p", (Compound("a"),)),))
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

    def test_resolved_alphabet_holds_the_symbols_the_sets_list(self):
        suite = parse_spec(
            """
            [set mine]
            r(c).

            [S]
            p(a).
            q(X) where member(X, [b]), notin(s(X, d), mine).

            [post]
            p(e) .
            """
        )
        got = resolve_alphabet(parse_program("p(X) :- q(X)."), (), suite)
        assert got.functors == tuple(sorted(
            [("a", 0), ("b", 0), ("c", 0), ("d", 0), ("e", 0), (".", 2), ("[]", 0)]))
        assert got.predicates == (("p", 1), ("q", 1), ("r", 1), ("s", 2))
        assert resolve_alphabet(parse_program("p(X) :- q(X).")).functors == ()

    def test_named_sets_and_notin(self):
        suite = parse_spec(
            """
            [set mine]
            p(a).

            [S]
            q(X) where ground(X), notin(p(X), mine).
            """
        )
        assert suite.named_sets["mine"] == AtomSet(atoms=(Pred("p", (Compound("a"),)),))
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
