"""Concrete syntax: programs, queries, and verification spec files.

Programs are sequences of ``.``-terminated clauses ``H.`` or ``H :- B1, ..., Bn.``
with ``!`` allowed in bodies and queries (never as a clause head), list sugar
``[a, b | T]``, ``%`` line comments, and quoted atoms (so ``a'`` and ``'.'``
are fine constant/functor names).

Spec files are section-structured::

    [alphabet]   functor f/2.  predicate p/1.
    [S]          ground atoms
    [S-patterns] template where guard, guard.
    [pre]/[post] patterns or ``any.``
    [set NAME]   auxiliary named sets usable in notin guards
    [level]      p(X, Y) = 1 + len(X) + 2*size(Y).
    [bounds]     depth=3 nodes=50000 steps=200000.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field
from typing import Optional

from .atomsets import UNIVERSAL, AtomPattern, AtomSet, Guard, GUARD_ARITIES
from .engine import Budget, Program
from .levels import LevelMapping
from .terms import (
    CUT,
    Alphabet,
    Clause,
    Compound,
    InputError,
    NIL,
    Pred,
    Var,
    cons,
    infer_alphabet,
    list_items,
    merge_alphabets,
    vars_of,
)


class ParseError(InputError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<arrow>:-)
  | (?P<name>[a-z][A-Za-z0-9_']*|[0-9]+)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<quoted>'(?:[^'\\]|'')*')
  | (?P<punct>[()\[\],|.!=/*+])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # name | var | punct | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind == "name":
            tokens.append(Token("name", lexeme, line, col))
        elif kind == "quoted":
            tokens.append(Token("name", lexeme[1:-1].replace("''", "'"), line, col))
        elif kind == "var":
            tokens.append(Token("var", lexeme, line, col))
        elif kind == "arrow":
            tokens.append(Token("punct", ":-", line, col))
        elif kind == "punct":
            tokens.append(Token("punct", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value or tok.kind
            self.error(f"expected {want!r}, found {got!r}")
        return self.next()

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    # -- terms -------------------------------------------------------------

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return Var(tok.value)
        if tok.kind == "name":
            self.next()
            if self.at_punct("("):
                self.next()
                args = self.parse_term_list()
                self.expect("punct", ")")
                return Compound(tok.value, tuple(args))
            return Compound(tok.value)
        if self.at_punct("["):
            return self.parse_list()
        self.error(f"expected a term, found {tok.value or tok.kind!r}")

    def parse_term_list(self):
        args = [self.parse_term()]
        while self.at_punct(","):
            self.next()
            args.append(self.parse_term())
        return args

    def parse_list(self):
        self.expect("punct", "[")
        if self.at_punct("]"):
            self.next()
            return NIL
        items = self.parse_term_list()
        tail = NIL
        if self.at_punct("|"):
            self.next()
            tail = self.parse_term()
        self.expect("punct", "]")
        out = tail
        for item in reversed(items):
            out = cons(item, out)
        return out

    # -- atoms, clauses, queries -------------------------------------------

    def parse_atom(self, allow_cut: bool = True):
        tok = self.peek()
        if self.at_punct("!"):
            if not allow_cut:
                self.error("cut (!) cannot appear here")
            self.next()
            return CUT
        if tok.kind != "name":
            self.error(f"expected an atom, found {tok.value or tok.kind!r}")
        self.next()
        args: tuple = ()
        if self.at_punct("("):
            self.next()
            args = tuple(self.parse_term_list())
            self.expect("punct", ")")
        return Pred(tok.value, args)

    def parse_body(self):
        atoms = [self.parse_atom()]
        while self.at_punct(","):
            self.next()
            atoms.append(self.parse_atom())
        return tuple(atoms)

    def parse_clause(self) -> Clause:
        head_tok = self.peek()
        head = self.parse_atom()
        if head is CUT:
            self.error("cut (!) cannot be a clause head", head_tok)
        body: tuple = ()
        if self.at_punct(":-"):
            self.next()
            body = self.parse_body()
        self.expect("punct", ".")
        return Clause(head, body)

    def parse_program(self) -> Program:
        clauses = []
        while self.peek().kind != "eof":
            clauses.append(self.parse_clause())
        return Program(tuple(clauses))

    def parse_query(self) -> tuple:
        if self.peek().kind == "eof":
            return ()
        atoms = self.parse_body()
        if self.at_punct("."):
            self.next()
        self.expect("eof")
        return atoms


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()


def parse_query(text: str) -> tuple:
    return _Parser(text).parse_query()


# ---------------------------------------------------------------------------
# Printing (parse . print == identity)
# ---------------------------------------------------------------------------

_PLAIN_NAME = re.compile(r"[a-z][A-Za-z0-9_']*$|[0-9]+$")


def _name_text(name: str) -> str:
    if _PLAIN_NAME.match(name):
        return name
    return "'" + name.replace("'", "''") + "'"


def term_text(t) -> str:
    if isinstance(t, Var):
        return t.name
    items = list_items(t)
    if items is not None:
        return "[" + ", ".join(term_text(x) for x in items) + "]"
    if isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
        # improper list: render with the | tail
        parts = []
        while isinstance(t, Compound) and t.functor == "." and len(t.args) == 2:
            parts.append(term_text(t.args[0]))
            t = t.args[1]
        return "[" + ", ".join(parts) + " | " + term_text(t) + "]"
    if t.args:
        return _name_text(t.functor) + "(" + ", ".join(term_text(a) for a in t.args) + ")"
    if t.functor == "[]":
        return "[]"
    return _name_text(t.functor)


def atom_text(a) -> str:
    if a is CUT:
        return "!"
    if a.args:
        return _name_text(a.name) + "(" + ", ".join(term_text(t) for t in a.args) + ")"
    return _name_text(a.name)


def query_text(q: tuple) -> str:
    return ", ".join(atom_text(a) for a in q)


def clause_text(c: Clause) -> str:
    if not c.body:
        return atom_text(c.head) + "."
    return atom_text(c.head) + " :- " + query_text(c.body) + "."


def program_text(p: Program) -> str:
    return "\n".join(clause_text(c) for c in p.clauses) + ("\n" if p.clauses else "")


def subst_text(s) -> str:
    inner = ", ".join(f"{k}/{term_text(v)}" for k, v in sorted(s.items()))
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------


@dataclass
class SpecSuite:
    """A verification task: sets S/pre/post, level mappings, bounds."""

    s: AtomSet = UNIVERSAL
    pre: AtomSet = UNIVERSAL
    post: AtomSet = UNIVERSAL
    level_maps: dict = field(default_factory=dict)
    alphabet: Optional[Alphabet] = None
    budget: Budget = field(default_factory=Budget)
    named_sets: dict = field(default_factory=dict)

    @property
    def resolver(self) -> dict:
        out = dict(self.named_sets)
        out.setdefault("s", self.s)
        out.setdefault("pre", self.pre)
        out.setdefault("post", self.post)
        return out


_SECTION_RE = re.compile(r"^\[([A-Za-z][\w-]*(?: +[\w-]+)?)\]\s*$")
_SECTIONS = ("alphabet", "S", "S-patterns", "pre", "post", "level", "bounds")
_BOUND_RE = re.compile(r"(depth|nodes|steps)\s*=\s*(\d+)")


def _split_sections(text: str):
    sections: list = []
    current: Optional[tuple] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("%", 1)[0].rstrip()
        m = _SECTION_RE.match(stripped.strip()) if stripped.strip() else None
        if m:
            current = (m.group(1), lineno, [])
            sections.append(current)
            continue
        if stripped.strip():
            if current is None:
                raise ParseError("declarations must appear under a [section]", lineno, 1)
            current[2].append((lineno, stripped))
    return sections


class _SpecEntryParser(_Parser):
    def __init__(self, text: str):
        super().__init__(text)
        self.set_refs: list = []  # the set-name token of every notin guard

    def parse_guard(self) -> Guard:
        tok = self.expect("name")
        name = tok.value
        if name not in GUARD_ARITIES:
            self.error(f"unknown guard {name!r}", tok)
        arity = GUARD_ARITIES[name]
        args: list = []
        if arity:
            self.expect("punct", "(")
            for k in range(arity):
                if k:
                    self.expect("punct", ",")
                if name == "notin" and k == 1:
                    ref = self.expect("name")
                    self.set_refs.append(ref)
                    args.append(ref.value)
                elif name == "notin" and k == 0:
                    args.append(self.parse_atom(allow_cut=False))
                else:
                    args.append(self.parse_term())
            self.expect("punct", ")")
        return Guard(name, tuple(args))

    def parse_pattern_entries(self):
        """Entries of a set section: 'any.' or 'atom (where guards)?.'"""
        universal = False
        patterns = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "name" and tok.value == "any":
                nxt = self.tokens[self.i + 1]
                if nxt.kind == "punct" and nxt.value == ".":
                    self.next()
                    self.next()
                    universal = True
                    continue
            atom = self.parse_atom(allow_cut=False)
            guards: list = []
            if self.peek().kind == "name" and self.peek().value == "where":
                self.next()
                guards.append(self.parse_guard())
                while self.at_punct(","):
                    self.next()
                    guards.append(self.parse_guard())
            self.expect("punct", ".")
            patterns.append(AtomPattern(atom, tuple(guards)))
        return universal, patterns

    def parse_alphabet_entries(self):
        functors: list = []
        predicates: list = []
        while self.peek().kind != "eof":
            kw = self.expect("name")
            if kw.value not in ("functor", "predicate"):
                self.error("expected 'functor' or 'predicate'", kw)
            name = self.expect("name").value
            self.expect("punct", "/")
            tok = self.expect("name")
            if not tok.value.isdigit():
                self.error("expected an arity", tok)
            arity = int(tok.value)
            self.expect("punct", ".")
            (functors if kw.value == "functor" else predicates).append((name, arity))
        return functors, predicates

    def parse_level_entries(self) -> dict:
        maps: dict = {}
        while self.peek().kind != "eof":
            head = self.parse_atom(allow_cut=False)
            params = []
            for a in head.args:
                if not isinstance(a, Var):
                    self.error("level declaration arguments must be distinct variables")
                params.append(a.name)
            if len(set(params)) != len(params):
                self.error("level declaration arguments must be distinct variables")
            self.expect("punct", "=")
            constant = 0
            terms: list = []
            while True:
                coeff = 1
                tok = self.peek()
                if tok.kind == "name" and tok.value.isdigit():
                    self.next()
                    if self.at_punct("*"):
                        self.next()
                        coeff = int(tok.value)
                    else:
                        constant += int(tok.value)
                        if self.at_punct("+"):
                            self.next()
                            continue
                        break
                tok = self.expect("name")
                if tok.value not in ("len", "size"):
                    self.error("expected len(...) or size(...)", tok)
                self.expect("punct", "(")
                v = self.expect("var").value
                self.expect("punct", ")")
                if v not in params:
                    self.error(f"unknown argument variable {v!r}", tok)
                terms.append((coeff, tok.value, params.index(v)))
                if self.at_punct("+"):
                    self.next()
                    continue
                break
            self.expect("punct", ".")
            lm = LevelMapping(head.name, len(head.args), constant, tuple(terms))
            maps[lm.indicator] = lm
        return maps


def _make_set(universal: bool, patterns: list) -> AtomSet:
    if universal:
        return UNIVERSAL
    ground = [p.template for p in patterns if not p.guards and not vars_of(p.template)]
    return AtomSet(atoms=tuple(ground),
                   patterns=tuple(p for p in patterns if p.guards or vars_of(p.template)))


def parse_spec(text: str) -> SpecSuite:
    suite = SpecSuite()
    s_parts: list = []
    functors: list = []
    predicates: list = []
    saw_alphabet = False
    set_refs: list = []  # (set name, line, col) of every notin guard
    for name, lineno, lines in _split_sections(text):
        if name not in _SECTIONS and not name.startswith("set "):
            raise ParseError(f"unknown section [{name}]", lineno, 1)
        body = "\n".join(s for _, s in lines)
        try:
            parser = _SpecEntryParser(body)
            if name == "alphabet":
                fs, ps = parser.parse_alphabet_entries()
                functors.extend(fs)
                predicates.extend(ps)
                saw_alphabet = True
            elif name in ("S", "S-patterns"):
                universal, patterns = parser.parse_pattern_entries()
                s_parts.append(_make_set(universal, patterns))
            elif name in ("pre", "post"):
                universal, patterns = parser.parse_pattern_entries()
                setattr(suite, name, _make_set(universal, patterns))
            elif name.startswith("set "):
                universal, patterns = parser.parse_pattern_entries()
                suite.named_sets[name.split(None, 1)[1]] = _make_set(universal, patterns)
            elif name == "level":
                suite.level_maps.update(parser.parse_level_entries())
            else:  # bounds
                values = dict(_BOUND_RE.findall(body))
                suite.budget = Budget(
                    depth=int(values.get("depth", suite.budget.depth)),
                    nodes=int(values.get("nodes", suite.budget.nodes)),
                    steps=int(values.get("steps", suite.budget.steps)),
                )
        except ParseError as exc:
            # body line k is the section's k-th non-blank line
            raise ParseError(exc.message, lines[exc.line - 1][0], exc.col) from None
        set_refs += [(t.value, lines[t.line - 1][0], t.col) for t in parser.set_refs]
    declared = {"s", "pre", "post"} | set(suite.named_sets)
    for set_name, line, col in set_refs:
        if set_name not in declared:
            raise ParseError(f"undeclared set {set_name!r} in notin guard", line, col)
    suite.s = functools.reduce(operator.or_, s_parts, AtomSet())
    if suite.s.universal:  # an ``any.`` section: the other sections add nothing
        suite.s = UNIVERSAL
    if saw_alphabet:
        suite.alphabet = Alphabet(tuple(functors), tuple(predicates))
    return suite


def resolve_alphabet(program: Program, query: tuple = (), suite: Optional[SpecSuite] = None) -> Alphabet:
    """The declared alphabet if any, merged with symbols of program and query."""
    inferred = infer_alphabet(program.clauses, query)
    if suite is not None and suite.alphabet is not None:
        return merge_alphabets(suite.alphabet, inferred)
    return inferred
