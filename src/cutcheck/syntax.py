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
from typing import NamedTuple, Optional

from .atomsets import GUARDS, UNIVERSAL, AtomPattern, AtomSet, Guard
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
    infer_alphabet,
    make_list,
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


_TOKEN_KIND = {"name": "name", "var": "var", "arrow": "punct", "punct": "punct"}


class Token(NamedTuple):
    kind: str  # name | var | punct | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> list:
    """The tokens of ``text`` and a closing ``eof`` token, from one scan.

    A token's ``line`` and ``col`` (both from 1) are those of its first
    character; a character no token starts with raises ParseError there.
    """
    tokens = []
    append = tokens.append
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind in _TOKEN_KIND:
            append(Token(_TOKEN_KIND[kind], m.group(), line, start - line_start + 1))
        elif kind != "comment":  # white space or a quoted name: either may span lines
            if kind == "quoted":
                value = text[start + 1 : pos - 1].replace("''", "'")
                append(Token("name", value, line, start - line_start + 1))
            newlines = text.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, pos) + 1
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    append(Token("eof", "", line, pos - line_start + 1))
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
        """One term.  The parser keeps its own stack of the compounds and
        lists still open, so a term of any depth is fine."""
        frames: list = []  # per open compound or list: [functor (None: a list), items, after a |]
        while True:
            tok = self.peek()
            if tok.kind == "var":
                self.next()
                value = Var(tok.value)
            elif tok.kind == "name":
                self.next()
                if self.at_punct("("):
                    self.next()
                    frames.append([tok.value, [], False])
                    continue
                value = Compound(tok.value)
            elif self.at_punct("["):
                self.next()
                if not self.at_punct("]"):
                    frames.append([None, [], False])
                    continue
                self.next()
                value = NIL
            else:
                self.error(f"expected a term, found {tok.value or tok.kind!r}")
            # ``value`` is finished: hand it to the enclosing frames
            while frames:
                frame = frames[-1]
                functor, items, after_bar = frame
                if after_bar:  # ``value`` is the tail of a list
                    self.expect("punct", "]")
                    value = make_list(items, tail=value)
                    frames.pop()
                    continue
                items.append(value)
                if self.at_punct(","):
                    self.next()
                    break
                if functor is not None:
                    self.expect("punct", ")")
                    value = Compound(functor, tuple(items))
                elif self.at_punct("|"):
                    self.next()
                    frame[2] = True
                    break
                else:
                    self.expect("punct", "]")
                    value = make_list(items)
                frames.pop()
            else:
                return value

    def parse_term_list(self):
        args = [self.parse_term()]
        while self.at_punct(","):
            self.next()
            args.append(self.parse_term())
        return args

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
    return _text("", (t,), "")


def atom_text(a, texts: Optional[dict] = None) -> str:
    """The text of an atom.  ``texts``, when given, maps ground arguments to
    their texts: an argument found there is not rendered again, and a ground
    argument rendered is stored there."""
    if a is CUT:
        return "!"
    if not a.args:
        return _name_text(a.name)
    if texts is None:
        return _text(_name_text(a.name) + "(", a.args, ")")
    pieces = []
    for t in a.args:
        if t.__class__ is Compound and t.ground:
            text = texts.get(t)
            if text is None:
                text = texts[t] = term_text(t)
        else:
            text = term_text(t)
        pieces.append(text)
    return _name_text(a.name) + "(" + ", ".join(pieces) + ")"


_COMMA, _BAR, _CLOSE_LIST, _CLOSE_ARGS = (", ",), (" | ",), ("]",), (")",)


def _text(opening: str, items, closing: str) -> str:
    """``opening``, the texts of ``items`` separated by ", ", then ``closing``.

    The walk keeps its own stack and writes each piece once, so a term of
    any depth is fine and costs time linear in its text.  On the stack, a
    piece of text is a one-element tuple, which no term is; anything else
    that is not a term raises TypeError."""
    out = [opening]
    write = out.append
    todo = [(closing,)]  # what is still to write, next last
    pop = todo.pop
    while True:
        if len(items) == 1:
            todo.append(items[0])
        else:
            pieces = [_COMMA] * (2 * len(items) - 1)
            pieces[::2] = items
            todo += pieces[::-1]
        while todo:  # write up to the next compound with arguments
            x = pop()
            cls = x.__class__
            if cls is tuple:
                write(x[0])
            elif cls is Var:
                write(x.name)
            elif cls is not Compound:
                raise TypeError(f"cannot print {x!r} as a term")
            elif not x.args:
                write("[]" if x.functor == "[]" else _name_text(x.functor))
            elif x.functor == "." and len(x.args) == 2:
                items = []
                while x.__class__ is Compound and x.functor == "." and len(x.args) == 2:
                    items.append(x.args[0])
                    x = x.args[1]
                write("[")
                todo.append(_CLOSE_LIST)
                if x.__class__ is not Compound or x.functor != "[]" or x.args:
                    todo += (x, _BAR)  # an improper list: its tail follows a |
                break
            else:
                items = x.args
                write(_name_text(x.functor) + "(")
                todo.append(_CLOSE_ARGS)
                break
        else:
            return "".join(out)


def query_text(q: tuple, texts: Optional[dict] = None) -> str:
    return ", ".join(atom_text(a, texts) for a in q)


def clause_text(c: Clause) -> str:
    return rule_text(atom_text(c.head), c.body)


def rule_text(head: str, body: tuple, texts: Optional[dict] = None) -> str:
    """The text of a clause whose head is already rendered as ``head``;
    ``texts`` is as for ``atom_text``."""
    if not body:
        return head + "."
    return head + " :- " + query_text(body, texts) + "."


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
        if name not in GUARDS:
            self.error(f"unknown guard {name!r}", tok)
        signature = GUARDS[name].signature
        args: list = []
        if signature:
            self.expect("punct", "(")
            for k, kind in enumerate(signature):
                if k:
                    self.expect("punct", ",")
                if kind == "set":
                    ref = self.expect("name")
                    self.set_refs.append(ref)
                    args.append(ref.value)
                elif kind == "atom":
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
    """The declared alphabet if any, merged with the symbols of the program,
    the query, and the atoms, templates and guard terms of the spec's sets."""
    listed: list = []
    if suite is not None:
        for s in (suite.s, suite.pre, suite.post, *suite.named_sets.values()):
            listed.append(s.atoms)
            for p in s.patterns:
                listed.append(p.template)
                listed.extend(a for g in p.guards for a in g.terms)
    inferred = infer_alphabet(program.clauses, query, listed)
    if suite is not None and suite.alphabet is not None:
        return merge_alphabets(suite.alphabet, inferred)
    return inferred
