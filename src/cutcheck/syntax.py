"""Concrete syntax: programs, queries, and verification spec files.

Programs are sequences of ``.``-terminated clauses ``H.`` or ``H :- B1, ..., Bn.``
with ``!`` allowed in bodies and queries (never as a clause head), list sugar
``[a, b | T]``, ``%`` line comments, and quoted atoms (so ``a'`` and ``'.'``
are fine constant/functor names).

Spec files are ``[name]`` sections, each header on a line of its own, their
entries read with the program tokens (comments and quoted names alike)::

    [alphabet]   functor f/2.  predicate p/1.
    [S]          ground atoms
    [S-patterns] template where guard, guard.
    [pre]/[post] patterns or ``any.``
    [set NAME]   auxiliary named sets usable in notin guards
    [level]      p(X, Y) = 1 + len(X) + 2*size(Y).
    [bounds]     depth = 3. nodes = 50000. steps = 200000.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field, replace
from types import MappingProxyType
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
    (?:\s+|%[^\n]*(?![^\n]))*  # white space and comments, each comment to its line's end
    (?:
        ([a-z][A-Za-z0-9_']*|[0-9]+|'(?:[^'\\]|'')*')  # a name, quoted names with their quotes
      | ([A-Z_][A-Za-z0-9_]*)  # a variable
      | (:-|[()\[\],|.!=/*+])  # punctuation
      | \Z  # the end of the text: the eof token
      | (.)  # a character no token starts with
    )
    """,
    re.VERBOSE,
)
_KINDS = (None, "name", "var", "punct")  # a token's kind, by the number of its group
_EOF = ("eof", "")


class Token(NamedTuple):
    kind: str  # name | var | punct | eof
    value: str
    line: int
    col: int


def _value(lexeme: str) -> str:
    """A token's value: a quoted name's text, or the lexeme."""
    return lexeme[1:-1].replace("''", "'") if lexeme[0] == "'" else lexeme


def tokenize(text: str, start: int = 0, end: Optional[int] = None) -> list:
    """The tokens of ``text[start:end]`` and a closing ``eof`` token, placed in ``text``.

    A token's ``line`` and ``col`` (both from 1) are those of its first
    character; a character no token starts with raises ParseError there.
    The parser reads ``_pairs``; this view is for errors and tests.
    """
    tokens = []
    line = text.count("\n", 0, start) + 1
    line_start = text.rfind("\n", 0, start) + 1  # offset of the line's first character
    pos = start  # where the last token starts: a quoted name's newlines count with the gap after it
    for m in _TOKEN_RE.finditer(text, start, len(text) if end is None else end):
        group = m.lastindex  # None at the end of the text
        at = m.start(group) if group else m.end()
        newlines = text.count("\n", pos, at)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, at) + 1
        pos = at
        col = at - line_start + 1
        if group is None:  # a second, empty match may follow trailing white space: not read
            tokens.append(Token("eof", "", line, col))
            return tokens
        if group == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", line, col)
        tokens.append(Token(_KINDS[group], _value(m.group(group)), line, col))


def _pairs(text: str, start: int = 0, end: Optional[int] = None) -> list:
    """The ``(kind, value)`` pairs of ``tokenize(text, start, end)``, from one ``findall`` call."""
    pairs = []
    append = pairs.append
    for name, var, punct, bad in _TOKEN_RE.findall(text, start, len(text) if end is None else end):
        if punct:
            append(("punct", punct))
        elif name:
            append(("name", _value(name)))
        elif var:
            append(("var", var))
        elif bad:
            tokenize(text, start, end)  # raises ParseError at the character
        else:
            append(_EOF)
            return pairs


class _Parser:
    """Parses ``text[start:end]`` from its ``(kind, value)`` pairs; ``error`` reads positions."""

    def __init__(self, text: str, start: int = 0, end: Optional[int] = None):
        self.text, self.start, self.end = text, start, end
        self.tokens = _pairs(text, start, end)
        self.i = 0

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def error(self, message: str, at: Optional[int] = None):
        """Raise ParseError at the token numbered ``at``, by default the next one."""
        tok = tokenize(self.text, self.start, self.end)[self.i if at is None else at]
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        """The value of the next token, which must be of ``kind`` (and be ``value``)."""
        tok_kind, tok_value = self.tokens[self.i]
        if tok_kind != kind or (value is not None and tok_value != value):
            want = value if value is not None else kind
            self.error(f"expected {want!r}, found {tok_value or tok_kind!r}")
        self.i += 1
        return tok_value

    def at_punct(self, value: str) -> bool:
        return self.tokens[self.i] == ("punct", value)

    # -- terms -------------------------------------------------------------

    def parse_term(self):
        """One term.  The parser keeps its own stack of the compounds and
        lists still open, so a term of any depth is fine."""
        frames: list = []  # per open compound or list: [functor (None: a list), items, after a |]
        while True:
            kind, value = self.tokens[self.i]
            self.i += 1
            if kind == "var":
                value = Var(value)
            elif kind == "name":
                if self.at_punct("("):
                    self.i += 1
                    frames.append([value, [], False])
                    continue
                value = Compound(value)
            elif kind == "punct" and value == "[":
                if not self.at_punct("]"):
                    frames.append([None, [], False])
                    continue
                self.i += 1
                value = NIL
            else:
                self.error(f"expected a term, found {value or kind!r}", self.i - 1)
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
                    self.i += 1
                    break
                if functor is not None:
                    self.expect("punct", ")")
                    value = Compound(functor, tuple(items))
                elif self.at_punct("|"):
                    self.i += 1
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
            self.i += 1
            args.append(self.parse_term())
        return args

    # -- atoms, clauses, queries -------------------------------------------

    def parse_atom(self, allow_cut: bool = True):
        kind, name = self.peek()
        if kind == "punct" and name == "!":
            if not allow_cut:
                self.error("cut (!) cannot appear here")
            self.i += 1
            return CUT
        if kind != "name":
            self.error(f"expected an atom, found {name or kind!r}")
        self.i += 1
        args: tuple = ()
        if self.at_punct("("):
            self.i += 1
            args = tuple(self.parse_term_list())
            self.expect("punct", ")")
        return Pred(name, args)

    def parse_body(self):
        atoms = [self.parse_atom()]
        while self.at_punct(","):
            self.i += 1
            atoms.append(self.parse_atom())
        return tuple(atoms)

    def parse_clause(self) -> Clause:
        head = self.parse_atom()
        if head is CUT:
            self.error("cut (!) cannot be a clause head", self.i - 1)
        body: tuple = ()
        if self.at_punct(":-"):
            self.i += 1
            body = self.parse_body()
        self.expect("punct", ".")
        return Clause(head, body)

    def parse_program(self) -> Program:
        clauses = []
        while self.peek() != _EOF:
            clauses.append(self.parse_clause())
        return Program(tuple(clauses))

    def parse_query(self) -> tuple:
        if self.peek() == _EOF:
            return ()
        atoms = self.parse_body()
        if self.at_punct("."):
            self.i += 1
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
    return _text((t,))


def atom_text(a, texts: Optional[dict] = None) -> str:
    """The text of an atom.  ``texts``, when given, maps ground arguments to
    their texts: an argument found there is not rendered again, and a ground
    argument rendered is stored there."""
    if texts is None or a is CUT or not a.args:
        return _text((a,))
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
_EMPTY = MappingProxyType({})  # no bindings, or no memo of ground texts
_UNBOUND = _EMPTY.get  # the lookup of no bindings


def _separated(items) -> list:
    """``items`` with a ", " piece between each two, in the order a stack pops them."""
    pieces = [_COMMA] * (2 * len(items) - 1)
    pieces[::2] = items
    return pieces[::-1]


def _text(items) -> str:
    """The texts of ``items``, separated by ", ", under no bindings."""
    out: list = []
    _write(out, items, _UNBOUND, _EMPTY, {}, {}, None)
    return "".join(out)


def _write(out: list, items, get, known, names: dict, opens: dict, ends) -> None:
    """Append to ``out`` the texts of ``items``, separated by ", ".

    ``items`` are terms, atoms or ``!``, each printed under a triangular
    binding map read as ``resolve`` reads it, ``get`` being its lookup: a
    bound variable is printed as its binding, and no resolved term is built.

    Four memos save work; the first three read no binding, so a caller may
    keep them across calls.  ``known`` maps the ids of ground compounds that
    outlive the call to their texts (None: not printed yet); such a compound
    is printed once, then copied.  ``names`` maps a constant's functor to
    its text, and ``opens`` the functor of a compound or an atom to the text
    that opens its arguments.  ``ends`` reads the bindings and must not
    outlive them: a chain of variables bound to variables is followed once
    (``_chain_end``).  Under no bindings it is not read, and may be None.

    The walk keeps its own stack and writes each piece once, so a term of
    any depth is fine and costs time linear in its text.  The leading items
    of a list that resolve to an unbound variable, a constant or a compound
    of ``known`` are written straight away.  The stack holds pieces of text,
    each a one-element tuple, which no term is, and the terms, atoms and
    ``!`` still to print; anything else raises TypeError."""
    write = out.append
    todo: list = []  # what is still to write, next last
    pop = todo.pop
    while True:
        if len(items) == 1:
            todo.append(items[0])
        else:
            todo += _separated(items)
        while todo:  # write up to the next compound or atom with arguments
            x = pop()
            cls = x.__class__
            if cls is tuple:
                write(x[0])
                continue
            if cls is Var:
                value = get(x.name)
                if value is not None:
                    x = value if value.__class__ is not Var else _chain_end(x.name, value, get, ends)
                    cls = x.__class__
                if cls is Var:
                    write(x.name)
                    continue
            if cls is Compound:
                if not x.args or (x.ground and id(x) in known):
                    write(_leaf_text(x, known, names, opens))
                    continue
                if x.functor == "." and len(x.args) == 2:
                    texts = []  # the texts of the leading items that need no stack
                    rest = None  # the items from the first one that does
                    while True:
                        item, x = x.args
                        if rest is None:
                            value = item
                            if value.__class__ is Var:
                                value = get(item.name)
                                if value is None:
                                    value = item
                                elif value.__class__ is Var:
                                    value = _chain_end(item.name, value, get, ends)
                            text = (value.__class__ is Compound and not value.args and names.get(value.functor)
                                    or _leaf_text(value, known, names, opens))
                            if text is None:
                                rest = [item]
                            else:
                                texts.append(text)
                        else:
                            rest.append(item)
                        if x.__class__ is Var:
                            value = get(x.name)
                            if value is not None:
                                x = value if value.__class__ is not Var else _chain_end(x.name, value, get, ends)
                        if x.__class__ is not Compound or x.functor != "." or len(x.args) != 2:
                            break
                    write("[" + ", ".join(texts))
                    todo.append(_CLOSE_LIST)
                    if x.__class__ is not Compound or x.functor != "[]" or x.args:
                        todo += (x, _BAR)  # an improper list: its tail follows a |
                    if rest is None:
                        continue
                    if texts:
                        write(", ")
                    items = rest
                    break
                name = x.functor
            elif cls is Pred:
                if not x.args:
                    write(_name_text(x.name))
                    continue
                name = x.name
            elif x is CUT:
                write("!")
                continue
            else:
                raise TypeError(f"cannot print {x!r} as a term")
            text = opens.get(name)
            if text is None:
                text = opens[name] = _name_text(name) + "("
            write(text)
            items = x.args
            todo.append(_CLOSE_ARGS)
            break
        else:
            return


def _leaf_text(t, known, names: dict, opens: dict) -> Optional[str]:
    """The text of ``t`` when it needs no stack: ``t`` is an unbound
    variable, a constant or a ground compound of ``known``; else None.
    The memos are ``_write``'s."""
    cls = t.__class__
    if cls is Var:
        return t.name
    if cls is not Compound:
        return None
    if not t.args:
        text = names.get(t.functor)
        if text is None:
            text = names[t.functor] = "[]" if t.functor == "[]" else _name_text(t.functor)
        return text
    if not t.ground or id(t) not in known:
        return None
    text = known[id(t)]
    if text is None:
        out: list = []
        _write(out, (t,), _UNBOUND, _EMPTY, names, opens, None)
        text = known[id(t)] = "".join(out)
    return text


def _chain_end(name: str, value: Var, get, ends: dict):
    """Where the chain of variables from ``name``, bound to ``value``, ends:
    an unbound variable or a compound.  Every variable of the chain that is
    bound to a variable is entered in ``ends``, so the chain is followed
    once."""
    end = ends.get(name)
    if end is not None:
        return end
    names = [name]
    end = value
    while True:
        met = ends.get(end.name)  # the rest of the chain, followed before
        if met is not None:
            end = met
            break
        bound = get(end.name)
        if bound is None:
            break
        if bound.__class__ is not Var:
            end = bound
            break
        names.append(end.name)
        end = bound
    for n in names:
        ends[n] = end
    return end


class _AnswerPrinter:
    """The printer ``answer_printer`` returns; see there."""

    def __init__(self, query: tuple):
        self.query = query  # the printer holds the terms whose ids ``known`` keys
        self.names: dict = {}
        self.opens: dict = {}
        known = self.known = {}
        stack = [t for a in query if a is not CUT for t in a.args]
        while stack:
            t = stack.pop()
            if t.__class__ is Compound and t.args and id(t) not in known:
                if t.ground:
                    known[id(t)] = None
                stack += t.args
        # the template: constant texts and slots, in order; no two texts are adjacent
        template: list = []
        pieces: list = []  # the constant text since the last slot
        todo = _separated(query)
        while todo:
            x = todo.pop()
            if x.__class__ is tuple:
                pieces.append(x[0])
            elif x.__class__ is Var or (x.__class__ is Compound and not x.ground
                                         and x.functor == "." and len(x.args) == 2):
                # a slot: a variable, or a list that holds one, whose tail may be bound to more items
                template += ("".join(pieces), x)
                pieces = []
            elif x is CUT or not x.args or x.__class__ is Compound and x.ground:
                _write(pieces, (x,), _UNBOUND, known, self.names, self.opens, None)
            else:  # a non-ground compound that is not a list, or an atom with arguments
                name = x.functor if x.__class__ is Compound else x.name
                pieces.append(self.opens.get(name) or self.opens.setdefault(name, _name_text(name) + "("))
                todo.append(_CLOSE_ARGS)
                todo += _separated(x.args)
        template.append("".join(pieces))
        self.template = tuple(template)

    def __call__(self, store) -> str:
        get = store.get
        known, names, opens = self.known, self.names, self.opens
        out: list = []
        write = out.append
        ends: dict = {}
        slots: dict = {}  # variable slot's name -> its text, or its span in out
        for piece in self.template:
            cls = piece.__class__
            if cls is str:
                write(piece)
            elif cls is Var:
                name = piece.name
                text = slots.get(name)
                if text is not None:
                    if text.__class__ is tuple:
                        text = slots[name] = "".join(out[text[0]:text[1]])
                    write(text)
                    continue
                start = len(out)
                _write(out, (piece,), get, known, names, opens, ends)
                slots[name] = (start, len(out))
            else:
                _write(out, (piece,), get, known, names, opens, ends)
        return "".join(out)


def answer_printer(query: tuple):
    """The printer of ``query``'s answers: a function from a triangular
    binding store to the text ``query_text(resolve(store, query))``, written
    from the store without building the resolved query.

    The query is compiled once into a template of constant texts and slots.
    A slot is a variable, or a list that holds one, since a list's text
    depends on its tail; the predicate names, the punctuation and the text
    of every ground subterm are constant.  An answer fills the slots from
    the store, a variable met again copying its first text.

    Resolution copies no ground term, so a store binds variables to the
    query's own ground subterms; the printer prints each of them once for
    all answers, keyed by identity.  That memo, and the texts of functors,
    read no binding and live as long as the printer; what reads the store
    lives for one answer.  The printer holds the query, so the ids stay
    those of its terms, and its memos grow with the query and the functors
    met, not with the answers."""
    return _AnswerPrinter(query)


def query_text(q: tuple, texts: Optional[dict] = None) -> str:
    if texts is None:
        return _text(q)
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


# a header is a line of its own, bar white space and a comment
_HEADER_RE = re.compile(r"^[^\S\n]*\[([A-Za-z][\w-]*(?: +[\w-]+)?)\][^\S\n]*(?:%.*)?$", re.M)
_SECTIONS = ("alphabet", "S", "S-patterns", "pre", "post", "level", "bounds")


class _SpecEntryParser(_Parser):
    def __init__(self, text: str, start: int, end: int):
        super().__init__(text, start, end)
        self.set_refs: list = []  # (set name, token number) of every notin guard

    def error(self, message: str, at: Optional[int] = None):
        if self.tokens[self.i if at is None else at] == _EOF:
            # a section's eof sits right after its last token, not at the next header
            for m in _TOKEN_RE.finditer(self.text, self.start, self.end):
                if m.lastindex:
                    self.end = m.end()
        super().error(message, at)

    def expect_number(self, message: str) -> int:
        value = self.expect("name")
        if not value.isdecimal():  # not isdigit: int() rejects digits such as '²'
            self.error(message, self.i - 1)
        return int(value)

    def parse_guard(self) -> Guard:
        name = self.expect("name")
        if name not in GUARDS:
            self.error(f"unknown guard {name!r}", self.i - 1)
        signature = GUARDS[name].signature
        args: list = []
        if signature:
            self.expect("punct", "(")
            for k, kind in enumerate(signature):
                if k:
                    self.expect("punct", ",")
                if kind == "set":
                    ref = self.expect("name")
                    self.set_refs.append((ref, self.i - 1))
                    args.append(ref)
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
        while self.peek() != _EOF:
            if self.peek() == ("name", "any") and self.tokens[self.i + 1] == ("punct", "."):
                self.i += 2
                universal = True
                continue
            atom = self.parse_atom(allow_cut=False)
            guards: list = []
            if self.peek() == ("name", "where"):
                self.i += 1
                guards.append(self.parse_guard())
                while self.at_punct(","):
                    self.i += 1
                    guards.append(self.parse_guard())
            self.expect("punct", ".")
            patterns.append(AtomPattern(atom, tuple(guards)))
        return universal, patterns

    def parse_alphabet_entries(self):
        functors: list = []
        predicates: list = []
        while self.peek() != _EOF:
            kw = self.expect("name")
            if kw not in ("functor", "predicate"):
                self.error("expected 'functor' or 'predicate'", self.i - 1)
            name = self.expect("name")
            self.expect("punct", "/")
            arity = self.expect_number("expected an arity")
            self.expect("punct", ".")
            (functors if kw == "functor" else predicates).append((name, arity))
        return functors, predicates

    def parse_level_entries(self) -> dict:
        maps: dict = {}
        while self.peek() != _EOF:
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
                kind, value = self.peek()
                if kind == "name" and value.isdecimal():
                    self.i += 1
                    if self.at_punct("*"):
                        self.i += 1
                        coeff = int(value)
                    else:
                        constant += int(value)
                        if self.at_punct("+"):
                            self.i += 1
                            continue
                        break
                measure = self.expect("name")
                at = self.i - 1
                if measure not in ("len", "size"):
                    self.error("expected len(...) or size(...)", at)
                self.expect("punct", "(")
                v = self.expect("var")
                self.expect("punct", ")")
                if v not in params:
                    self.error(f"unknown argument variable {v!r}", at)
                terms.append((coeff, measure, params.index(v)))
                if self.at_punct("+"):
                    self.i += 1
                    continue
                break
            self.expect("punct", ".")
            lm = LevelMapping(head.name, len(head.args), constant, tuple(terms))
            maps[lm.indicator] = lm
        return maps

    def parse_bounds_entries(self, budget: Budget) -> Budget:
        """Entries ``NAME = N.``, NAME a field of Budget; a later entry overrides."""
        while self.peek() != _EOF:
            name = self.expect("name")
            if name not in ("depth", "nodes", "steps"):
                self.error("expected 'depth', 'nodes' or 'steps'", self.i - 1)
            self.expect("punct", "=")
            budget = replace(budget, **{name: self.expect_number("expected a number")})
            self.expect("punct", ".")
        return budget


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
    parsers: list = []  # per section, for the notin refs checked once every set is declared
    headers = list(_HEADER_RE.finditer(text))
    first = _TOKEN_RE.match(text, 0, headers[0].start() if headers else len(text))
    if first.lastindex:  # a token, or a character no token starts with, before the first header
        raise ParseError("declarations must appear under a [section]",
                         text.count("\n", 0, first.start(first.lastindex)) + 1, 1)
    for k, header in enumerate(headers):
        name = header.group(1)
        if name not in _SECTIONS and not name.startswith("set "):
            raise ParseError(f"unknown section [{name}]", text.count("\n", 0, header.start()) + 1, 1)
        end = headers[k + 1].start() if k + 1 < len(headers) else len(text)
        parser = _SpecEntryParser(text, header.end(), end)
        parsers.append(parser)
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
            suite.budget = parser.parse_bounds_entries(suite.budget)
    declared = {"s", "pre", "post"} | set(suite.named_sets)
    for parser in parsers:
        for set_name, at in parser.set_refs:
            if set_name not in declared:
                parser.error(f"undeclared set {set_name!r} in notin guard", at)
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
