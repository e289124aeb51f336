"""The match-at-each-position tokenizer, kept as a test oracle for
``cutcheck.syntax.tokenize``.

This is the algorithm ``tokenize`` used before it scanned the text once with
``finditer``: one ``match`` call per lexeme, the position carried by hand,
and tokens as frozen dataclasses.  The token pattern is a copy of the one
``cutcheck.syntax`` uses, so the oracle does not move with it.
"""

import re
from dataclasses import dataclass

from cutcheck.syntax import ParseError

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


def reference_tokenize(text: str) -> list:
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
