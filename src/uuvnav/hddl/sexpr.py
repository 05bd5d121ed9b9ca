"""S-expression reader with source positions.

Symbols are lowercased on read; the input language is case-insensitive.
Comments run from ';' to end of line.
"""

from __future__ import annotations

import re

from ..errors import HddlError
from ..record import Record


class Symbol(Record, frozen=True):
    __slots__ = _fields = ("text", "line", "col")
    text: str
    line: int
    col: int


class SList(Record, frozen=True):
    __slots__ = _fields = ("items", "line", "col")
    items: tuple
    line: int
    col: int


Node = Symbol | SList

# A parenthesis, a symbol, a line break or a comment; space, tab and CR
# match nothing and are stepped over.
_TOKEN = re.compile(r"(?P<open>\()|(?P<close>\))|(?P<sym>[^ \t\r\n;()]+)|(?P<newline>\n)|;[^\n]*")


def read_all(text: str) -> list[Node]:
    """Read every top-level form; raises on unbalanced parentheses."""
    forms: list[Node] = []
    items = forms  # the innermost open list's items
    stack: list[tuple[list, int, int]] = []  # per open '(': enclosing items, line, col
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "sym":
            items.append(Symbol(m.group().lower(), line, m.start() - line_start + 1))
        elif kind == "open":
            stack.append((items, line, m.start() - line_start + 1))
            items = []
        elif kind == "close":
            if not stack:
                raise HddlError("unmatched ')'", line, m.start() - line_start + 1)
            outer, oline, ocol = stack.pop()
            outer.append(SList(tuple(items), oline, ocol))
            items = outer
        elif kind == "newline":
            line += 1
            line_start = m.end()
    if stack:
        _, line, col = stack[-1]
        raise HddlError("unclosed '('", line, col)
    return forms
