"""Tokenizer for the mini-HPF DSL.

Fortran-flavoured conventions:

* case-insensitive keywords and identifiers (normalized to lower case);
* ``!hpf$`` at the start of a line marks a directive line (emitted as a
  dedicated :data:`HPF` token so the parser knows directives from statements);
* any other ``!`` starts a comment running to end of line;
* newlines are significant (statements are line-oriented), emitted as
  :data:`NEWLINE` tokens with consecutive ones collapsed.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ParseError

# token kinds
NAME = "NAME"
INT = "INT"
STRING = "STRING"
PUNCT = "PUNCT"
HPF = "HPF"  # the !hpf$ marker
NEWLINE = "NEWLINE"
EOF = "EOF"

_PUNCT_CHARS = set("(),=*+-:")


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"{self.kind}({self.value!r}@{self.line}:{self.column})"


def tokenize(text: str) -> list[Token]:
    """Turn source text into a token list ending with an EOF token."""
    tokens: list[Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        col = 0
        n = len(line)

        def push(kind: str, value: str, c: int) -> None:
            tokens.append(Token(kind, value, lineno, c + 1))

        # leading !hpf$ marker (allow indentation)
        stripped = line.lstrip()
        indent = n - len(stripped)
        if stripped.lower().startswith("!hpf$"):
            push(HPF, "!hpf$", indent)
            col = indent + 5
        while col < n:
            ch = line[col]
            if ch in " \t":
                col += 1
                continue
            if ch == "!":
                break  # comment to end of line
            if ch == '"' or ch == "'":
                quote = ch
                end = line.find(quote, col + 1)
                if end < 0:
                    raise ParseError("unterminated string literal", lineno, col + 1)
                push(STRING, line[col + 1 : end], col)
                col = end + 1
                continue
            if ch.isdigit():
                start = col
                while col < n and line[col].isdigit():
                    col += 1
                push(INT, line[start:col], start)
                continue
            if ch.isalpha() or ch == "_" or ch == "$":
                start = col
                while col < n and (line[col].isalnum() or line[col] in "_$"):
                    col += 1
                push(NAME, line[start:col].lower(), start)
                continue
            if ch in _PUNCT_CHARS:
                push(PUNCT, ch, col)
                col += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", lineno, col + 1)
        if tokens and tokens[-1].kind != NEWLINE:
            tokens.append(Token(NEWLINE, "\n", lineno, n + 1))
    tokens.append(Token(EOF, "", len(text.splitlines()) + 1, 1))
    return tokens
