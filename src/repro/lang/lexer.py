"""Master-regex lexer for the C-like language.

One compiled regular expression matches a run of layout (whitespace,
``//`` and ``/* */`` comments) followed by exactly one token, its kind
named by the alternative that matched, and :func:`tokenize` steps it
through the source match by match.  The scan is linear: the block-comment
pattern never backtracks, and the last two alternatives (end of input,
any single character) make every match succeed once the layout is
consumed, so the engine never re-splits layout it has skipped.  Lines
advance only across skipped layout, the one place a newline can occur;
a column is the offset from the start of the current line.

Text that starts no token (a stray character, a malformed or
letter-glued literal, an unterminated comment) raises :class:`LexError`
at the offending character or literal, via :func:`_lex_error`.
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError, SourceLocation
from .tokens import BASE_TYPES, KEYWORDS, Token, TokenKind

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    ("<<=", TokenKind.SHL_ASSIGN),
    (">>=", TokenKind.SHR_ASSIGN),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.LAND),
    ("||", TokenKind.LOR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("++", TokenKind.INCREMENT),
    ("--", TokenKind.DECREMENT),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("^", TokenKind.CARET),
    ("~", TokenKind.TILDE),
    ("!", TokenKind.BANG),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
    ("=", TokenKind.ASSIGN),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (";", TokenKind.SEMI),
    (",", TokenKind.COMMA),
    ("?", TokenKind.QUESTION),
    (":", TokenKind.COLON),
]
_OPERATOR_KINDS = dict(_OPERATORS)

# Keywords and base type names: word text -> (kind, type_info).
_WORDS = {text: (kind, None) for text, kind in KEYWORDS.items()}
_WORDS.update((text, (TokenKind.TYPE_NAME, info)) for text, info in BASE_TYPES.items())
# ``intN``/``uintN`` name a sized type for 1 <= N <= 128; the pattern
# reads at most three width digits, and any longer spelling is an
# identifier.
_MAX_SIZED_WIDTH = 128

# Identifiers start with a letter (``str.isalpha``) or ``_`` and continue
# with ``str.isalnum`` characters or ``_`` — exactly ``\w``.  Integer
# literals are ASCII only.  A literal may not run into a letter; the
# lookahead also refuses a shorter backtracked literal, so "12g" fails as
# a whole instead of lexing "1".
_NOT_AFTER_NUMBER = r"(?![0-9]|[^\W\d])"
_LAYOUT = r"(?:[ \t\r\n]+|//[^\n]*|/\*(?:[^*]|\*(?!/))*\*/)*"
_TOKEN_RE = re.compile(
    _LAYOUT
    + "(?:"
    + "|".join([
        r"(?P<sized>u?int[1-9][0-9]{0,2})(?!\w)",
        r"(?P<word>[A-Za-z_]\w*)",
        r"(?P<unterminated>/\*)",
        r"(?P<operator>"
        + "|".join(re.escape(text) for text, _ in
                   sorted(_OPERATORS, key=lambda op: -len(op[0])))
        + ")",
        r"(?P<decimal>[0-9][0-9_]*)" + _NOT_AFTER_NUMBER,
        r"(?P<hex>0[xX]_*[0-9a-fA-F][0-9a-fA-F_]*)" + _NOT_AFTER_NUMBER,
        r"(?P<binary>0[bB]_*[01][01_]*)(?![01]|[^\W\d])",  # "0b12" is 0b1, 2
        r"(?P<unicode_word>[^\W\d]\w*)",
        r"(?P<eof>\Z)",
        r"(?P<error>[\s\S])",
    ])
    + ")"
)


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` completely, ending with a single EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    location_of = SourceLocation._make
    match = _TOKEN_RE.match
    IDENT = TokenKind.IDENT
    INT_LIT = TokenKind.INT_LIT
    line = 1
    line_start = 0  # index of the first character of ``line``
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastgroup
        start = m.start(group)
        if start != pos:
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, start) + 1
        text = m.group(group)
        location = location_of((line, start - line_start + 1, filename))
        if group == "operator":
            append(Token(_OPERATOR_KINDS[text], text, location))
        elif group == "word":
            known = _WORDS.get(text)
            if known is None:
                append(Token(IDENT, text, location))
            else:
                append(Token(known[0], text, location, None, known[1]))
        elif group == "decimal":
            try:
                value = int(text.replace("_", ""))
            except ValueError:  # beyond sys.get_int_max_str_digits()
                raise LexError(
                    f"integer literal too long ({len(text)} characters)",
                    location) from None
            append(Token(INT_LIT, text, location, value))
        elif group == "eof":
            append(Token(TokenKind.EOF, "", location))
            return tokens
        elif group == "sized":
            signed = text[0] == "i"
            width = int(text[3:] if signed else text[4:])
            if width <= _MAX_SIZED_WIDTH:
                append(Token(TokenKind.TYPE_NAME, text, location, None,
                             (width, signed)))
            else:
                append(Token(IDENT, text, location))
        elif group == "hex":
            value = int(text[2:].replace("_", ""), 16)
            append(Token(INT_LIT, text, location, value))
        elif group == "binary":
            value = int(text[2:].replace("_", ""), 2)
            append(Token(INT_LIT, text, location, value))
        elif group == "unicode_word" and text[0].isalpha():
            append(Token(IDENT, text, location))
        elif group == "unterminated":
            raise LexError("unterminated block comment", location)
        else:
            raise _lex_error(source, start, location)
        pos = m.end()


_HEX_DIGITS = re.compile(r"[0-9a-fA-F_]*")
_BINARY_DIGITS = re.compile(r"[01_]*")
_DECIMAL_DIGITS = re.compile(r"[0-9_]*")


def _lex_error(source: str, start: int, location: SourceLocation) -> LexError:
    """The diagnostic for the text at ``start`` that no token matches."""
    ch = source[start]
    if not "0" <= ch <= "9":
        return LexError(f"unexpected character {ch!r}", location)
    prefix = source[start:start + 2]
    if prefix in ("0x", "0X"):
        text = prefix + _HEX_DIGITS.match(source, start + 2).group()
        if not text[2:].replace("_", ""):
            return LexError(f"malformed hex literal {text!r}", location)
    elif prefix in ("0b", "0B"):
        text = prefix + _BINARY_DIGITS.match(source, start + 2).group()
        if not text[2:].replace("_", ""):
            return LexError(f"malformed binary literal {text!r}", location)
    else:
        text = _DECIMAL_DIGITS.match(source, start).group()
    after = source[start + len(text)]
    if after.isalpha():
        return LexError(
            f"invalid character {after!r} after number {text!r}", location
        )
    # A word character that is not a letter (a superscript digit, a
    # vulgar fraction, ...) ends the literal and starts no token.
    return LexError(
        f"unexpected character {after!r}",
        location._replace(column=location.column + len(text)),
    )
