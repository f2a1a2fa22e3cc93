"""Property-based contracts for the lexer.

* **Layout never reaches a key.**  Re-spacing the tokens of a
  fuzz-grammar program with arbitrary whitespace and comments leaves
  ``normalized_source`` (and so every cache key) unchanged.
* **Total over text.**  ``tokenize`` on arbitrary text either returns a
  token list ending in EOF or raises ``LexError`` — never another
  exception, which would escape ``normalized_source``'s fallback.
* **Linear time.**  Megabyte inputs built to provoke backtracking lex in
  well under a second.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.flows import COMPILABLE
from repro.fuzz import feature_mask, generate_program
from repro.lang import LexError, tokenize
from repro.lang.tokens import TokenKind
from repro.runner.cache import normalized_source

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Every separator starts and ends with whitespace, so none can fuse with a
# neighbouring token ("/" + "/* c */" would open a line comment).
_separators = st.sampled_from([
    " ", "\n", "\t", "\r\n", "  \n\t ",
    " /* c */ ", " /* multi\nline * / */ ", " /**/ ", " // note\n",
    " // tail * / comment\n", " /* ** */\n",
])


@given(seed=st.integers(min_value=0, max_value=5000),
       flow=st.sampled_from(sorted(COMPILABLE)),
       data=st.data())
@settings(**_SETTINGS)
def test_respacing_tokens_keeps_normalized_source(seed, flow, data):
    source = generate_program(seed, feature_mask(flow)).source
    tokens = tokenize(source)[:-1]
    pieces = [data.draw(_separators)]
    for token in tokens:
        pieces.append(token.text)
        pieces.append(data.draw(_separators))
    respaced = "".join(pieces)
    assert normalized_source(respaced) == normalized_source(source)


_lexish = st.text(
    alphabet=st.sampled_from(list("0123456789xXbB_aeZ /*\n\t+-<>=!&|^%~?:;,(){}[]$#\"'é²٣")),
    max_size=40,
)


@given(text=st.one_of(st.text(max_size=40), _lexish))
@settings(max_examples=300, deadline=None)
def test_tokenize_raises_only_lex_errors(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    assert tokens[-1].kind is TokenKind.EOF


_MEGABYTE = 1 << 20


@pytest.mark.parametrize("source", [
    "/*" + "*" * (_MEGABYTE // 2) + "x" * (_MEGABYTE // 2),
    "/*" + "* /" * (_MEGABYTE // 3),
], ids=["stars", "near-closers"])
def test_megabyte_unterminated_comment_is_linear(source):
    start = time.perf_counter()
    with pytest.raises(LexError, match="unterminated block comment"):
        tokenize(source)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("source, kind", [
    ("ab_1Z9" * (_MEGABYTE // 6), TokenKind.IDENT),
    ("uint" + "7" * _MEGABYTE + "q", TokenKind.IDENT),
    ("int" + "1" * _MEGABYTE, TokenKind.IDENT),
], ids=["mixed", "sized-prefix", "oversized-width"])
def test_megabyte_identifier_soup_is_linear(source, kind):
    start = time.perf_counter()
    tokens = tokenize(source)
    assert time.perf_counter() - start < 1.0
    assert [t.kind for t in tokens] == [kind, TokenKind.EOF]


def test_megabyte_number_glued_to_a_letter_is_linear():
    start = time.perf_counter()
    with pytest.raises(LexError, match="invalid character 'g' after number"):
        tokenize("1_" * (_MEGABYTE // 2) + "g")
    assert time.perf_counter() - start < 1.0
