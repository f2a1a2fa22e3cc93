"""Lexer unit tests."""

import pytest

from repro.lang import LexError, tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def test_empty_input_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.EOF


def test_identifiers_and_keywords():
    tokens = tokenize("if whilex while_ while")
    assert tokens[0].kind is TokenKind.KW_IF
    assert tokens[1].kind is TokenKind.IDENT
    assert tokens[2].kind is TokenKind.IDENT
    assert tokens[3].kind is TokenKind.KW_WHILE


def test_decimal_literal():
    token = tokenize("12345")[0]
    assert token.kind is TokenKind.INT_LIT
    assert token.value == 12345


def test_hex_literal():
    assert tokenize("0xFF")[0].value == 255
    assert tokenize("0x0")[0].value == 0
    assert tokenize("0xDEAD_BEEF")[0].value == 0xDEADBEEF


def test_binary_literal():
    assert tokenize("0b1010")[0].value == 10
    assert tokenize("0b1111_0000")[0].value == 0xF0


def test_underscore_separators_in_decimal():
    assert tokenize("1_000_000")[0].value == 1000000


def test_malformed_hex_rejected():
    with pytest.raises(LexError):
        tokenize("0x")


def test_number_followed_by_letter_rejected():
    with pytest.raises(LexError):
        tokenize("123abc")


def test_base_type_names():
    for name, info in [("int", (32, True)), ("uint", (32, False)),
                       ("char", (8, True))]:
        token = tokenize(name)[0]
        assert token.kind is TokenKind.TYPE_NAME
        assert token.type_info == info


def test_sized_type_names():
    token = tokenize("uint7")[0]
    assert token.kind is TokenKind.TYPE_NAME
    assert token.type_info == (7, False)
    token = tokenize("int12")[0]
    assert token.type_info == (12, True)


def test_oversized_width_is_plain_identifier():
    token = tokenize("uint999")[0]
    assert token.kind is TokenKind.IDENT


def test_void_and_bool_have_no_width():
    assert tokenize("void")[0].type_info is None
    assert tokenize("bool")[0].type_info is None


def test_true_false_keywords():
    assert tokenize("true")[0].kind is TokenKind.KW_TRUE
    assert tokenize("false")[0].kind is TokenKind.KW_FALSE


def test_maximal_munch_operators():
    assert kinds("<<=") == [TokenKind.SHL_ASSIGN]
    assert kinds("<<") == [TokenKind.SHL]
    assert kinds("< <") == [TokenKind.LT, TokenKind.LT]
    assert kinds(">>=") == [TokenKind.SHR_ASSIGN]
    assert kinds("a+++b") == [
        TokenKind.IDENT, TokenKind.INCREMENT, TokenKind.PLUS, TokenKind.IDENT
    ]


def test_all_compound_assignment_operators():
    text = "+= -= *= /= %= &= |= ^="
    expected = [
        TokenKind.PLUS_ASSIGN, TokenKind.MINUS_ASSIGN, TokenKind.STAR_ASSIGN,
        TokenKind.SLASH_ASSIGN, TokenKind.PERCENT_ASSIGN, TokenKind.AMP_ASSIGN,
        TokenKind.PIPE_ASSIGN, TokenKind.CARET_ASSIGN,
    ]
    assert kinds(text) == expected


def test_line_comments_are_skipped():
    assert kinds("a // comment with * and /\nb") == [TokenKind.IDENT, TokenKind.IDENT]


def test_block_comments_are_skipped():
    assert kinds("a /* multi\nline */ b") == [TokenKind.IDENT, TokenKind.IDENT]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_unexpected_character_rejected():
    with pytest.raises(LexError):
        tokenize("a $ b")


def test_locations_track_lines_and_columns():
    tokens = tokenize("a\n  b")
    assert tokens[0].location.line == 1
    assert tokens[0].location.column == 1
    assert tokens[1].location.line == 2
    assert tokens[1].location.column == 3


def test_hardware_keywords():
    text = "par seq chan send recv wait delay within process"
    expected = [
        TokenKind.KW_PAR, TokenKind.KW_SEQ, TokenKind.KW_CHAN, TokenKind.KW_SEND,
        TokenKind.KW_RECV, TokenKind.KW_WAIT, TokenKind.KW_DELAY,
        TokenKind.KW_WITHIN, TokenKind.KW_PROCESS,
    ]
    assert kinds(text) == expected


def test_trailing_zero_is_a_literal():
    # The last character of the source used to be mistaken for the start
    # of a hex prefix ("malformed hex literal '0'").
    tokens = tokenize("x = 0")
    assert [t.kind for t in tokens] == [
        TokenKind.IDENT, TokenKind.ASSIGN, TokenKind.INT_LIT, TokenKind.EOF
    ]
    assert tokens[2].value == 0
    assert tokenize("0")[0].value == 0


def test_trailing_zero_source_normalizes_by_tokens():
    from repro.runner.cache import normalized_source

    assert normalized_source("x = 0") == normalized_source("x=0 // zero")
    assert not normalized_source("x = 0").startswith("raw:")


@pytest.mark.parametrize("source, column, char", [
    ("int x = ²;", 9, "²"),       # a digit, but not a decimal one
    ("int x = ٣;", 9, "٣"),       # a decimal digit, but not ASCII
    ("int x = 1٣;", 10, "٣"),
    ("int x = 1²;", 10, "²"),
])
def test_non_ascii_digits_are_unexpected_characters(source, column, char):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert info.value.message == f"unexpected character {char!r}"
    assert (info.value.location.line, info.value.location.column) == (1, column)


def test_non_ascii_digit_source_falls_back_to_raw_key():
    from repro.runner.cache import normalized_source

    assert normalized_source("int x = ²;") == "raw:int x = ²;"


def test_non_ascii_letters_still_form_identifiers():
    tokens = tokenize("int é = 1;")
    assert [(t.kind, t.text) for t in tokens[:2]] == [
        (TokenKind.TYPE_NAME, "int"), (TokenKind.IDENT, "é")
    ]
    assert tokenize("a٣ x²")[0].text == "a٣"
    assert tokenize("a٣ x²")[1].text == "x²"


def test_error_messages_and_locations():
    cases = [
        ("a\n  /* open", "unterminated block comment", (2, 3)),
        ("0x_;", "malformed hex literal '0x_'", (1, 1)),
        ("0b2", "malformed binary literal '0b'", (1, 1)),
        ("0x12g", "invalid character 'g' after number '0x12'", (1, 1)),
        ("x = 12ab", "invalid character 'a' after number '12'", (1, 5)),
        ("a\t$", "unexpected character '$'", (1, 3)),
    ]
    for source, message, (line, column) in cases:
        with pytest.raises(LexError) as info:
            tokenize(source, "k.c")
        assert info.value.message == message
        assert info.value.location.line == line
        assert info.value.location.column == column
        assert info.value.location.filename == "k.c"


def test_overlong_decimal_literal_never_escapes_as_value_error():
    digits = "9" * 5000
    try:
        tokens = tokenize("x = " + digits + ";")
    except LexError as error:  # beyond sys.get_int_max_str_digits()
        assert "integer literal too long" in error.message
    else:  # an interpreter without the conversion limit
        assert tokens[2].value == int(digits)


def test_binary_literal_stops_before_other_digits():
    tokens = tokenize("0b12")
    assert [(t.text, t.value) for t in tokens[:2]] == [("0b1", 1), ("2", 2)]
