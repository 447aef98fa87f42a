import string
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from subeval import textproc
from subeval.errors import DataError, FormatError
from subeval.model import BREAKS
from subeval.textproc import (
    DEFAULT_CHUNK_CHINK,
    Scheme,
    UPOS_TAGS,
    WordClass,
    attach_tags,
    classify_chunk_chink,
    normalize_for_wer,
    tokenize,
)


def surfaces(text, scheme, lang="en"):
    return list(tokenize(text, scheme, lang).tokens)


def test_mt_detached_french_comma_and_break():
    assert surfaces("le capitalisme, <eob>", Scheme.MT_DETACHED, "fr") == [
        "le", "capitalisme", ",", "<eob>",
    ]


def test_mt_detach_table_matches_regex_oracle_on_every_code_point():
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    expected = oracles.mt_detachable_re().sub(r" \1 ", text)
    assert textproc._detach(text) == expected


_PUNCT = list(".,'’!?;:-()[]{}\"«»…—–¿¡·‹›„“”/\\")
_SYMBOLS = list("$€£%+=<>@#&*|^~`°©§¶±×÷")
_ELISION = ["l'", "L'", "d'", "qu'", "j’", "n’", "s'", "c'", "'", "’", "don't", "aujourd'hui"]
_DIGITS = list("0123456789") + ["1,000", "3.14", ".5", "2,", "-7"]
_WORDS = ["a", "le", "homme", "été", "ça", "x", " ", " ", "<eob>", "<eol>"]

mt_text = st.lists(
    st.one_of(
        st.sampled_from(_PUNCT + _SYMBOLS + _ELISION + _DIGITS + _WORDS),
        st.characters(categories=("Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po", "Sm", "Sc", "Sk", "So")),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=mt_text, lang=st.sampled_from(["en", "fr"]))
def test_mt_tokenize_matches_regex_oracle(text, lang):
    assert surfaces(text, Scheme.MT_DETACHED, lang) == oracles.mt_tokens(text, lang)


def test_13a_punct_table_matches_regex_oracle_on_every_code_point():
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    expected = oracles._13A_PUNCT_RE.sub(r" \1 ", text)
    assert text.translate(textproc._13A_PUNCT_TABLE) == expected


_13A_PIECES = [
    "<skipped>", "&quot;", "&amp;", "&lt;", "&gt;", "&", ";", "1,000", "3.14", "2-3", "a-b",
    ".5", "5.", "..", ",,", "x", "Hello", "don't", "é", " ", "  ", "\t",
]

text_13a = st.lists(
    st.one_of(
        st.sampled_from(_13A_PIECES + list(string.punctuation + string.digits)),
        st.characters(),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=text_13a)
def test_13a_tokenize_matches_regex_oracle(text):
    assert textproc._tokenize_13a_span(text) == oracles._tokenize_13a_span(text)


# ---------------------------------------------------------------------------
# Word memos against span-at-a-time tokenization

_MEMOS = (textproc._13A_WORDS, textproc._MT_ELISION_WORDS, textproc._MT_EN_WORDS, textproc._WER_WORDS)


def _clear_memos():
    for memo in _MEMOS:
        memo.clear()


def test_alphanumeric_characters_meet_no_rule_on_every_code_point():
    changed = []
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        if ch.isalnum() and not (
            textproc._tokenize_13a_span(ch) == [ch]
            and textproc._detach(ch) == ch
            and textproc._strip_edge_punct(ch) == ch
        ):
            changed.append(hex(code))
    assert changed == []


_MEMO_PIECES = _13A_PIECES + [
    "'", "’", "l'", "qu'", "j’", "aujourd'hui", "c'est", "<eol>", "<eob>", "a<eol>b", "c,<eob>",
    "\t", "\xa0", "\x85", "\u2003", "\x1c",
]

_SEPARATORS = [" ", "\t", "\xa0", "\x85", "\u2003", "\x1c", "<eol>", "<eob>", " <eob> "]


@st.composite
def memo_text(draw):
    """Text whose words repeat, so memo hits and misses both run."""
    word = st.lists(
        st.one_of(
            st.sampled_from(list("aZé1")),
            st.sampled_from(list(string.punctuation)),
            st.sampled_from(_MEMO_PIECES),
            st.characters(),
        ),
        min_size=1,
        max_size=4,
    ).map("".join)
    vocabulary = draw(st.lists(word, min_size=1, max_size=6))
    return "".join(draw(st.lists(st.sampled_from(vocabulary + _SEPARATORS), max_size=30)))


# Every ASCII punctuation character, and some others, glued to letters
# and digits, so a shortcut taken by a word that is not alphanumeric shows.
_GLUED = " ".join(f"a{p}b 1{p}2 {p}é Z{p}" for p in string.punctuation + "’«»…¿\xa0")


@settings(max_examples=300, deadline=None)
@given(text=memo_text(), lang=st.sampled_from(["en", "fr", "it"]))
@example(text=_GLUED, lang="en")
@example(text=_GLUED, lang="it")
def test_word_memos_match_span_oracle(text, lang):
    for scheme in Scheme:
        want = oracles.tokenize_spans(text, scheme, lang)
        want_wer = oracles.normalize_for_wer_spans(want)
        # Memos as earlier examples left them, then emptied.
        warm = tokenize(text, scheme, lang)
        warm_wer = normalize_for_wer(warm)
        _clear_memos()
        cold = tokenize(text, scheme, lang)
        assert warm == cold == want
        assert warm_wer == normalize_for_wer(cold) == want_wer


@pytest.mark.parametrize(
    "scheme, lang, memo",
    [
        (Scheme.INTL13A, "en", textproc._13A_WORDS),
        (Scheme.MT_DETACHED, "en", textproc._MT_EN_WORDS),
        (Scheme.MT_DETACHED, "fr", textproc._MT_ELISION_WORDS),
        (Scheme.WHITESPACE, "en", textproc._WER_WORDS),
    ],
)
def test_word_memo_is_emptied_at_its_bound(scheme, lang, memo):
    _clear_memos()
    text = " ".join(f"w{i}," for i in range(textproc._MEMO_SIZE + 10))
    got = tokenize(text, scheme, lang)
    assert got == oracles.tokenize_spans(text, scheme, lang)
    assert normalize_for_wer(got) == oracles.normalize_for_wer_spans(got)
    # Full after the first 2**16 words, so emptied for the last 10.
    assert len(memo) == 10


def test_whitespace_scheme():
    assert surfaces("Hello world", Scheme.WHITESPACE) == ["Hello", "world"]


def test_13a_keeps_numeric_comma():
    assert surfaces("1,000 points.", Scheme.INTL13A) == ["1,000", "points", "."]


def test_mt_detached_apostrophes():
    assert surfaces("don't stop", Scheme.MT_DETACHED, "en") == ["don", "'t", "stop"]
    assert surfaces("l'homme", Scheme.MT_DETACHED, "fr") == ["l'", "homme"]


def test_breaks_isolated_even_when_glued():
    assert surfaces("word<eol>next", Scheme.INTL13A) == ["word", "<eol>", "next"]


def test_break_count_preserved_by_all_schemes():
    text = "a,b <eol> c <eob> d.e <eob>"
    for scheme in Scheme:
        toks = tokenize(text, scheme)
        assert sum(1 for t in toks.tokens if t in BREAKS) == 3


def test_normalize_for_wer_drops_breaks_and_punct():
    toks = tokenize("Hello , world ! <eob>", Scheme.WHITESPACE)
    assert normalize_for_wer(toks) == ["hello", "world"]


def test_normalize_for_wer_edge_strip():
    toks = tokenize("don 't", Scheme.WHITESPACE)
    assert normalize_for_wer(toks) == ["don", "t"]


def test_normalize_for_wer_empty():
    assert normalize_for_wer(tokenize("", Scheme.WHITESPACE)) == []


CONLLU = """\
1\tthe\t_\tDET\t_\t_\t0\t_\t_\t_
2\tcat\t_\tNOUN\t_\t_\t0\t_\t_\t_
3\tsat\t_\tVERB\t_\t_\t0\t_\t_\t_

1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_
1\tde\t_\tADP\t_\t_\t0\t_\t_\t_
2\tle\t_\tDET\t_\t_\t0\t_\t_\t_
"""


def test_parse_conllu_basic():
    sentences = [sentence for _, sentence in textproc.iter_conllu(CONLLU)]
    assert sentences[0] == [("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")]


def test_parse_conllu_skips_multiword_ranges():
    sentences = [sentence for _, sentence in textproc.iter_conllu(CONLLU)]
    assert sentences[1] == [("de", "ADP"), ("le", "DET")]


def test_crlf_conllu_file_parses_as_lf(tmp_path):
    text = (
        "# sent_id = 1\n1\tHello\t_\tINTJ\t_\t_\t0\t_\t_\t_\n"
        "2\t.\t_\tPUNCT\t_\t_\t1\t_\t_\t_\n\n"
        "1\tBye\t_\tINTJ\t_\t_\t0\t_\t_\t_\n"
    )
    lf, crlf = tmp_path / "lf.conllu", tmp_path / "crlf.conllu"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    expected = [[("Hello", "INTJ"), (".", "PUNCT")], [("Bye", "INTJ")]]
    assert textproc.load_conllu(str(crlf)) == textproc.load_conllu(str(lf)) == expected


def test_iter_conllu_gives_the_line_of_each_first_token():
    text = "# a\n1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n1\tde\t_\tADP\t_\t_\t0\t_\t_\t_\n\n\n" \
        "1\tx\t_\tX\t_\t_\t0\t_\t_\t_\n"
    assert list(textproc.iter_conllu(text)) == [(3, [("de", "ADP")]), (6, [("x", "X")])]


def test_parse_conllu_skips_empty_nodes():
    text = "1\tde\t_\tADP\t_\t_\t0\t_\t_\t_\n1.1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n" \
        "10\tle\t_\tDET\t_\t_\t0\t_\t_\t_\n"
    sentences = [sentence for _, sentence in textproc.iter_conllu(text)]
    assert sentences == [[("de", "ADP"), ("le", "DET")]]


@pytest.mark.parametrize(
    "token_id", ["abc", "١", "+1", "1_0", "1-", "-1", "1.", "1-2-3", "1.2.3", "1 ", ""]
)
def test_parse_conllu_malformed_token_id(token_id):
    bad = f"1\tde\t_\tADP\t_\t_\t0\t_\t_\t_\n{token_id}\tHello\t_\tINTJ\t_\t_\t_\t_\t_\t_\n"
    with pytest.raises(FormatError) as info:
        list(textproc.iter_conllu(bad))
    assert (str(info.value), info.value.line) == (f"malformed token ID {token_id!r}", 2)


def test_parse_conllu_unknown_upos():
    bad = "1\tx\t_\tFOO\t_\t_\t0\t_\t_\t_\n"
    with pytest.raises(FormatError, match="unknown UPOS 'FOO'") as info:
        list(textproc.iter_conllu(bad))
    assert info.value.line == 1


def test_attach_tags_breaks_untagged():
    toks = tokenize("we left <eol> because", Scheme.WHITESPACE)
    tagged = attach_tags(toks, ["PRON", "VERB", "SCONJ"])
    assert [tag for _, tag in tagged.items] == ["PRON", "VERB", None, "SCONJ"]


def test_attach_tags_length_mismatch():
    toks = tokenize("a b c", Scheme.WHITESPACE)
    with pytest.raises(DataError, match="utterance 'u7'"):
        attach_tags(toks, ["DET", "NOUN"], utt_id="u7")


def test_attach_tags_empty():
    tagged = attach_tags(tokenize("", Scheme.WHITESPACE), [])
    assert tagged.items == ()


def test_chunk_chink_examples():
    assert classify_chunk_chink("DET") is WordClass.FUNCTION
    assert classify_chunk_chink("NOUN") is WordClass.CONTENT
    assert classify_chunk_chink("PUNCT") is WordClass.PUNCT


def test_chunk_chink_partitions_all_17_tags():
    assert set(DEFAULT_CHUNK_CHINK) == UPOS_TAGS
    classes = {classify_chunk_chink(tag) for tag in UPOS_TAGS}
    assert classes == {WordClass.CONTENT, WordClass.FUNCTION, WordClass.PUNCT}
