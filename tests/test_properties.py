"""Randomized and hypothesis-driven invariant tests."""

import unicodedata

from hypothesis import given, settings, strategies as st

import oracles
import props
from subeval.errors import SubevalError
from subeval.markers import parse_marked_text, serialize_marked_text
from subeval.model import SubtitleBlock, SubtitleDocument, Utterance
from subeval.srt import format_timestamp, parse_srt
from subeval.textproc import Scheme, normalize_for_wer, tokenize

N_CASES = 1000


def test_round_trip_identity():
    props.check_round_trip(N_CASES)


def test_break_token_conservation():
    props.check_break_conservation(N_CASES)


def test_conformity_bounds_and_threshold_monotonicity():
    props.check_conformity_bounds_and_monotonicity(N_CASES)


def test_lex_pair_identity_from_inconsistent_tokens():
    props.check_lex_pair_identity(N_CASES)


def test_corpus_metric_permutation_invariance():
    props.check_permutation_invariance(N_CASES)


def test_wer_normalization_shape():
    props.check_wer_normalization(N_CASES)


def test_report_byte_determinism():
    props.check_report_determinism(N_CASES)


# ---------------------------------------------------------------------------
# Hypothesis variants exploring a wider input space


words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)
lines = st.lists(words, min_size=1, max_size=4).map(" ".join)
blocks = st.lists(lines, min_size=1, max_size=2).map(
    lambda texts: SubtitleBlock(tuple(texts))
)
utterance_blocks = st.lists(blocks, min_size=1, max_size=3)


@st.composite
def documents(draw):
    utts = draw(st.lists(utterance_blocks, min_size=1, max_size=3))
    return SubtitleDocument(
        tuple(
            Utterance(id=str(i), blocks=tuple(b)) for i, b in enumerate(utts)
        ),
    )


@settings(max_examples=300, deadline=None)
@given(documents())
def test_hypothesis_round_trip(doc):
    assert parse_marked_text(serialize_marked_text(doc)) == doc


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60), st.sampled_from(list(Scheme)))
def test_hypothesis_normalize_for_wer(text, scheme):
    for word in normalize_for_wer(tokenize(text, scheme)):
        assert word == word.lower()
        assert not all(unicodedata.category(c).startswith("P") for c in word)


# ---------------------------------------------------------------------------
# The parsers against the checked model they replaced (tests/oracles.py):
# the same documents, and the same error class and text for bad input.


def _parse_outcome(parse, source, **kwargs):
    try:
        return oracles.document_fields(parse(source, **kwargs))
    except SubevalError as exc:
        return type(exc), str(exc)


_PIECES = ["hi", "so it goes", "héllo", "<eob>", "<eol>", "x<eol>y", " ", "\t", "\r", "-->", ""]
_TEXT = st.lists(st.sampled_from(_PIECES), max_size=5).map("".join)
_SRT_LINE = st.lists(
    st.sampled_from(["hi", " so it goes", " héllo", " ", "\t", "\r", "-->"]),
    min_size=1,
    max_size=4,
).map("".join)
_BREAK_LINES = ["<eob>", "a <eol> b", "x<eob>y", "<eol>"]


@st.composite
def srt_texts(draw):
    """Valid cues, some given a fault: a bad or repeated index, a bad or
    non-positive timing, no text or timing line, a break literal, or
    both of the first and the last."""
    cues = []
    for i in range(draw(st.integers(0, 4))):
        start, length = draw(st.integers(0, 10**7)), draw(st.integers(1, 5000))
        timing = f"{format_timestamp(start)} --> {format_timestamp(start + length)}"
        lines = [str(i + 1), timing] + draw(st.lists(_SRT_LINE, min_size=1, max_size=3))
        faults = draw(st.sampled_from(
            [()] * 4 + [("index",), ("timing",), ("cut",), ("break",), ("index", "break")]
        ))
        if "index" in faults:
            lines[0] = draw(st.sampled_from(["x", str(i), " 2 ", "01", "0"]))
        if "timing" in faults:
            lines[1] = draw(st.sampled_from([
                timing.replace(",", ".", 1), f"{timing} ", "junk",
                f"{format_timestamp(start)} --> {format_timestamp(start)}",
                f"{format_timestamp(start + length)} --> {format_timestamp(start)}",
            ]))
        if "cut" in faults:
            lines = lines[: draw(st.integers(1, 2))]
        if "break" in faults:
            lines.insert(draw(st.integers(2, len(lines))), draw(st.sampled_from(_BREAK_LINES)))
        cues.append("\n".join(lines))
    text = draw(st.sampled_from(["\n\n", "\n", "\n \n"])).join(cues)
    return draw(st.sampled_from(["", "\ufeff"])) + text + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=500, deadline=None)
@given(srt_texts())
def test_parse_srt_matches_checked_oracle(text):
    assert _parse_outcome(parse_srt, text) == _parse_outcome(oracles.parse_srt_checked, text)


@settings(max_examples=500, deadline=None)
@given(st.lists(_TEXT, max_size=4), st.booleans(), st.booleans())
def test_parse_marked_text_matches_checked_oracle(lines, lenient, as_lines):
    source = [line + "\n" for line in lines] if as_lines else "\n".join(lines)
    assert _parse_outcome(parse_marked_text, source, lenient=lenient) == _parse_outcome(
        oracles.parse_marked_text_checked, source, lenient=lenient
    )
