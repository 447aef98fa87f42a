"""Randomized and hypothesis-driven invariant tests."""

import unicodedata

from hypothesis import given, settings, strategies as st

import props
from subeval.markers import parse_marked_text, serialize_marked_text
from subeval.model import (
    SubtitleBlock,
    SubtitleDocument,
    SubtitleLine,
    Utterance,
)
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
    lambda texts: SubtitleBlock(tuple(SubtitleLine(t) for t in texts))
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
