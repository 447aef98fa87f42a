import pytest
from hypothesis import given, settings, strategies as st

import oracles
from subeval.conformity import (
    BreakSelection,
    ConformityThresholds,
    LengthAggregation,
    conformity_report,
    segmentation_plausibility,
)
from subeval.errors import DataError
from subeval.markers import parse_marked_text
from subeval.model import BREAKS, SubtitleBlock, SubtitleDocument, Utterance
from subeval.textproc import UPOS_TAGS, Scheme, TaggedUtterance, attach_tags, tokenize


def doc_of_lines(*line_lengths):
    blocks = tuple(SubtitleBlock(("x" * n,)) for n in line_lengths)
    return SubtitleDocument((Utterance(id="0", blocks=blocks),))


def timed_doc(*blocks_spec):
    """blocks_spec: (chars, start_ms, end_ms) per block."""
    blocks = tuple(
        SubtitleBlock(("x" * chars,), start_ms=start, end_ms=end)
        for chars, start, end in blocks_spec
    )
    return SubtitleDocument((Utterance(id="0", blocks=blocks),))


def tag_text(text, tags):
    return attach_tags(tokenize(text, Scheme.WHITESPACE), tags)


# ---------------------------------------------------------------------------
# Length


def test_length_42_conforms_inclusive():
    assert conformity_report(doc_of_lines(42)).length_rate == 1.0


def test_length_43_does_not_conform():
    assert conformity_report(doc_of_lines(43)).length_rate == 0.0


def test_length_mixed_lines():
    assert conformity_report(doc_of_lines(10, 50, 42)).length_rate == pytest.approx(2 / 3)


def test_length_per_block_aggregation():
    block = SubtitleBlock(("x" * 10, "x" * 50))
    doc = SubtitleDocument((Utterance(id="0", blocks=(block,)),))
    assert conformity_report(doc, aggregation=LengthAggregation.PER_BLOCK).length_rate == 0.0
    assert conformity_report(doc, aggregation=LengthAggregation.PER_LINE).length_rate == 0.5


def test_length_custom_threshold():
    assert conformity_report(doc_of_lines(10), ConformityThresholds(max_cpl=9)).length_rate == 0.0


def test_thresholds_must_be_positive():
    with pytest.raises(DataError):
        ConformityThresholds(max_cpl=0)
    with pytest.raises(DataError):
        ConformityThresholds(max_cps=-1.0)


@pytest.mark.parametrize("field", ["max_cpl", "max_cps"])
def test_nan_threshold_rejected(field):
    with pytest.raises(DataError, match="must be positive"):
        ConformityThresholds(**{field: float("nan")})


# ---------------------------------------------------------------------------
# Reading speed


def test_reading_speed_boundary_conforms():
    doc = timed_doc((84, 0, 4000))
    assert conformity_report(doc).reading_speed_rate == 1.0


def test_reading_speed_above_boundary():
    doc = timed_doc((85, 0, 4000))
    assert conformity_report(doc).reading_speed_rate == 0.0


def test_reading_speed_missing_timing():
    # One untimed block leaves the rate without a value, as `eval` reports it.
    timed = SubtitleBlock(("x" * 10,), start_ms=0, end_ms=1000)
    doc = SubtitleDocument((Utterance(id="0", blocks=(timed, SubtitleBlock(("x" * 10,)))),))
    assert conformity_report(doc).reading_speed_rate is None


def test_reading_speed_no_interline_spaces():
    # Two 42-char lines in a 4-second block: 84 chars, exactly 21 cps.
    block = SubtitleBlock(("x" * 42, "x" * 42), start_ms=0, end_ms=4000)
    doc = SubtitleDocument((Utterance(id="0", blocks=(block,)),))
    assert conformity_report(doc).reading_speed_rate == 1.0


# ---------------------------------------------------------------------------
# Segmentation plausibility


def test_break_after_punctuation_plausible():
    tagged = tag_text("yesterday , <eol> we left", ["NOUN", "PUNCT", "PRON", "VERB"])
    assert segmentation_plausibility([tagged]) == 1.0


def test_break_between_content_words_implausible():
    tagged = tag_text("the red <eol> car", ["DET", "ADJ", "NOUN"])
    assert segmentation_plausibility([tagged]) == 0.0


def test_break_content_then_function_plausible():
    tagged = tag_text(
        "we left <eol> because it rained", ["PRON", "VERB", "SCONJ", "PRON", "VERB"]
    )
    assert segmentation_plausibility([tagged]) == 1.0


def test_break_function_then_content_needs_either_order():
    tagged = tag_text("he walked to <eol> Paris", ["PRON", "VERB", "ADP", "PROPN"])
    assert segmentation_plausibility([tagged]) == 0.0


def test_trailing_eob_counted_and_needs_punct():
    good = tag_text("it rained . <eob>", ["PRON", "VERB", "PUNCT"])
    bad = tag_text("it rained <eob>", ["PRON", "VERB"])
    assert segmentation_plausibility([good]) == 1.0
    assert segmentation_plausibility([bad]) == 0.0


def test_trailing_eob_excluded():
    tagged = tag_text("it rained <eob>", ["PRON", "VERB"])
    assert segmentation_plausibility([tagged], include_trailing_eob=False) is None


def test_break_selection_filters_kinds():
    tagged = tag_text(
        "the red <eol> car stopped . <eob>",
        ["DET", "ADJ", "NOUN", "VERB", "PUNCT"],
    )
    assert segmentation_plausibility([tagged], breaks=BreakSelection.EOL) == 0.0
    assert segmentation_plausibility([tagged], breaks=BreakSelection.EOB) == 1.0
    assert segmentation_plausibility([tagged], breaks=BreakSelection.BOTH) == 0.5


def test_no_breaks_rate_absent():
    tagged = tag_text("hello world", ["INTJ", "NOUN"])
    assert segmentation_plausibility([tagged]) is None


def test_break_without_preceding_word_is_error():
    tagged = tag_text("<eol> hi", ["INTJ"])
    with pytest.raises(DataError, match="break without a preceding word"):
        segmentation_plausibility([tagged])


def test_sentence_final_breaks_after_periods_rate_one():
    docs = [
        tag_text("it works . <eob>", ["PRON", "VERB", "PUNCT"]),
        tag_text("we agree . <eob>", ["PRON", "VERB", "PUNCT"]),
    ]
    assert segmentation_plausibility(docs) == 1.0


# Words carry a UPOS tag, a tag outside UPOS, or none; breaks carry None
# or, built directly, a tag that must be ignored.  Most utterances start
# with a word, so that most draws reach a rate rather than an error.
_WORD = st.tuples(st.sampled_from(["w", "x"]), st.sampled_from(sorted(UPOS_TAGS) + ["FOO", None]))
_BREAK = st.tuples(st.sampled_from(sorted(BREAKS)), st.sampled_from([None, "PUNCT", "FOO"]))
_UTTERANCE = st.builds(
    lambda lead, rest: TaggedUtterance(tuple(lead + rest)),
    st.sampled_from([0, 1, 1, 1]).flatmap(lambda n: st.lists(_WORD, min_size=n, max_size=n)),
    st.lists(st.one_of(_WORD, _BREAK), max_size=8),
)
_TAGGED = st.lists(_UTTERANCE, max_size=4)


@settings(max_examples=1000, deadline=None)
@given(_TAGGED, st.sampled_from(list(BreakSelection)), st.booleans())
def test_segmentation_matches_scan_oracle(tagged, breaks, include_trailing_eob):
    def outcome(fn):
        try:
            return fn(tagged, include_trailing_eob=include_trailing_eob, breaks=breaks)
        except DataError as exc:
            return f"DataError: {exc}"

    expected = outcome(oracles.segmentation_plausibility)
    assert outcome(segmentation_plausibility) == expected
    if not str(expected).startswith("DataError"):
        report = conformity_report(
            SubtitleDocument(()), tagged=tagged,
            include_trailing_eob=include_trailing_eob, breaks=breaks,
        )
        assert report.segmentation_rate == expected
        selected = oracles._SELECTED_BREAKS[breaks]
        assert report.breaks == sum(t in selected for utt in tagged for t, _ in utt.items)


# ---------------------------------------------------------------------------
# Combined report


def test_report_without_timing_or_tags():
    doc = parse_marked_text("hello there <eol> friend <eob>\n")
    report = conformity_report(doc)
    assert report.length_rate == 1.0
    assert report.reading_speed_rate is None
    assert report.segmentation_rate is None
    assert report.breaks == 0


def test_report_with_block_timing():
    doc = timed_doc((40, 0, 2000), (100, 2000, 4000))
    report = conformity_report(doc)
    assert report.reading_speed_rate == 0.5


def test_report_with_tags_counts_breaks():
    doc = parse_marked_text("it rained . <eob>\n")
    tagged = [tag_text("it rained . <eob>", ["PRON", "VERB", "PUNCT"])]
    report = conformity_report(doc, tagged=tagged)
    assert report.segmentation_rate == 1.0
    assert report.breaks == 1



def test_report_tags_must_match_the_document():
    doc = parse_marked_text("a b <eob>\nc d <eob>\n")
    tagged = [tag_text("a b <eob>", ["NOUN", "NOUN"])] * 3
    with pytest.raises(DataError, match=r"^utterance count mismatch: 2 vs 3$"):
        conformity_report(doc, tagged=tagged)
    # Without a document, the tags are scored on their own.
    assert conformity_report(SubtitleDocument(()), tagged=tagged).breaks == 3

@pytest.mark.parametrize(
    "selection, expected",
    [(BreakSelection.EOL, 1), (BreakSelection.EOB, 2), (BreakSelection.BOTH, 3)],
)
def test_report_break_count_follows_selection(selection, expected):
    text = "we left <eol> early . <eob> it rained . <eob>"
    doc = parse_marked_text(text + "\n")
    tagged = [tag_text(text, ["PRON", "VERB", "ADV", "PUNCT", "PRON", "VERB", "PUNCT"])]
    assert conformity_report(doc, tagged=tagged, breaks=selection).breaks == expected
