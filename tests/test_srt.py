import pytest

from subeval.errors import DataError, FormatError, SubevalError
from subeval.srt import load_srt, parse_srt, serialize_srt

PAPER_CUE = """\
1
00:00:50,820 --> 00:00:53,820
To put the assumptions very clearly:
"""

THREE_CUES = """\
1
00:00:50,820 --> 00:00:53,820
To put the assumptions very clearly:

2
00:00:53,820 --> 00:00:57,820
capitalism, after 150 years,
has become acceptable,

3
00:00:58,820 --> 00:01:00,820
and so has democracy.
"""


def test_paper_cue_timing():
    doc = parse_srt(PAPER_CUE)
    block = doc.utterances[0].blocks[0]
    assert block.start_ms == 50820
    assert block.end_ms == 53820
    assert len(block.lines) == 1


def test_two_text_lines_become_two_lines():
    doc = parse_srt(THREE_CUES)
    assert len(doc.utterances[1].blocks[0].lines) == 2


def test_default_grouping_one_cue_per_utterance():
    doc = parse_srt(THREE_CUES)
    assert len(doc) == 3
    assert all(len(u.blocks) == 1 for u in doc.utterances)


def test_non_positive_duration():
    bad = "1\n00:00:05,000 --> 00:00:05,000\nhi\n"
    with pytest.raises(FormatError, match="non-positive duration"):
        parse_srt(bad)


def test_malformed_timing_names_cue():
    bad = "7\n00:00:05.000 -> 00:00:06,000\nhi\n"
    with pytest.raises(FormatError, match="cue 7"):
        parse_srt(bad)


def test_bom_tolerated():
    doc = parse_srt("﻿" + PAPER_CUE)
    assert doc.utterances[0].blocks[0].start_ms == 50820


def test_round_trip_preserves_timing_fields():
    assert serialize_srt(parse_srt(THREE_CUES)) == THREE_CUES


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("one\n00:00:01,000 --> 00:00:02,000\nhi\n", FormatError,
         "expected cue index line, got 'one'"),
        ("1\n", FormatError, "cue 1: missing timing line"),
        ("1\n00:00:01.000 --> 00:00:02,000\nhi\n", FormatError,
         "cue 1: malformed timing line '00:00:01.000 --> 00:00:02,000'"),
        ("1\n00:00:02,000 --> 00:00:01,000\nhi\n", FormatError, "cue 1: non-positive duration"),
        ("1\n00:00:01,000 --> 00:00:02,000\n", FormatError, "cue 1: no text lines"),
        (PAPER_CUE + "\n" + PAPER_CUE, FormatError, "duplicate cue index 1"),
        ("1\n00:00:01,000 --> 00:00:02,000\nhi\nsay <eol> it\n", DataError,
         "line text contains a break token literal: 'say <eol> it'"),
        # A break literal is reported before a duplicate index.
        (PAPER_CUE + "\n1\n00:00:01,000 --> 00:00:02,000\n<eob>\n", DataError,
         "line text contains a break token literal: '<eob>'"),
        # int() takes each of these indices, but a cue index is ASCII
        # digits: "1_0" and "+10" would both become cue 10.
        ("+1\n00:00:01,000 --> 00:00:02,000\nhi\n", FormatError,
         "expected cue index line, got '+1'"),
        ("1_0\n00:00:01,000 --> 00:00:02,000\nhi\n", FormatError,
         "expected cue index line, got '1_0'"),
        ("\u0661\n00:00:01,000 --> 00:00:02,000\nhi\n", FormatError,
         "expected cue index line, got '\u0661'"),
        ("1_0\n00:00:01,000 --> 00:00:02,000\nhi\n\n+10\n00:00:03,000 --> 00:00:04,000\nhi\n",
         FormatError, "expected cue index line, got '1_0'"),
    ],
)
def test_each_error_text(text, error, message):
    with pytest.raises(SubevalError) as info:
        parse_srt(text)
    assert (type(info.value), str(info.value)) == (error, message)


# Each error is on the cue's index line, on its timing line (also when
# the cue has no text line) or on the text line that holds the break.
@pytest.mark.parametrize(
    "text, line",
    [
        (THREE_CUES + "\nfour\n00:00:01,000 --> 00:00:02,000\nhi\n", 14),
        (THREE_CUES + "\n4\n", 14),
        (THREE_CUES + "\n4\n00:00:01.000 --> 00:00:02,000\nhi\n", 15),
        (THREE_CUES + "\n4\n00:00:02,000 --> 00:00:01,000\nhi\n", 15),
        (THREE_CUES + "\n4\n00:00:01,000 --> 00:00:02,000\n", 15),
        (THREE_CUES + "\n4\n00:00:01,000 --> 00:00:02,000\nhi\nsay <eol> it\n", 17),
        (THREE_CUES + "\n\n\n2\n00:00:01,000 --> 00:00:02,000\nhi\n", 16),
        ("\n\r\n" + PAPER_CUE.replace("clearly:", "<eob>"), 5),
    ],
    ids=["index", "missing-timing", "malformed-timing", "duration", "no-text", "break",
         "duplicate", "leading-blank-lines"],
)
def test_each_error_line(text, line):
    with pytest.raises(SubevalError) as info:
        parse_srt(text)
    assert info.value.line == line


def test_load_names_the_file_and_keeps_the_error_class(tmp_path):
    path = tmp_path / "bad.srt"
    path.write_text("1\n00:00:01,000 --> 00:00:02,000\n<eob>\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_srt(str(path))
    assert str(info.value) == f"{path}:3: line text contains a break token literal: '<eob>'"
