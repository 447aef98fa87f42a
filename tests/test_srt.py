import pytest

from subeval.errors import FormatError
from subeval.srt import parse_srt, serialize_srt

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
