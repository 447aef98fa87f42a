import logging

import pytest

from subeval.errors import FormatError
from subeval.markers import load_marked_text, parse_marked_text, serialize_marked_text


def test_two_block_utterance():
    doc = parse_marked_text("Hello there <eol> my friend <eob> Goodbye. <eob>\n")
    assert len(doc) == 1
    utt = doc.utterances[0]
    assert len(utt.blocks) == 2
    assert utt.blocks[0].lines == ("Hello there", "my friend")
    assert utt.blocks[1].lines == ("Goodbye.",)


def test_paper_three_block_example():
    doc = parse_marked_text(
        "To put the assumptions very clearly: <eob> capitalism, after 150 years, "
        "has become acceptable, <eob> and so has democracy. <eob>\n"
    )
    utt = doc.utterances[0]
    assert len(utt.blocks) == 3
    assert all(len(block.lines) == 1 for block in utt.blocks)


def test_empty_utterance():
    with pytest.raises(FormatError, match="empty utterance"):
        parse_marked_text("\n")


def test_missing_trailing_eob_accepted():
    doc = parse_marked_text("Hi there everyone\n")
    assert serialize_marked_text(doc) == "Hi there everyone <eob>\n"


def test_consecutive_breaks_rejected():
    with pytest.raises(FormatError, match="empty segment"):
        parse_marked_text("a <eol> <eob>\n")
    with pytest.raises(FormatError, match="empty segment"):
        parse_marked_text("a <eob> <eob> b <eob>\n")


def test_lenient_drops_empty_segments():
    doc = parse_marked_text("a <eol> <eob> b <eob>\n", lenient=True)
    assert serialize_marked_text(doc) == "a <eob> b <eob>\n"


def test_lenient_warns_once_for_an_empty_block(caplog):
    text = "a <eob> <eob>\nb <eol> <eol> c <eob> <eol> <eob>\n"
    with caplog.at_level(logging.WARNING):
        doc = parse_marked_text(text, lenient=True)
    assert serialize_marked_text(doc) == "a <eob>\nb <eol> c <eob>\n"
    assert [record.getMessage() for record in caplog.records] == [
        "dropping empty block in utterance 0",
        "dropping empty segment in utterance 1",
        "dropping empty block in utterance 1",
    ]


def test_markers_glued_to_words():
    doc = parse_marked_text("hello<eol>world<eob>\n")
    utt = doc.utterances[0]
    assert utt.blocks[0].lines == ("hello", "world")


def test_ids_default_to_line_numbers():
    doc = parse_marked_text("a <eob>\nb <eob>\n")
    assert [u.id for u in doc.utterances] == ["0", "1"]


def test_round_trip_identity():
    text = "Hi. <eob>\nHello there <eol> my friend <eob> Goodbye. <eob>\n"
    doc = parse_marked_text(text)
    assert parse_marked_text(serialize_marked_text(doc)) == doc


def test_block_counts_match_marker_counts():
    raw = "a <eob> b <eol> c <eob> d <eob>\n"
    doc = parse_marked_text(raw)
    utt = doc.utterances[0]
    assert len(utt.blocks) == raw.count("<eob>")
    assert sum(len(b.lines) - 1 for b in utt.blocks) == raw.count("<eol>")


def test_lone_cr_stays_in_its_line(tmp_path):
    # Lines end at LF alone, as the UTF-8 error's line count has them.
    path = tmp_path / "m.txt"
    path.write_bytes(b"a\rb <eob>\n")
    doc = load_marked_text(str(path))
    assert len(doc) == 1
    assert doc.utterances[0].blocks[0].lines == ("a b",)


def test_crlf_file_parses_as_lf(tmp_path):
    text = "Hello <eol> there <eob> friend <eob>\nGoodbye. <eob>\n"
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert load_marked_text(str(crlf)) == load_marked_text(str(lf)) == parse_marked_text(text)
