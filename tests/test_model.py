import pytest

from subeval.errors import DataError
from subeval.model import (
    SubtitleBlock,
    SubtitleDocument,
    SubtitleLine,
    Utterance,
    pair_documents,
)


def utt(utt_id, *block_lines):
    blocks = tuple(
        SubtitleBlock(tuple(SubtitleLine(t) for t in lines)) for lines in block_lines
    )
    return Utterance(id=utt_id, blocks=blocks)


def test_char_count_paper_line():
    assert SubtitleLine("and so has democracy.").char_count() == 21


def test_char_count_unicode_not_bytes():
    assert SubtitleLine("héllo").char_count() == 5


def test_char_count_trims_outer_whitespace():
    assert SubtitleLine("  a b  ").char_count() == 3


def test_line_rejects_break_literals():
    with pytest.raises(DataError):
        SubtitleLine("hello <eob>")


def test_block_requires_lines_and_valid_timing():
    with pytest.raises(DataError):
        SubtitleBlock(())
    with pytest.raises(DataError):
        SubtitleBlock((SubtitleLine("x"),), start_ms=5000, end_ms=5000)


def test_block_timing_must_fit_utterance():
    block = SubtitleBlock((SubtitleLine("x"),), start_ms=0, end_ms=10_000)
    with pytest.raises(DataError):
        Utterance(id="0", blocks=(block,), start_ms=0, end_ms=5000)


def test_document_rejects_duplicate_ids():
    with pytest.raises(DataError):
        SubtitleDocument((utt("0", ["a"]), utt("0", ["b"])))


def test_pair_documents_positional():
    caps = SubtitleDocument(tuple(utt(str(i), ["a"]) for i in range(3)))
    subs = SubtitleDocument(tuple(utt(str(i), ["b"]) for i in range(3)))
    pairs = pair_documents(caps, subs)
    assert len(pairs) == 3
    assert [p.id for p in pairs] == ["0", "1", "2"]


def test_pair_documents_count_mismatch():
    caps = SubtitleDocument(tuple(utt(str(i), ["a"]) for i in range(3)))
    subs = SubtitleDocument(tuple(utt(str(i), ["b"]) for i in range(4)))
    with pytest.raises(DataError, match="utterance count mismatch: 3 vs 4"):
        pair_documents(caps, subs)


def test_pair_documents_empty():
    assert pair_documents(SubtitleDocument(()), SubtitleDocument(())) == []


def test_utterance_text_has_trailing_block_break():
    u = utt("0", ["Hello there", "my friend"], ["Goodbye."])
    assert u.text() == "Hello there <eol> my friend <eob> Goodbye. <eob>"
