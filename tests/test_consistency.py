import pytest
from hypothesis import given, settings, strategies as st

import oracles
from subeval.align import SentenceAlignment, parse_pharaoh
from subeval.consistency import (
    block_index_map,
    char_ratio,
    consistency_report,
    corpus_lexical_consistency,
    lexical_consistency_pair,
    line_count_consistency,
    structural_consistency,
    subtitle_block_judgements,
    validate_lexical_metric,
)
from subeval.errors import DataError, SubevalError
from subeval.markers import parse_marked_text
from subeval.model import Utterance, UtterancePair, pair_documents
from subeval.textproc import Scheme, tokenize


def make_pair(caption_text, subtitle_text, utt_id="0"):
    caption = parse_marked_text(caption_text + "\n").utterances[0]
    subtitle = parse_marked_text(subtitle_text + "\n").utterances[0]
    return UtterancePair(
        caption=Utterance(utt_id, caption.blocks),
        subtitle=Utterance(utt_id, subtitle.blocks),
    )


# ---------------------------------------------------------------------------
# Structural consistency


def test_structural_three_block_pair_consistent(paper_example):
    pair, _, _ = paper_example
    assert structural_consistency([pair]) == 1.0


def test_structural_three_of_four():
    pairs = [
        make_pair("a <eob> b <eob>", "c <eob> d <eob>", "0"),
        make_pair("a <eob>", "b <eob>", "1"),
        make_pair("a <eob> b <eob> c <eob>", "d <eob> e <eob>", "2"),
        make_pair("a <eob>", "b <eob>", "3"),
    ]
    assert structural_consistency(pairs) == 0.75


def test_structural_all_single_block():
    pairs = [make_pair("a <eob>", "b <eob>", str(i)) for i in range(3)]
    assert structural_consistency(pairs) == 1.0


def test_structural_empty_list():
    with pytest.raises(DataError, match="empty pair list"):
        structural_consistency([])


# ---------------------------------------------------------------------------
# Block index maps


def test_block_index_map_two_blocks():
    utt = parse_marked_text("a b <eob> c <eob>\n").utterances[0]
    result = block_index_map(utt)
    assert result.word_to_block == (0, 0, 1)
    assert result.blocks == 2


def test_block_index_map_single_block():
    utt = parse_marked_text("x y\n").utterances[0]
    assert block_index_map(utt).word_to_block == (0, 0)


def test_block_index_map_french_subtitle(paper_example):
    pair, _, _ = paper_example
    result = block_index_map(pair.subtitle, "fr")
    assert result.words == 23
    assert result.word_to_block == tuple([0] * 8 + [1] * 11 + [2] * 4)


def test_block_index_map_english_caption(paper_example):
    pair, _, _ = paper_example
    result = block_index_map(pair.caption, "en")
    assert result.words == 22
    assert result.word_to_block == tuple([0] * 7 + [1] * 10 + [2] * 5)


def test_block_index_map_eol_does_not_advance_block():
    utt = parse_marked_text("a <eol> b <eob> c <eob>\n").utterances[0]
    assert block_index_map(utt).word_to_block == (0, 0, 1)


# ---------------------------------------------------------------------------
# Lexical consistency


def test_same_block_links_give_one():
    pair = make_pair("hello <eob> world <eob>", "bonjour <eob> monde <eob>")
    links = parse_pharaoh("0-0 1-1")
    result = lexical_consistency_pair(pair, links, links)
    assert result.lex_pair == 1.0
    assert result.inconsistent_tokens == ()


def test_cross_block_links_give_zero():
    pair = make_pair("hello <eob> world <eob>", "monde <eob> bonjour <eob>")
    links = parse_pharaoh("0-1 1-0")
    result = lexical_consistency_pair(pair, links, links)
    assert result.lex_pair == 0.0
    assert len(result.inconsistent_tokens) == 4


def test_paper_example_six_inconsistent_subtitle_tokens(paper_example):
    pair, align_c2s, align_s2c = paper_example
    result = lexical_consistency_pair(
        pair, align_c2s, align_s2c, caption_lang="en", subtitle_lang="fr"
    )
    assert result.lex_s2c == pytest.approx(17 / 23, abs=1e-9)
    bad_subtitle = [t for t in result.inconsistent_tokens if t[0] == "subtitle"]
    assert [surface for _, _, surface in bad_subtitle] == [
        "le", "capitalisme", ",", "au", "même", "titre",
    ]


def test_unaligned_tokens_inconsistent_by_default():
    pair = make_pair("a b <eob>", "x y <eob>")
    c2s = parse_pharaoh("0-0")
    s2c = parse_pharaoh("0-0")
    result = lexical_consistency_pair(pair, c2s, s2c)
    assert result.lex_c2s == 0.5
    skipped = lexical_consistency_pair(pair, c2s, s2c, skip_unaligned=True)
    assert skipped.lex_c2s == 1.0


def test_lex_scores_follow_from_inconsistent_tokens():
    pair = make_pair("a b c <eob> d <eob>", "w x <eob> y z <eob>")
    c2s = parse_pharaoh("0-0 1-3 3-2")
    s2c = parse_pharaoh("0-0 1-1 2-3 3-3")
    result = lexical_consistency_pair(pair, c2s, s2c)
    bad_c = sum(1 for side, _, _ in result.inconsistent_tokens if side == "caption")
    bad_s = sum(1 for side, _, _ in result.inconsistent_tokens if side == "subtitle")
    assert result.lex_c2s == pytest.approx(1 - bad_c / 4)
    assert result.lex_s2c == pytest.approx(1 - bad_s / 4)
    assert result.lex_pair == pytest.approx((result.lex_c2s + result.lex_s2c) / 2)


def test_out_of_bounds_link_names_pair():
    pair = make_pair("a <eob>", "x <eob>", "u9")
    with pytest.raises(DataError, match="u9"):
        lexical_consistency_pair(pair, parse_pharaoh("0-5"), parse_pharaoh(""))


def test_corpus_mean_is_unweighted():
    pair_full = make_pair("hello <eob>", "bonjour <eob>", "0")
    pair_half = make_pair("a b <eob>", "x y <eob>", "1")
    alignments = [
        (parse_pharaoh("0-0"), parse_pharaoh("0-0")),
        (parse_pharaoh("0-0"), parse_pharaoh("0-0 1-1")),
    ]
    mean, per_pair = corpus_lexical_consistency([pair_full, pair_half], alignments)
    assert per_pair[0].lex_pair == 1.0
    assert per_pair[1].lex_pair == 0.75
    assert mean == pytest.approx(0.875)


def test_corpus_alignment_count_mismatch():
    pair = make_pair("a <eob>", "x <eob>")
    with pytest.raises(DataError, match="pair/alignment count mismatch"):
        corpus_lexical_consistency([pair], [])


@pytest.mark.parametrize("score", [corpus_lexical_consistency, consistency_report])
def test_count_mismatch_is_raised_before_a_link_out_of_bounds(score):
    pair = make_pair("a <eob>", "x <eob>")
    stray = (parse_pharaoh("0-5"), parse_pharaoh("7-0"))
    with pytest.raises(DataError, match="pair/alignment count mismatch: 1 vs 2"):
        score([pair], [stray, stray])
    with pytest.raises(DataError, match="empty pair list"):
        score([], [])
    # With the counts right, the first pair in order with a stray link raises.
    pairs = [make_pair("a <eob>", "x <eob>", "u0"), make_pair("b <eob>", "y <eob>", "u1")]
    fine = (parse_pharaoh("0-0"), parse_pharaoh(""))
    with pytest.raises(DataError, match=r"^alignment link 7-0 out of bounds \(utterance 'u1'\)$"):
        score(pairs, [fine, (fine[0], stray[1])])


def test_micro_corpus_matches_directional_oracle(micro_docs, micro_paths):
    from subeval.align import load_pharaoh
    from subeval.textproc import tokenize

    pairs = pair_documents(micro_docs["captions_hyp"], micro_docs["subtitles_hyp"])
    c2s = load_pharaoh(micro_paths["align_c2s"])
    s2c = load_pharaoh(micro_paths["align_s2c"])
    mean, per_pair = corpus_lexical_consistency(
        pairs, list(zip(c2s, s2c)), caption_lang="en", subtitle_lang="fr"
    )
    expected = []
    for pair, a_c2s, a_s2c in zip(pairs, c2s, s2c):
        cap_blocks = list(block_index_map(pair.caption, lang="en").word_to_block)
        sub_blocks = list(block_index_map(pair.subtitle, lang="fr").word_to_block)
        lex_c2s = oracles.directional_lexical(
            cap_blocks, sub_blocks, set(a_c2s.links)
        )
        lex_s2c = oracles.directional_lexical(
            sub_blocks, cap_blocks, set(a_s2c.links)
        )
        expected.append((lex_c2s + lex_s2c) / 2)
    assert mean == pytest.approx(sum(expected) / len(expected), rel=1e-9)


# The set-based scorer against the dict-of-links one it replaced
# (tests/oracles.py): equal results, and the same error class and text.

_BLOCK = st.lists(
    st.sampled_from(["a", "bb c", "d.", "l'e, f", "g <eol> h"]), min_size=1, max_size=3
).map(" ".join)
_UTTERANCE = st.lists(_BLOCK, min_size=1, max_size=3).map(
    lambda blocks: " <eob> ".join(blocks) + " <eob>"
)


def _alignment(draw, n_own, n_other):
    """In-range links, several per word or repeated, plus at times a
    negative or out-of-range one; as a set or as a tuple that keeps
    repeats."""
    index = lambda n: st.integers(0, max(n - 1, 0))  # noqa: E731
    links = draw(st.lists(st.tuples(index(n_own), index(n_other)), max_size=n_own + n_other))
    faults = [(-1, 0), (0, -1), (n_own, 0), (0, n_other), (-2, n_other + 3)]
    n_faults = draw(st.sampled_from([0, 0, 0, 0, 1, 2]))
    for link in draw(st.lists(st.sampled_from(faults), min_size=n_faults, max_size=n_faults)):
        links.insert(draw(st.integers(0, len(links))), link)
    return SentenceAlignment(draw(st.sampled_from([frozenset, tuple]))(links))


@st.composite
def lexical_cases(draw):
    langs = draw(st.sampled_from([("en", "en"), ("en", "fr")]))
    pair = make_pair(draw(_UTTERANCE), draw(_UTTERANCE), draw(st.sampled_from(["0", "u9"])))
    tokens = (
        tokenize(pair.caption.text(), Scheme.MT_DETACHED, langs[0]),
        tokenize(pair.subtitle.text(), Scheme.MT_DETACHED, langs[1]),
    )
    n_cap, n_sub = (len(side.words()) for side in tokens)
    return (
        pair, tokens, _alignment(draw, n_cap, n_sub), _alignment(draw, n_sub, n_cap),
        langs, draw(st.booleans()),
    )


def _lexical_outcome(score, *args, **kwargs):
    try:
        return score(*args, **kwargs)
    except SubevalError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(lexical_cases())
def test_lexical_consistency_pair_matches_dict_oracle(case):
    pair, tokens, c2s, s2c, (caption_lang, subtitle_lang), skip = case
    assert _lexical_outcome(
        lexical_consistency_pair, pair, c2s, s2c,
        caption_lang=caption_lang, subtitle_lang=subtitle_lang, skip_unaligned=skip,
    ) == _lexical_outcome(oracles.lexical_consistency_pair_dict, pair.id, tokens, c2s, s2c, skip)


# ---------------------------------------------------------------------------
# Line count and character ratio


def test_line_count_two_of_three():
    pairs = [
        make_pair("a <eob>", "b <eob>", "0"),
        make_pair("c <eol> d <eob>", "e <eob>", "1"),
        make_pair("f <eol> g <eob>", "h <eol> i <eob>", "2"),
    ]
    assert line_count_consistency(pairs) == pytest.approx(2 / 3)


def test_line_count_skips_structurally_inconsistent():
    pairs = [
        make_pair("a <eob> b <eob>", "c <eob>", "0"),
        make_pair("d <eob>", "e <eob>", "1"),
    ]
    assert line_count_consistency(pairs) == 1.0


def test_line_count_undefined_without_structural_pairs():
    pairs = [make_pair("a <eob> b <eob>", "c <eob>", "0")]
    assert line_count_consistency(pairs) is None


def test_char_ratio_nine_tenths():
    pairs = [make_pair("abcdefghi <eob>", "abcdefghij <eob>")]
    assert char_ratio(pairs) == pytest.approx(0.9)


def test_char_ratio_identity():
    pairs = [make_pair("same text <eob>", "same text <eob>")]
    assert char_ratio(pairs) == 1.0


def test_char_ratio_empty_subtitles():
    with pytest.raises(DataError, match="empty pair list"):
        char_ratio([])


# ---------------------------------------------------------------------------
# Block judgements and metric validation


def test_block_judgements_on_paper_example(paper_example):
    pair, align_c2s, align_s2c = paper_example
    result = lexical_consistency_pair(
        pair, align_c2s, align_s2c, caption_lang="en", subtitle_lang="fr"
    )
    judgements = subtitle_block_judgements(pair, result, subtitle_lang="fr")
    assert judgements == [False, False, True]


def test_validate_identical_vectors():
    assert validate_lexical_metric([0.5, 1.0], [0.5, 1.0], [True], [True]) == (0.0, 1.0)


def test_validate_mae():
    mae, _ = validate_lexical_metric([0.5], [0.7], [True], [False])
    assert mae == pytest.approx(0.2)


def test_validate_length_mismatch():
    with pytest.raises(DataError, match="score vector length mismatch"):
        validate_lexical_metric([0.5], [0.5, 0.6], [True], [True])
    with pytest.raises(DataError, match="judgement vector length mismatch"):
        validate_lexical_metric([0.5], [0.5], [True], [True, False])


# ---------------------------------------------------------------------------
# Full report


def test_consistency_report_fields(paper_example):
    pair, align_c2s, align_s2c = paper_example
    report = consistency_report(
        [pair], [(align_c2s, align_s2c)], caption_lang="en", subtitle_lang="fr"
    )
    assert report.structural == 1.0
    assert report.line_count == 1.0
    assert report.char_ratio > 0
    assert len(report.per_pair) == 1
    assert report.lexical == report.per_pair[0].lex_pair
