import logging
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from subeval.errors import DataError
from subeval.markers import parse_marked_text
from subeval.model import SubtitleBlock, Utterance
from subeval.quality import (
    bleu_segment_stats,
    bootstrap_significance,
    corpus_bleu,
    edit_operations,
    wer,
    wer_counts,
    wer_segment_stats,
)


def utts(*lines):
    return parse_marked_text("".join(line + "\n" for line in lines)).utterances


# ---------------------------------------------------------------------------
# WER


def test_wer_identity():
    hyp = utts("hello world <eob>")
    assert wer(hyp, hyp).wer == 0.0


def test_wer_single_substitution():
    ref = utts("hello world how are you <eob>")
    hyp = utts("hello word how are you <eob>")
    result = wer(hyp, ref)
    assert (result.substitutions, result.deletions, result.insertions) == (1, 0, 0)
    assert result.wer == 20.0


def test_wer_single_deletion():
    ref = utts("the cat sat <eob>")
    hyp = utts("cat sat <eob>")
    result = wer(hyp, ref)
    assert result.deletions == 1
    assert round(result.wer, 2) == 33.33


def test_wer_case_and_punctuation_insensitive():
    ref = utts("Hello, World! <eob>")
    hyp = utts("hello world <eob>")
    assert wer(hyp, ref).wer == 0.0


def test_wer_breaks_ignored():
    ref = utts("a b <eol> c <eob>")
    hyp = utts("a <eob> b c <eob>")
    assert wer(hyp, ref).wer == 0.0


def test_wer_empty_corpus():
    with pytest.raises(DataError, match="empty corpus"):
        wer([], [])


def test_wer_count_mismatch():
    with pytest.raises(DataError, match="utterance count mismatch"):
        wer(utts("a <eob>"), utts("a <eob>", "b <eob>"))


def test_wer_invariant_under_permutation(micro_docs):
    hyp = list(micro_docs["captions_hyp"].utterances)
    ref = list(micro_docs["captions_ref"].utterances)
    baseline = wer(hyp, ref).wer
    order = list(range(len(ref)))
    random.Random(3).shuffle(order)
    shuffled = wer([hyp[i] for i in order], [ref[i] for i in order]).wer
    assert shuffled == baseline


def test_edit_operations_ties_prefer_substitutions():
    # "a b" -> "x y" can be done with 2 substitutions or 2 del + 2 ins.
    assert edit_operations(["x", "y"], ["a", "b"]) == (2, 0, 0)


def test_edit_operations_match_oracle_distance():
    rng = random.Random(11)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        ref = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        hyp = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        s, d, i = edit_operations(hyp, ref)
        assert s + d + i == oracles.edit_distance(hyp, ref)


@settings(max_examples=500, deadline=None)
@given(
    hyp=st.lists(st.sampled_from("abc"), max_size=12),
    ref=st.lists(st.sampled_from("abc"), max_size=12),
)
@example(hyp=[], ref=[])
@example(hyp=[], ref=list("aab"))
@example(hyp=list("aab"), ref=[])
def test_edit_operations_match_matrix_oracle(hyp, ref):
    assert edit_operations(hyp, ref) == oracles.edit_operations_matrix(hyp, ref)


@st.composite
def _pairs_sharing_ends(draw):
    """(hyp, ref) over a 1- to 3-letter alphabet, so words repeat, each
    side a common prefix, its own middle and a common suffix; any part
    may be empty."""
    words = st.lists(st.sampled_from(draw(st.sampled_from(["a", "ab", "abc"]))), max_size=8)
    prefix, suffix = draw(words), draw(words)
    return prefix + draw(words) + suffix, prefix + draw(words) + suffix


@settings(max_examples=1000, deadline=None)
@given(pair=_pairs_sharing_ends())
@example(pair=([], []))
@example(pair=(list("aaa"), list("aaa")))
@example(pair=(list("aba"), list("a")))
@example(pair=([], list("ab")))
def test_edit_operations_match_full_dp_oracle(pair):
    hyp, ref = pair
    assert edit_operations(hyp, ref) == oracles.edit_operations_full(hyp, ref)


def _long_pairs():
    """Seeded pairs of 200 to 400 words over three words, so cost ties
    are everywhere, then one pair whose differing middles sit between a
    long common prefix and suffix."""
    rng = random.Random(32)
    for _ in range(4):
        yield tuple(
            [rng.choice("abc") for _ in range(rng.randint(200, 400))] for _ in range(2)
        )
    prefix = [rng.choice("abc") for _ in range(150)]
    suffix = [rng.choice("abc") for _ in range(150)]
    hyp_mid, ref_mid = ([rng.choice("abc") for _ in range(n)] for n in (40, 60))
    yield prefix + hyp_mid + suffix, prefix + ref_mid + suffix


@pytest.mark.parametrize("pair", list(_long_pairs()))
def test_edit_operations_match_matrix_oracle_on_long_pairs(pair):
    hyp, ref = pair
    assert edit_operations(hyp, ref) == oracles.edit_operations_matrix(hyp, ref)


def test_wer_counts_memory_is_linear_in_the_pair():
    # 500 words on each side and none shared: a 501 x 501 DP with
    # nothing to trim.  A kept matrix would hold 251,001 cells.
    (hyp,), (ref,) = (utts(" ".join(f"{side}{k}" for k in range(500))) for side in "hr")
    wer_counts(hyp, ref)  # fills the tokenizer's word memo unmeasured
    tracemalloc.start()
    try:
        counts = wer_counts(hyp, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (500, 0, 0, 500)
    assert peak < 2**20


def test_corpus_wer_matches_oracle(micro_docs, micro_raw):
    result = wer(
        micro_docs["captions_hyp"].utterances, micro_docs["captions_ref"].utterances
    )
    expected = oracles.corpus_wer(micro_raw["captions_hyp"], micro_raw["captions_ref"])
    assert result.wer == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# BLEU


def test_bleu_identity():
    hyp = utts("the quick brown fox jumps over the lazy dog <eob>")
    assert corpus_bleu(hyp, hyp).score == pytest.approx(100.0)


def test_bleu_zero_overlap_smoothed():
    hyp = utts(" ".join(f"h{i}" for i in range(100)))
    ref = utts(" ".join(f"r{i}" for i in range(100)))
    score = corpus_bleu(hyp, ref, keep_breaks=False).score
    assert 0.0 < score < 1.0


def test_bleu_break_as_token_sensitivity():
    ref = utts("a b <eob> c d <eob>")
    hyp_good = utts("a b <eob> c d <eob>")
    hyp_moved = utts("a <eob> b c d <eob>")
    with_breaks = corpus_bleu(hyp_moved, ref).score
    assert with_breaks < corpus_bleu(hyp_good, ref).score
    without_breaks = corpus_bleu(hyp_moved, ref, keep_breaks=False).score
    assert without_breaks == pytest.approx(
        corpus_bleu(hyp_good, ref, keep_breaks=False).score
    )


def test_bleu_brevity_penalty():
    ref = utts("a b c d e f g h")
    hyp = utts("a b c d")
    result = corpus_bleu(hyp, ref, keep_breaks=False)
    assert result.brevity_penalty == pytest.approx(math.exp(1.0 - 8 / 4))


def test_bleu_matches_oracle_on_micro_corpus(micro_raw):
    for keep in (True, False):
        docs_hyp = parse_marked_text(
            "".join(line + "\n" for line in micro_raw["subtitles_hyp"])
        )
        docs_ref = parse_marked_text(
            "".join(line + "\n" for line in micro_raw["subtitles_ref"])
        )
        score = corpus_bleu(docs_hyp.utterances, docs_ref.utterances, keep_breaks=keep).score
        expected = oracles.corpus_bleu(
            micro_raw["subtitles_hyp"], micro_raw["subtitles_ref"], keep_breaks=keep
        )
        assert score == pytest.approx(expected, rel=1e-9)


def test_bleu_invariant_under_permutation(micro_docs):
    hyp = list(micro_docs["subtitles_hyp"].utterances)
    ref = list(micro_docs["subtitles_ref"].utterances)
    baseline = corpus_bleu(hyp, ref).score
    order = list(range(len(ref)))
    random.Random(5).shuffle(order)
    shuffled = corpus_bleu([hyp[i] for i in order], [ref[i] for i in order]).score
    assert shuffled == baseline


def test_bleu_empty_corpus():
    with pytest.raises(DataError, match="empty corpus"):
        corpus_bleu([], [])


# ---------------------------------------------------------------------------
# Bootstrap significance


def test_bootstrap_self_comparison_is_one():
    hyp = utts("a b c <eob>", "d e f <eob>", "g h i <eob>")
    ref = utts("a b c <eob>", "d e x <eob>", "g h i <eob>")
    for metric in ("bleu", "wer"):
        result = bootstrap_significance(hyp, hyp, ref, metric=metric, resamples=200, seed=42)
        assert result.p_value == 1.0


def test_bootstrap_strict_dominance_is_zero():
    ref = utts("a b c d <eob>", "e f g h <eob>", "i j k l <eob>")
    hyp_a = ref
    hyp_b = utts("z z z z <eob>", "z z z z <eob>", "z z z z <eob>")
    for metric in ("bleu", "wer"):
        result = bootstrap_significance(
            hyp_a, hyp_b, ref, metric=metric, resamples=200, seed=42
        )
        assert result.p_value == 0.0
        assert result.better_system == "A"


def test_bootstrap_deterministic_given_seed():
    ref = utts("a b c d <eob>", "e f g h <eob>", "a c e g <eob>", "b d f h <eob>")
    hyp_a = utts("a b c x <eob>", "e f g h <eob>", "a c e g <eob>", "b d f x <eob>")
    hyp_b = utts("a b c d <eob>", "e f x x <eob>", "a x e g <eob>", "b d f h <eob>")
    first = bootstrap_significance(hyp_a, hyp_b, ref, resamples=500, seed=42)
    second = bootstrap_significance(hyp_a, hyp_b, ref, resamples=500, seed=42)
    assert first == second
    other_seed = bootstrap_significance(hyp_a, hyp_b, ref, resamples=500, seed=7)
    assert other_seed.seed == 7


def test_bootstrap_matches_independent_resampler():
    """Replay the same seeded index draws through the oracle BLEU."""
    import numpy as np

    ref_lines = ["a b c d <eob>", "e f g h <eob>", "a c e g <eob>", "b d f h <eob>"]
    hyp_a_lines = ["a b c x <eob>", "e f g h <eob>", "a c e g <eob>", "b d f x <eob>"]
    hyp_b_lines = ["a b x x <eob>", "e f x h <eob>", "a x e g <eob>", "b d f x <eob>"]
    ref = utts(*ref_lines)
    hyp_a = utts(*hyp_a_lines)
    hyp_b = utts(*hyp_b_lines)
    resamples, seed = 300, 42
    result = bootstrap_significance(hyp_a, hyp_b, ref, resamples=resamples, seed=seed)

    full_a = oracles.corpus_bleu(hyp_a_lines, ref_lines)
    full_b = oracles.corpus_bleu(hyp_b_lines, ref_lines)
    better, worse = (hyp_a_lines, hyp_b_lines) if full_a >= full_b else (hyp_b_lines, hyp_a_lines)
    rng = np.random.default_rng(seed)
    n = len(ref_lines)
    wins = 0
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        sample_better = oracles.corpus_bleu([better[i] for i in idx], [ref_lines[i] for i in idx])
        sample_worse = oracles.corpus_bleu([worse[i] for i in idx], [ref_lines[i] for i in idx])
        if sample_worse >= sample_better:
            wins += 1
    assert result.p_value == pytest.approx(wins / resamples)


def test_bootstrap_needs_two_segments():
    one = utts("a b <eob>")
    with pytest.raises(DataError, match="at least 2 segments"):
        bootstrap_significance(one, one, one)


def test_bootstrap_unknown_metric():
    two = utts("a <eob>", "b <eob>")
    with pytest.raises(DataError, match="unknown metric"):
        bootstrap_significance(two, two, two, metric="chrf")


def test_bleu_segment_stats_sum_to_corpus(micro_docs):
    hyp = micro_docs["subtitles_hyp"].utterances
    ref = micro_docs["subtitles_ref"].utterances
    stats = bleu_segment_stats(hyp, ref)
    assert len(stats) == len(ref)
    assert sum(seg[3] for seg in stats) > 0


# ---------------------------------------------------------------------------
# Bootstrap against the numpy-matrix implementation it replaced

_PIECES = [
    "a", "b", "the", "cat", "Cat", "sat", "Hello,", "world!", "1,000", "3.14",
    "x-y", "2-3", "(so)", "&amp;", "&quot;hi&quot;", "<skipped>", "don't", "...", "é",
]


def utterance(uid, pieces):
    """An utterance from text pieces; `<eob>` and `<eol>` start a new
    block or line, so adjacent breaks make empty lines."""
    blocks = [[[]]]
    for piece in pieces:
        if piece == "<eob>":
            blocks.append([[]])
        elif piece == "<eol>":
            blocks[-1].append([])
        else:
            blocks[-1][-1].append(piece)
    return Utterance(
        uid,
        tuple(SubtitleBlock(tuple(" ".join(line) for line in lines)) for lines in blocks),
    )


@st.composite
def _significance_case(draw):
    n = draw(st.integers(2, 30))
    corpus = st.lists(
        st.lists(st.sampled_from(_PIECES + ["<eob>", "<eol>"]), max_size=8), min_size=n, max_size=n
    )
    ref = draw(corpus)
    hyp_a = draw(corpus)
    hyp_b = hyp_a if draw(st.booleans()) else draw(corpus)
    return [[utterance(f"u{i}", pieces) for i, pieces in enumerate(doc)] for doc in (hyp_a, hyp_b, ref)]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"


@settings(max_examples=300, deadline=None)
@given(
    case=_significance_case(),
    metric=st.sampled_from(["bleu", "wer"]),
    keep_breaks=st.booleans(),
    resamples=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_matches_numpy_oracle_exactly(case, metric, keep_breaks, resamples, seed):
    hyp_a, hyp_b, ref = case
    kwargs = dict(metric=metric, resamples=resamples, seed=seed, keep_breaks=keep_breaks)
    got = _outcome(bootstrap_significance, hyp_a, hyp_b, ref, **kwargs)
    want = _outcome(oracles.bootstrap_numpy, hyp_a, hyp_b, ref, **kwargs)
    if isinstance(want, str):
        assert got == want
    else:
        assert (got.p_value, got.delta_mean, got.better_system) == (
            want.p_value, want.delta_mean, want.better_system,
        )
        assert (got.resamples, got.seed) == (want.resamples, want.seed)
    for hyp in (hyp_a, hyp_b):
        assert bleu_segment_stats(hyp, ref, keep_breaks) == oracles.bleu_segment_stats(
            hyp, ref, keep_breaks
        )
        assert wer_segment_stats(hyp, ref) == oracles.wer_segment_stats(hyp, ref)


def test_bootstrap_wer_scores_a_resample_of_empty_references_as_a_tie():
    ref = [utterance(f"u{i}", text.split()) for i, text in enumerate(["a b", "...", "c", "!"])]
    hyp_a = [utterance(f"u{i}", text.split()) for i, text in enumerate(["a b", "x", "c", "y z"])]
    hyp_b = [utterance(f"u{i}", text.split()) for i, text in enumerate(["a", "w", "c d", "v"])]
    # Seed 1 draws a resample of segments 1 and 3 only, whose references
    # are empty after normalization.
    rng = np.random.default_rng(1)
    assert any(set(rng.integers(0, 4, size=4)) <= {1, 3} for _ in range(5))
    got = bootstrap_significance(hyp_a, hyp_b, ref, metric="wer", resamples=5, seed=1)
    want = oracles.bootstrap_numpy(hyp_a, hyp_b, ref, metric="wer", resamples=5, seed=1)
    assert (got.p_value, got.delta_mean, got.better_system) == (
        want.p_value, want.delta_mean, want.better_system,
    )
    assert got.p_value > 0
    empty = [utterance(f"u{i}", ["..."]) for i in range(4)]
    with pytest.raises(DataError, match="reference corpus is empty after normalization"):
        bootstrap_significance(hyp_a, hyp_b, empty, metric="wer", resamples=5, seed=1)


@pytest.mark.parametrize(
    "sizes, metric, resamples, message",
    [
        ((1, 3, 1), "chrf", 0, "need at least 2 segments, got 1"),
        ((2, 3, 2), "chrf", 0, "resamples must be positive"),
        ((2, 3, 2), "chrf", 1, "unknown metric 'chrf'"),
        ((3, 4, 2), "wer", 1, "utterance count mismatch: 3 vs 2"),
        ((2, 4, 3), "bleu", 1, "utterance count mismatch: 2 vs 3"),
        ((2, 3, 2), "bleu", 1, "utterance count mismatch: 3 vs 2"),
        ((2, 1, 2), "wer", 1, "utterance count mismatch: 1 vs 2"),
    ],
)
def test_bootstrap_errors_in_oracle_order(sizes, metric, resamples, message):
    hyp_a, hyp_b, ref = ([utterance(f"u{i}", ["a", "b"]) for i in range(k)] for k in sizes)
    for fn in (bootstrap_significance, oracles.bootstrap_numpy):
        with pytest.raises(DataError) as info:
            fn(hyp_a, hyp_b, ref, metric=metric, resamples=resamples)
        assert str(info.value) == message


def test_bootstrap_wer_warns_for_a_then_b(caplog):
    ref = [utterance(f"u{i}", text.split()) for i, text in enumerate(["a b", "...", "c", "!"])]
    hyp_a = [utterance(f"u{i}", text.split()) for i, text in enumerate(["a b", "x", "c", "y z"])]
    hyp_b = [utterance(f"u{i}", text.split()) for i, text in enumerate(["a", "w", "c d", "v"])]
    outcomes, messages = [], []
    for fn in (bootstrap_significance, oracles.bootstrap_numpy):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            outcomes.append(_outcome(fn, hyp_a, hyp_b, ref, metric="wer", resamples=20, seed=1))
        messages.append([record.getMessage() for record in caplog.records])
    warning = "utterance {}: empty reference after normalization; hypothesis words counted as insertions"
    assert messages[0] == [warning.format(uid) for uid in ("u1", "u3", "u1", "u3")]
    assert messages[1] == messages[0]
    assert outcomes[0] == outcomes[1]
