"""Transcription and translation quality: WER, corpus BLEU with break
tokens, and pairwise bootstrap significance."""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import DataError
from .model import Utterance, check_count, column_sums, left_sum
from .textproc import Scheme, normalize_for_wer, tokenize

log = logging.getLogger(__name__)

NGRAM_ORDER = 4
_LOG_ZERO = -9999999999.0


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    reference_length: int
    wer: float


@dataclass(frozen=True)
class BleuScore:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int


@dataclass(frozen=True)
class SignificanceResult:
    p_value: float
    resamples: int
    delta_mean: float
    seed: int
    better_system: str


def edit_operations(hyp: Sequence[str], ref: Sequence[str]) -> tuple[int, int, int]:
    """Levenshtein operations (S, D, I) turning `ref` into `hyp`, unit
    costs, ties resolved toward substitutions.

    The DP runs only between the common prefix and the common suffix,
    which the full DP's backtrace takes as matches: with equal last
    words a cell equals its diagonal, stripping a common prefix changes
    no cell after it, and from the stripped block's edge only deletions
    or only insertions remain.  So the triple is the full DP's."""
    shorter = min(len(hyp), len(ref))
    start = 0
    while start < shorter and hyp[start] == ref[start]:
        start += 1
    end = 0  # length of the common suffix, which may not overlap the prefix
    while end < shorter - start and hyp[-1 - end] == ref[-1 - end]:
        end += 1
    hyp = hyp[start:len(hyp) - end]
    ref = ref[start:len(ref) - end]
    rows = [list(range(len(hyp) + 1))]
    for i, ref_word in enumerate(ref, 1):
        prev = rows[-1]
        cur = [i]
        for j, hyp_word in enumerate(hyp):
            cost = prev[j]
            if ref_word != hyp_word:
                if prev[j + 1] < cost:
                    cost = prev[j + 1]
                if cur[j] < cost:
                    cost = cur[j]
                cost += 1
            cur.append(cost)
        rows.append(cur)
    subs = dels = ins = 0
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        cost = rows[i][j]
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and cost == rows[i - 1][j - 1]:
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and cost == rows[i - 1][j - 1] + 1:
            subs += 1
            i -= 1
            j -= 1
        elif i > 0 and cost == rows[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels, ins


def _wer_words(utt: Utterance) -> list[str]:
    return normalize_for_wer(tokenize(utt.text(), Scheme.WHITESPACE))


def _wer_segment(hyps: Sequence[Utterance], ref: Utterance) -> list[tuple[int, int, int, int]]:
    """(S, D, I, reference_length) of each hypothesis against one
    reference, which is normalized once."""
    ref_words = _wer_words(ref)
    return [(*edit_operations(_wer_words(h), ref_words), len(ref_words)) for h in hyps]


def _warn_empty_reference(edits: int, ref_len: int, ref_id: str) -> None:
    # Against an empty reference every edit is an insertion, so edits
    # mean the hypothesis had words.
    if ref_len == 0 and edits:
        log.warning(
            "utterance %s: empty reference after normalization; "
            "hypothesis words counted as insertions", ref_id,
        )


def wer_counts(hyp: Utterance, ref: Utterance) -> tuple[int, int, int, int]:
    """(S, D, I, reference_length) of one utterance after WER
    normalization; warns when only the hypothesis has words."""
    ((subs, dels, ins, ref_len),) = _wer_segment((hyp,), ref)
    _warn_empty_reference(subs + dels + ins, ref_len, ref.id)
    return subs, dels, ins, ref_len


def wer_segment_stats(
    hyp: Sequence[Utterance], ref: Sequence[Utterance]
) -> list[tuple[int, int, int, int]]:
    """Per-utterance (S, D, I, reference_length) after WER normalization."""
    check_count(len(hyp), len(ref))
    return [wer_counts(h, r) for h, r in zip(hyp, ref)]


def wer_from_sums(sums: Sequence[int]) -> WerBreakdown:
    """Corpus WER from the column sums of `wer_counts` over one or more
    utterances."""
    subs, dels, ins, ref_len = sums
    if ref_len == 0:
        raise DataError("reference corpus is empty after normalization")
    return WerBreakdown(
        substitutions=subs,
        deletions=dels,
        insertions=ins,
        reference_length=ref_len,
        wer=100.0 * (subs + dels + ins) / ref_len,
    )


def wer(hyp: Sequence[Utterance], ref: Sequence[Utterance]) -> WerBreakdown:
    """Corpus WER on unpunctuated, lowercased text, breaks removed."""
    if not ref:
        raise DataError("empty corpus")
    return wer_from_sums(column_sums(wer_segment_stats(hyp, ref)))


def _bleu_tokens(utt: Utterance, keep_breaks: bool) -> list[str]:
    tokens = tokenize(utt.text(), Scheme.INTL13A)
    if keep_breaks:
        return list(tokens.tokens)
    return tokens.words()


def _ngram_counts(words: Sequence[str]) -> Counter:
    """Counts of every 1- to 4-gram, keyed by tuple: a key's length is
    its order."""
    return Counter(
        chain.from_iterable(
            zip(*(words[i:] for i in range(n))) for n in range(1, NGRAM_ORDER + 1)
        )
    )


def _bleu_segment(
    hyps: Sequence[Utterance], ref: Utterance, keep_breaks: bool
) -> list[tuple[int, ...]]:
    """(correct 1..4, total 1..4, hyp_len, ref_len) of each hypothesis
    against one reference, which is tokenized and counted once."""
    ref_words = _bleu_tokens(ref, keep_breaks)
    ref_counts = _ngram_counts(ref_words)
    stats = []
    for hyp in hyps:
        hyp_words = _bleu_tokens(hyp, keep_breaks)
        hyp_counts = _ngram_counts(hyp_words)
        correct = [0] * NGRAM_ORDER
        for gram, count in hyp_counts.items():
            ref_count = ref_counts.get(gram)
            if ref_count:
                correct[len(gram) - 1] += count if count < ref_count else ref_count
        total = [max(len(hyp_words) - n, 0) for n in range(NGRAM_ORDER)]
        stats.append((*correct, *total, len(hyp_words), len(ref_words)))
    return stats


def bleu_counts(hyp: Utterance, ref: Utterance, keep_breaks: bool = True) -> tuple[int, ...]:
    """(correct 1..4, total 1..4, hyp_len, ref_len) of one utterance
    under 13a tokenization: BLEU's sufficient statistics."""
    return _bleu_segment((hyp,), ref, keep_breaks)[0]


def bleu_segment_stats(
    hyp: Sequence[Utterance], ref: Sequence[Utterance], keep_breaks: bool = True
) -> list[tuple[list[int], list[int], int, int]]:
    """Per-utterance (correct[4], total[4], hyp_len, ref_len) sufficient
    statistics under 13a tokenization."""
    check_count(len(hyp), len(ref))
    return [
        (list(stats[:4]), list(stats[4:8]), stats[8], stats[9])
        for stats in (bleu_counts(h, r, keep_breaks) for h, r in zip(hyp, ref))
    ]


def bleu_from_stats(
    correct: Sequence[int], total: Sequence[int], hyp_len: int, ref_len: int
) -> BleuScore:
    """BLEU with exponential smoothing of zero-match orders, per the
    standard corpus signature (mixed case, 4-gram, exp smoothing)."""
    precisions = [0.0] * NGRAM_ORDER
    log_precisions = []
    smooth = 1.0
    for n in range(NGRAM_ORDER):
        if total[n] == 0:
            log_precisions.append(_LOG_ZERO)
            continue
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 1.0 / (smooth * total[n])
        else:
            precisions[n] = correct[n] / total[n]
        log_precisions.append(math.log(precisions[n]))
    if hyp_len == 0:
        brevity_penalty = 0.0
    elif hyp_len < ref_len:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)
    else:
        brevity_penalty = 1.0
    score = 100.0 * brevity_penalty * math.exp(left_sum(log_precisions) / NGRAM_ORDER)
    return BleuScore(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity_penalty,
        hyp_length=hyp_len,
        ref_length=ref_len,
    )


def bleu_from_sums(sums: Sequence[int]) -> BleuScore:
    """Corpus BLEU from the column sums of `bleu_counts` over one or
    more utterances."""
    if sums[8] == 0:
        log.warning("hypothesis corpus is empty; BLEU = 0")
    return bleu_from_stats(sums[:4], sums[4:8], sums[8], sums[9])


def corpus_bleu(
    hyp: Sequence[Utterance], ref: Sequence[Utterance], keep_breaks: bool = True
) -> BleuScore:
    if not ref:
        raise DataError("empty corpus")
    check_count(len(hyp), len(ref))
    counts = (bleu_counts(h, r, keep_breaks) for h, r in zip(hyp, ref))
    return bleu_from_sums(column_sums(counts))


def bootstrap_significance(
    hyp_a: Sequence[Utterance],
    hyp_b: Sequence[Utterance],
    ref: Sequence[Utterance],
    metric: str = "bleu",
    resamples: int = 1000,
    seed: int = 0,
    keep_breaks: bool = True,
) -> SignificanceResult:
    """Pairwise bootstrap resampling over test segments.

    The better system on the full set is identified first; the p-value
    is the fraction of resamples on which the other system scores at
    least as well (ties count against significance).  Under WER a
    resample whose references are all empty after normalization is a
    tie; an empty reference corpus is an error.
    """
    n = len(ref)
    if n < 2:
        raise DataError(f"need at least 2 segments, got {n}")
    if resamples < 1:
        raise DataError("resamples must be positive")
    if metric not in ("bleu", "wer"):
        raise DataError(f"unknown metric {metric!r}")
    check_count(len(hyp_a), n)
    check_count(len(hyp_b), n)
    stats = significance_rows(zip(hyp_a, hyp_b, ref), metric, keep_breaks)
    return significance_from_rows(stats, metric, resamples, seed)


def significance_rows(
    segments: Iterable[Sequence[Utterance]], metric: str, keep_breaks: bool = True
) -> tuple[array, list[tuple[int, str]]]:
    """The statistics of (hypothesis A, hypothesis B, reference) segments,
    each scored as it is read and then dropped: an int64 array holding
    one row per segment, A's statistics then B's, and under WER the
    (row, id) of each reference that is empty after normalization."""
    flat = array("q")
    empty_refs = []
    for i, (a, b, r) in enumerate(segments):
        if metric == "bleu":
            for stats in _bleu_segment((a, b), r, keep_breaks):
                flat.extend(stats)
        else:
            for s, d, ins, ref_len in _wer_segment((a, b), r):
                flat.extend((s + d + ins, ref_len))
            if ref_len == 0:
                empty_refs.append((i, r.id))
    return flat, empty_refs


def significance_from_rows(
    stats: tuple[array, Sequence[tuple[int, str]]], metric: str, resamples: int, seed: int
) -> SignificanceResult:
    """`bootstrap_significance` on what `significance_rows` returned for
    at least 2 segments."""
    import numpy as np  # here only, so scoring without resampling never loads it

    # WER is negated so that higher is better for both metrics.  Negation
    # is exact, so every comparison and difference below is unchanged.
    if metric == "bleu":
        width = 2 * NGRAM_ORDER + 2

        def score(sums: list[int]) -> float:
            return bleu_from_stats(sums[:4], sums[4:8], sums[8], sums[9]).score

    else:
        width = 2

        def score(sums: list[int]) -> float:
            # Both systems share the reference, so a resample of empty
            # references scores 0 for each: a tie.
            edits, total_ref = sums
            return -100.0 * edits / total_ref if total_ref else 0.0

    flat, empty_refs = stats
    both = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2 * width)
    n = len(both)
    for column in (0, width):
        for i, ref_id in empty_refs:
            _warn_empty_reference(both[i, column], 0, ref_id)
    full = both.sum(axis=0).tolist()
    if metric == "wer" and full[1] == 0:
        raise DataError("reference corpus is empty after normalization")
    a_is_better = score(full[:width]) >= score(full[width:])
    # Better system first, one row per statistic, in one copy.  Integer sums
    # are exact, so a resample's sums do not depend on the order of addition.
    order = np.roll(np.arange(2 * width), 0 if a_is_better else width)
    both = np.ascontiguousarray(both.T[order])

    rng = np.random.default_rng(seed)
    wins_against = 0
    delta_sum = 0.0
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        sums = (both @ np.bincount(idx, minlength=n)).tolist()
        better_score = score(sums[:width])
        worse_score = score(sums[width:])
        if worse_score >= better_score:
            wins_against += 1
        delta_sum += better_score - worse_score
    return SignificanceResult(
        p_value=wins_against / resamples,
        resamples=resamples,
        delta_mean=delta_sum / resamples,
        seed=seed,
        better_system="A" if a_is_better else "B",
    )
