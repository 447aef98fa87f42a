"""Transcription and translation quality: WER, corpus BLEU with break
tokens, and pairwise bootstrap significance."""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .model import Utterance
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
    costs, ties resolved toward substitutions."""
    n, m = len(ref), len(hyp)
    dp = np.zeros((n + 1, m + 1), dtype=np.int32)
    dp[:, 0] = np.arange(n + 1)
    dp[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        prev = dp[i - 1]
        cur = dp[i]
        ref_word = ref[i - 1]
        for j in range(1, m + 1):
            if ref_word == hyp[j - 1]:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j - 1], prev[j], cur[j - 1])
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dp[i][j] == dp[i - 1][j - 1]:
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + 1:
            subs += 1
            i -= 1
            j -= 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, dels, ins


def _wer_words(utt: Utterance) -> list[str]:
    return normalize_for_wer(tokenize(utt.text(), Scheme.WHITESPACE))


def wer_segment_stats(
    hyp: Sequence[Utterance], ref: Sequence[Utterance]
) -> list[tuple[int, int, int, int]]:
    """Per-utterance (S, D, I, reference_length) after WER normalization."""
    if len(hyp) != len(ref):
        raise DataError(f"utterance count mismatch: {len(hyp)} vs {len(ref)}")
    stats = []
    for h, r in zip(hyp, ref):
        hyp_words = _wer_words(h)
        ref_words = _wer_words(r)
        if not ref_words and hyp_words:
            log.warning(
                "utterance %s: empty reference after normalization; "
                "hypothesis words counted as insertions", r.id,
            )
        s, d, i = edit_operations(hyp_words, ref_words)
        stats.append((s, d, i, len(ref_words)))
    return stats


def wer(hyp: Sequence[Utterance], ref: Sequence[Utterance]) -> WerBreakdown:
    """Corpus WER on unpunctuated, lowercased text, breaks removed."""
    if not ref:
        raise DataError("empty corpus")
    stats = wer_segment_stats(hyp, ref)
    subs = sum(s for s, _, _, _ in stats)
    dels = sum(d for _, d, _, _ in stats)
    ins = sum(i for _, _, i, _ in stats)
    ref_len = sum(n for _, _, _, n in stats)
    if ref_len == 0:
        raise DataError("reference corpus is empty after normalization")
    return WerBreakdown(
        substitutions=subs,
        deletions=dels,
        insertions=ins,
        reference_length=ref_len,
        wer=100.0 * (subs + dels + ins) / ref_len,
    )


def _bleu_tokens(utt: Utterance, keep_breaks: bool) -> list[str]:
    tokens = tokenize(utt.text(), Scheme.INTL13A)
    if keep_breaks:
        return list(tokens.tokens)
    return tokens.words()


def _ngram_counts(words: Sequence[str]) -> list[Counter]:
    counts = []
    for n in range(1, NGRAM_ORDER + 1):
        counts.append(
            Counter(tuple(words[i : i + n]) for i in range(len(words) - n + 1))
        )
    return counts


def bleu_segment_stats(
    hyp: Sequence[Utterance], ref: Sequence[Utterance], keep_breaks: bool = True
) -> list[tuple[list[int], list[int], int, int]]:
    """Per-utterance (correct[4], total[4], hyp_len, ref_len) sufficient
    statistics under 13a tokenization."""
    if len(hyp) != len(ref):
        raise DataError(f"utterance count mismatch: {len(hyp)} vs {len(ref)}")
    stats = []
    for h, r in zip(hyp, ref):
        hyp_words = _bleu_tokens(h, keep_breaks)
        ref_words = _bleu_tokens(r, keep_breaks)
        hyp_ngrams = _ngram_counts(hyp_words)
        ref_ngrams = _ngram_counts(ref_words)
        correct = []
        total = []
        for n in range(NGRAM_ORDER):
            matched = sum(
                min(count, ref_ngrams[n][gram])
                for gram, count in hyp_ngrams[n].items()
            )
            correct.append(matched)
            total.append(sum(hyp_ngrams[n].values()))
        stats.append((correct, total, len(hyp_words), len(ref_words)))
    return stats


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
    score = 100.0 * brevity_penalty * math.exp(sum(log_precisions) / NGRAM_ORDER)
    return BleuScore(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity_penalty,
        hyp_length=hyp_len,
        ref_length=ref_len,
    )


def corpus_bleu(
    hyp: Sequence[Utterance], ref: Sequence[Utterance], keep_breaks: bool = True
) -> BleuScore:
    if not ref:
        raise DataError("empty corpus")
    stats = bleu_segment_stats(hyp, ref, keep_breaks=keep_breaks)
    correct = [sum(seg[0][n] for seg in stats) for n in range(NGRAM_ORDER)]
    total = [sum(seg[1][n] for seg in stats) for n in range(NGRAM_ORDER)]
    hyp_len = sum(seg[2] for seg in stats)
    ref_len = sum(seg[3] for seg in stats)
    if hyp_len == 0:
        log.warning("hypothesis corpus is empty; BLEU = 0")
    return bleu_from_stats(correct, total, hyp_len, ref_len)


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
    least as well (ties count against significance).
    """
    n = len(ref)
    if n < 2:
        raise DataError(f"need at least 2 segments, got {n}")
    if resamples < 1:
        raise DataError("resamples must be positive")
    if metric == "bleu":
        stats_a = bleu_segment_stats(hyp_a, ref, keep_breaks=keep_breaks)
        stats_b = bleu_segment_stats(hyp_b, ref, keep_breaks=keep_breaks)

        def pack(stats):
            correct = np.array([seg[0] for seg in stats], dtype=np.int64)
            total = np.array([seg[1] for seg in stats], dtype=np.int64)
            hyp_len = np.array([seg[2] for seg in stats], dtype=np.int64)
            ref_len = np.array([seg[3] for seg in stats], dtype=np.int64)
            return correct, total, hyp_len, ref_len

        arrays_a = pack(stats_a)
        arrays_b = pack(stats_b)

        def score(arrays, idx) -> float:
            correct, total, hyp_len, ref_len = arrays
            return bleu_from_stats(
                list(correct[idx].sum(axis=0)),
                list(total[idx].sum(axis=0)),
                int(hyp_len[idx].sum()),
                int(ref_len[idx].sum()),
            ).score

        higher_is_better = True
    elif metric == "wer":
        stats_a = wer_segment_stats(hyp_a, ref)
        stats_b = wer_segment_stats(hyp_b, ref)

        def pack(stats):
            edits = np.array([s + d + i for s, d, i, _ in stats], dtype=np.int64)
            ref_len = np.array([n_ref for _, _, _, n_ref in stats], dtype=np.int64)
            return edits, ref_len

        arrays_a = pack(stats_a)
        arrays_b = pack(stats_b)

        def score(arrays, idx) -> float:
            edits, ref_len = arrays
            total_ref = ref_len[idx].sum()
            if total_ref == 0:
                raise DataError("resample has empty reference")
            return 100.0 * edits[idx].sum() / total_ref

        higher_is_better = False
    else:
        raise DataError(f"unknown metric {metric!r}")

    full_idx = np.arange(n)
    full_a = score(arrays_a, full_idx)
    full_b = score(arrays_b, full_idx)
    if higher_is_better:
        a_is_better = full_a >= full_b
    else:
        a_is_better = full_a <= full_b
    better = (arrays_a, "A") if a_is_better else (arrays_b, "B")
    worse = (arrays_b, "B") if a_is_better else (arrays_a, "A")

    rng = np.random.default_rng(seed)
    wins_against = 0
    delta_sum = 0.0
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        better_score = score(better[0], idx)
        worse_score = score(worse[0], idx)
        if higher_is_better:
            if worse_score >= better_score:
                wins_against += 1
            delta_sum += better_score - worse_score
        else:
            if worse_score <= better_score:
                wins_against += 1
            delta_sum += worse_score - better_score
    return SignificanceResult(
        p_value=wins_against / resamples,
        resamples=resamples,
        delta_mean=delta_sum / resamples,
        seed=seed,
        better_system=better[1],
    )
