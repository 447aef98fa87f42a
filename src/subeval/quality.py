"""Transcription and translation quality: WER, corpus BLEU with break
tokens, and pairwise bootstrap significance."""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import DataError
from .model import Utterance, check_count, column_sums, left_sum
from .textproc import Scheme, normalize_for_wer, tokenize

log = logging.getLogger(__name__)

NGRAM_ORDER = 4
_LOG_ZERO = -9999999999.0


class WerCounts(namedtuple("WerCounts", "substitutions deletions insertions reference_length")):
    """The WER counts of an utterance after normalization, or their sums."""

    @property
    def edits(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return 100.0 * self.edits / self.reference_length


# BLEU's sufficient statistics: matched and total n-grams per order, then lengths.
BleuCounts = namedtuple(
    "BleuCounts", "correct1 correct2 correct3 correct4 total1 total2 total3 total4 hyp_len ref_len"
)


@dataclass(frozen=True)
class BleuScore:
    score: float
    brevity_penalty: float


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


def _wer_segment(hyps: Sequence[Utterance], ref: Utterance) -> list[WerCounts]:
    """The `WerCounts` of each hypothesis against one reference, which is
    normalized once."""
    ref_words = _wer_words(ref)
    return [WerCounts(*edit_operations(_wer_words(h), ref_words), len(ref_words)) for h in hyps]


def _warn_empty_reference(edits: int, ref_len: int, ref_id: str) -> None:
    # Against an empty reference every edit is an insertion, so edits
    # mean the hypothesis had words.
    if ref_len == 0 and edits:
        log.warning(
            "utterance %s: empty reference after normalization; "
            "hypothesis words counted as insertions", ref_id,
        )


def wer_counts(hyp: Utterance, ref: Utterance) -> WerCounts:
    """The `WerCounts` of one utterance after WER normalization; warns
    when only the hypothesis has words."""
    (counts,) = _wer_segment((hyp,), ref)
    _warn_empty_reference(counts.edits, counts.reference_length, ref.id)
    return counts


def wer_segment_stats(hyp: Sequence[Utterance], ref: Sequence[Utterance]) -> list[WerCounts]:
    """The `WerCounts` of each utterance after WER normalization."""
    check_count(len(hyp), len(ref))
    return [wer_counts(h, r) for h, r in zip(hyp, ref)]


def wer_from_sums(sums: Sequence[int]) -> WerCounts:
    """The corpus `WerCounts`, whose `wer` is the corpus WER, from the
    column sums of `wer_counts` over one or more utterances."""
    counts = WerCounts._make(sums)
    if counts.reference_length == 0:
        raise DataError("reference corpus is empty after normalization")
    return counts


def wer(hyp: Sequence[Utterance], ref: Sequence[Utterance]) -> WerCounts:
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


def _bleu_segment(hyps: Sequence[Utterance], ref: Utterance, keep_breaks: bool) -> list[BleuCounts]:
    """The `BleuCounts` of each hypothesis against one reference, which is
    tokenized and counted once."""
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
        stats.append(BleuCounts(*correct, *total, len(hyp_words), len(ref_words)))
    return stats


def bleu_counts(hyp: Utterance, ref: Utterance, keep_breaks: bool = True) -> BleuCounts:
    """The `BleuCounts` of one utterance under 13a tokenization."""
    return _bleu_segment((hyp,), ref, keep_breaks)[0]


def bleu_segment_stats(
    hyp: Sequence[Utterance], ref: Sequence[Utterance], keep_breaks: bool = True
) -> list[tuple[list[int], list[int], int, int]]:
    """Per-utterance (correct[4], total[4], hyp_len, ref_len) sufficient
    statistics under 13a tokenization."""
    check_count(len(hyp), len(ref))
    return [
        (list(c[:NGRAM_ORDER]), list(c[NGRAM_ORDER:2 * NGRAM_ORDER]), c.hyp_len, c.ref_len)
        for c in (bleu_counts(h, r, keep_breaks) for h, r in zip(hyp, ref))
    ]


def bleu_from_stats(
    correct: Sequence[int], total: Sequence[int], hyp_len: int, ref_len: int
) -> BleuScore:
    """BLEU with exponential smoothing of zero-match orders, per the
    standard corpus signature (mixed case, 4-gram, exp smoothing)."""
    log_precisions = []
    smooth = 1.0
    for n in range(NGRAM_ORDER):
        if total[n] == 0:
            log_precisions.append(_LOG_ZERO)
            continue
        if correct[n] == 0:
            smooth *= 2.0
            precision = 1.0 / (smooth * total[n])
        else:
            precision = correct[n] / total[n]
        log_precisions.append(math.log(precision))
    if hyp_len == 0:
        brevity_penalty = 0.0
    elif hyp_len < ref_len:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)
    else:
        brevity_penalty = 1.0
    score = 100.0 * brevity_penalty * math.exp(left_sum(log_precisions) / NGRAM_ORDER)
    return BleuScore(score=score, brevity_penalty=brevity_penalty)


def _bleu(c: BleuCounts) -> BleuScore:
    return bleu_from_stats(c[:NGRAM_ORDER], c[NGRAM_ORDER:2 * NGRAM_ORDER], c.hyp_len, c.ref_len)


def bleu_from_sums(sums: Sequence[int]) -> BleuScore:
    """Corpus BLEU from the column sums of `bleu_counts` over one or
    more utterances."""
    counts = BleuCounts._make(sums)
    if counts.hyp_len == 0:
        log.warning("hypothesis corpus is empty; BLEU = 0")
    return _bleu(counts)


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
    one row per segment, A's statistics then B's (its `BleuCounts`, or
    its WER edits and reference length), and under WER the (row, id) of
    each reference that is empty after normalization."""
    flat = array("q")
    empty_refs = []
    for i, (a, b, r) in enumerate(segments):
        if metric == "bleu":
            for stats in _bleu_segment((a, b), r, keep_breaks):
                flat.extend(stats)
        else:
            for counts in _wer_segment((a, b), r):
                flat.extend((counts.edits, counts.reference_length))
            if counts.reference_length == 0:
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
        width = len(BleuCounts._fields)

        def score(sums: list[int]) -> float:
            return _bleu(BleuCounts._make(sums)).score

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
    if metric == "wer" and len(empty_refs) == n:
        raise DataError("reference corpus is empty after normalization")
    full = both.sum(axis=0).tolist()
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
