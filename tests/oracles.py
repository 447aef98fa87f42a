"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's code paths: they parse the raw
marked-text lines themselves, count n-grams over string slices, run the
edit-distance recursion with a memo table, and re-run EM with plain
tuple-keyed dictionaries.  The exceptions are implementations the
library replaced, kept as its bit-exact references: the EM loop trainer
(dict of dicts), the regex 13a tokenizer, span-at-a-time tokenization,
the numpy-matrix and the untrimmed edit distance, segment statistics and bootstrap, the
per-break segmentation scan, the per-field report writers, the checked
document model and its parsers, and the dict-of-links lexical
consistency scorer.
"""

from __future__ import annotations

import json
import logging
import math
import re
import sys
import unicodedata
from collections import Counter, defaultdict
from enum import Enum
from functools import lru_cache
from typing import Any, Optional, Sequence

import numpy as np

from subeval.align import (
    NULL_WORD,
    BitextPair,
    SentenceAlignment,
    TranslationModel,
)
from subeval.conformity import BreakSelection
from subeval.errors import DataError
from subeval.model import BREAKS, EOB, EOL, Utterance
from subeval.quality import NGRAM_ORDER, SignificanceResult, bleu_from_stats
from subeval.report import EvaluationReport
from subeval import textproc
from subeval.textproc import (
    Scheme,
    TaggedUtterance,
    TokenizedUtterance,
    WordClass,
    classify_chunk_chink,
    normalize_for_wer,
    tokenize,
)


# ---------------------------------------------------------------------------
# Raw marked-text handling (independent mini-parser)


def split_blocks(line: str) -> list[str]:
    parts = [p.strip() for p in line.split("<eob>")]
    if parts and parts[-1] == "":
        parts.pop()
    return parts


def split_lines(block: str) -> list[str]:
    return [p.strip() for p in block.split("<eol>")]


def utterance_lines(line: str) -> list[str]:
    return [text for block in split_blocks(line) for text in split_lines(block)]


def char_count(text: str) -> int:
    return len(text.strip())


# ---------------------------------------------------------------------------
# Edit distance (memoized recursion)


def edit_distance(hyp: tuple, ref: tuple) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        if ref[i] == hyp[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j + 1), go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def wer_normalize(line: str) -> list[str]:
    words = []
    for raw in line.split():
        if raw in ("<eob>", "<eol>"):
            continue
        word = raw.strip("".join(c for c in raw if unicodedata.category(c).startswith("P")))
        # strip() above removes the punctuation characters from both edges
        if word:
            words.append(word.lower())
    return words


def corpus_wer(hyp_lines: list[str], ref_lines: list[str]) -> float:
    edits = 0
    ref_len = 0
    for h, r in zip(hyp_lines, ref_lines):
        hyp_words = tuple(wer_normalize(h))
        ref_words = tuple(wer_normalize(r))
        edits += edit_distance(hyp_words, ref_words)
        ref_len += len(ref_words)
    return 100.0 * edits / ref_len


# ---------------------------------------------------------------------------
# BLEU (character-scan 13a, string-slice n-grams, NIST exp smoothing)

_ALWAYS_SPLIT = set()
for lo, hi in [("{", "~"), ("[", "`"), (" ", "&"), ("(", "+"), (":", "@")]:
    for code in range(ord(lo), ord(hi) + 1):
        _ALWAYS_SPLIT.add(chr(code))
_ALWAYS_SPLIT.add("/")
_ALWAYS_SPLIT.discard(" ")


def tok13a(line: str) -> list[str]:
    chars = list(line)
    out = []
    for idx, c in enumerate(chars):
        prev = chars[idx - 1] if idx > 0 else " "
        nxt = chars[idx + 1] if idx + 1 < len(chars) else " "
        if c in _ALWAYS_SPLIT:
            out.append(f" {c} ")
        elif c in ".,":
            if prev.isdigit() and nxt.isdigit():
                out.append(c)
            else:
                out.append(f" {c} ")
        elif c == "-" and prev.isdigit():
            out.append(" - ")
        else:
            out.append(c)
    return "".join(out).split()


def bleu_tokens(line: str, keep_breaks: bool = True) -> list[str]:
    tokens = []
    for piece in re.split(r"(<eob>|<eol>)", line):
        if piece in ("<eob>", "<eol>"):
            if keep_breaks:
                tokens.append(piece)
        else:
            tokens.extend(tok13a(piece))
    return tokens


def _grams(tokens: list[str], n: int) -> dict:
    counts = defaultdict(int)
    for i in range(len(tokens) - n + 1):
        counts["\x00".join(tokens[i : i + n])] += 1
    return counts


def corpus_bleu(hyp_lines: list[str], ref_lines: list[str], keep_breaks: bool = True) -> float:
    correct = [0] * 4
    total = [0] * 4
    hyp_len = 0
    ref_len = 0
    for h, r in zip(hyp_lines, ref_lines):
        hyp_toks = bleu_tokens(h, keep_breaks)
        ref_toks = bleu_tokens(r, keep_breaks)
        hyp_len += len(hyp_toks)
        ref_len += len(ref_toks)
        for n in range(1, 5):
            hyp_grams = _grams(hyp_toks, n)
            ref_grams = _grams(ref_toks, n)
            for gram, count in hyp_grams.items():
                total[n - 1] += count
                correct[n - 1] += min(count, ref_grams.get(gram, 0))
    log_sum = 0.0
    smooth = 1.0
    for n in range(4):
        if total[n] == 0:
            log_sum += -9999999999.0
            continue
        if correct[n] == 0:
            smooth *= 2.0
            log_sum += math.log(1.0 / (smooth * total[n]))
        else:
            log_sum += math.log(correct[n] / total[n])
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len < ref_len:
        bp = math.exp(1.0 - ref_len / hyp_len)
    else:
        bp = 1.0
    return 100.0 * bp * math.exp(log_sum / 4.0)


# ---------------------------------------------------------------------------
# MT tokenization (one character class over every code point)


@lru_cache(maxsize=1)
def mt_detachable_re() -> re.Pattern:
    """Every P*/S* code point except . , ' ’ as one regex class."""
    chars = []
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        if ch in ".,'’":
            continue
        if unicodedata.category(ch).startswith(("P", "S")):
            chars.append(ch)
    return re.compile("([" + re.escape("".join(chars)) + "])")


def mt_tokens(line: str, lang: str) -> list[str]:
    tokens = []
    for piece in re.split(r"(<eob>|<eol>)", line):
        if piece in ("<eob>", "<eol>"):
            tokens.append(piece)
            continue
        norm = mt_detachable_re().sub(r" \1 ", f" {piece} ")
        norm = re.sub(r"([^0-9])([\.,])", r"\1 \2 ", norm)
        norm = re.sub(r"([\.,])([^0-9])", r" \1 \2", norm)
        if lang.startswith(("fr", "it")):
            norm = re.sub(r"(\w)(['’])(\w)", r"\1\2 \3", norm)
        else:
            norm = re.sub(r"(\w)(['’])(\w)", r"\1 \2\3", norm)
        tokens.extend(norm.split())
    return tokens


# ---------------------------------------------------------------------------
# EM alignment (tuple-keyed dictionaries, explicit loops)


def em_train(
    corpus: list[tuple[tuple[str, ...], tuple[str, ...]]],
    iterations: int,
    p0: float = 0.08,
    diagonal: bool = False,
    tension: float = 4.0,
) -> dict:
    """Returns t[(src, tgt)] after EM; tension held fixed."""
    cooc = defaultdict(set)
    for src, tgt in corpus:
        for t_word in tgt:
            cooc[None].add(t_word)
            for s_word in src:
                cooc[s_word].add(t_word)
    t = {}
    for s_word, targets in cooc.items():
        for t_word in targets:
            t[(s_word, t_word)] = 1.0 / len(targets)

    for _ in range(iterations):
        counts = defaultdict(float)
        for src, tgt in corpus:
            m, n = len(src), len(tgt)
            for j, t_word in enumerate(tgt):
                if diagonal:
                    raw = [math.exp(-tension * abs((i + 1) / m - (j + 1) / n)) for i in range(m)]
                    z = sum(raw)
                    prior = [(1.0 - p0) * w / z for w in raw]
                else:
                    prior = [(1.0 - p0) / m] * m
                scores = {None: p0 * t[(None, t_word)]}
                for i, s_word in enumerate(src):
                    scores[(i, s_word)] = prior[i] * t[(s_word, t_word)]
                denom = sum(scores.values())
                for key, score in scores.items():
                    s_word = key if key is None else key[1]
                    counts[(s_word, t_word)] += score / denom
        row_totals = defaultdict(float)
        for (s_word, _), c in counts.items():
            row_totals[s_word] += c
        t = {
            key: c / row_totals[key[0]]
            for key, c in counts.items()
            if row_totals[key[0]] > 0
        }
    return t


# ---------------------------------------------------------------------------
# EM alignment as the dict-of-dicts loop trainer computed it
#
# `em_train_loop` and `viterbi_loop` are the loop implementation that
# `subeval.align` vectorised, kept as the bit-exact reference: the
# vectorised trainer must give `==` tables, tension and log-likelihoods.
# The one edit to the copied code is that every built-in `sum` over
# floats is spelled `_left_sum`, the plain left-to-right addition that
# `sum` performs up to CPython 3.11 (3.12 made it compensated), so the
# reference means the same on every supported Python.


def _left_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def _diagonal_weights(j: int, n: int, m: int, tension: float) -> list[float]:
    # 1-based position ratios, as in the reparameterized model.
    weights = [
        math.exp(-tension * abs((i + 1) / m - (j + 1) / n)) for i in range(m)
    ]
    z = _left_sum(weights)
    return [w / z for w in weights]


def _log_likelihood_and_counts(
    corpus: Sequence[BitextPair],
    model: TranslationModel,
) -> tuple[float, dict[str, dict[str, float]], float]:
    """One E-step: returns (log-likelihood, expected counts, tension
    gradient per target token)."""
    counts: dict[str, dict[str, float]] = {}
    log_likelihood = 0.0
    grad = 0.0
    n_target_tokens = 0
    for pair in corpus:
        m, n = len(pair.source), len(pair.target)
        n_target_tokens += n
        for j, tgt in enumerate(pair.target):
            if model.use_diagonal_prior:
                weights = _diagonal_weights(j, n, m, model.tension)
            else:
                weights = [1.0 / m] * m
            scores = [model.null_prob * model.prob(tgt, NULL_WORD)]
            for i, src in enumerate(pair.source):
                scores.append(
                    (1.0 - model.null_prob) * weights[i] * model.prob(tgt, src)
                )
            z = _left_sum(scores)
            log_likelihood += math.log(z)
            posterior = [s / z for s in scores]
            counts.setdefault(NULL_WORD, {}).setdefault(tgt, 0.0)
            counts[NULL_WORD][tgt] += posterior[0]
            for i, src in enumerate(pair.source):
                counts.setdefault(src, {}).setdefault(tgt, 0.0)
                counts[src][tgt] += posterior[i + 1]
            if model.use_diagonal_prior:
                h = [-abs((i + 1) / m - (j + 1) / n) for i in range(m)]
                expected_h = _left_sum(w * hi for w, hi in zip(weights, h))
                grad += _left_sum(
                    posterior[i + 1] * (h[i] - expected_h) for i in range(m)
                )
    return log_likelihood, counts, grad / n_target_tokens


def _normalize_counts(counts: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    table = {}
    for src, row in counts.items():
        total = _left_sum(row.values())
        if total == 0.0:
            # NULL gets no mass when p0 = 0; leave the row out entirely.
            continue
        table[src] = {tgt: c / total for tgt, c in row.items()}
    return table


def _uniform_init(corpus: Sequence[BitextPair]) -> dict[str, dict[str, float]]:
    cooc: dict[str, set[str]] = {NULL_WORD: set()}
    for pair in corpus:
        cooc[NULL_WORD].update(pair.target)
        for src in pair.source:
            cooc.setdefault(src, set()).update(pair.target)
    return {
        src: {tgt: 1.0 / len(targets) for tgt in sorted(targets)}
        for src, targets in cooc.items()
    }


def em_train_loop(
    corpus: Sequence[BitextPair],
    iterations: int = 5,
    use_diagonal_prior: bool = True,
    p0: float = 0.08,
    initial_tension: float = 4.0,
    update_tension: bool = True,
    log_likelihoods: Optional[list[float]] = None,
) -> TranslationModel:
    """EM training.  `log_likelihoods` (if given) collects the corpus
    log-likelihood observed at the start of each iteration."""
    if not corpus:
        raise DataError("empty corpus")
    if not (0.0 <= p0 < 1.0):
        raise DataError("p0 must be in [0, 1)")
    model = TranslationModel(
        table=_uniform_init(corpus),
        tension=initial_tension,
        null_prob=p0,
        use_diagonal_prior=use_diagonal_prior,
    )
    for _ in range(iterations):
        ll, counts, grad = _log_likelihood_and_counts(corpus, model)
        if log_likelihoods is not None:
            log_likelihoods.append(ll)
        model.table = _normalize_counts(counts)
        if use_diagonal_prior and update_tension:
            model.tension = min(14.0, max(0.1, model.tension + grad))
    return model


def viterbi_loop(model: TranslationModel, pair: BitextPair) -> SentenceAlignment:
    """Best source link (or NULL, omitted) per target word; ties go to
    the smaller source index, NULL wins only strictly."""
    m, n = len(pair.source), len(pair.target)
    links = set()
    for j, tgt in enumerate(pair.target):
        if model.use_diagonal_prior:
            weights = _diagonal_weights(j, n, m, model.tension)
        else:
            weights = [1.0 / m] * m
        null_score = model.null_prob * model.prob(tgt, NULL_WORD)
        best_i = None
        best_score = -1.0
        for i, src in enumerate(pair.source):
            score = (1.0 - model.null_prob) * weights[i] * model.prob(tgt, src)
            if score > best_score:
                best_score = score
                best_i = i
        if null_score > best_score:
            continue
        links.add((best_i, j))
    return SentenceAlignment(frozenset(links))


# ---------------------------------------------------------------------------
# Consistency metrics over raw lines + pharaoh strings


def pharaoh_links(line: str) -> set[tuple[int, int]]:
    links = set()
    for token in line.split():
        i, j = token.split("-")
        links.add((int(i), int(j)))
    return links


def directional_lexical(
    own_blocks: list[int], other_blocks: list[int], links: set[tuple[int, int]]
) -> float:
    """own_blocks/other_blocks: block index per token; links: own->other."""
    by_own = defaultdict(set)
    for i, j in links:
        by_own[i].add(j)
    consistent = 0
    for i, block in enumerate(own_blocks):
        if any(other_blocks[j] == block for j in by_own.get(i, ())):
            consistent += 1
    return consistent / len(own_blocks)


# ---------------------------------------------------------------------------
# 13a tokenization (the regex form the library replaced)
#
# The library pads 13a punctuation with one `str.translate` table; this
# is the regex it replaced, kept as its reference, with the span
# tokenizer that used it.

_13A_PUNCT_RE = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_13A_DOT_COMMA_LEFT_RE = re.compile(r"([^0-9])([\.,])")
_13A_DOT_COMMA_RIGHT_RE = re.compile(r"([\.,])([^0-9])")
_13A_DIGIT_DASH_RE = re.compile(r"([0-9])(-)")


def _tokenize_13a_span(span: str) -> list[str]:
    norm = span
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")
    norm = f" {norm} "
    norm = _13A_PUNCT_RE.sub(r" \1 ", norm)
    norm = _13A_DOT_COMMA_LEFT_RE.sub(r"\1 \2 ", norm)
    norm = _13A_DOT_COMMA_RIGHT_RE.sub(r" \1 \2", norm)
    norm = _13A_DIGIT_DASH_RE.sub(r"\1 \2 ", norm)
    return norm.split()


# ---------------------------------------------------------------------------
# Span-at-a-time tokenization (the form the library replaced)
#
# Copied verbatim from the library before it tokenized word by word
# through its word memos, with the span rules it calls qualified as
# `textproc.` names; `tokenize` is renamed `tokenize_spans` and
# `normalize_for_wer` is renamed `normalize_for_wer_spans`.  The library
# must give `==` results.


def tokenize_spans(text: str, scheme: Scheme, lang: str = "en") -> TokenizedUtterance:
    """Tokenize one utterance.  Break tokens are isolated in every scheme."""
    tokens: list[str] = []
    for part in textproc._BREAK_SPLIT_RE.split(text):
        if part in BREAKS:
            tokens.append(part)
            continue
        if not part.strip():
            continue
        if scheme is Scheme.WHITESPACE:
            surfaces = part.split()
        elif scheme is Scheme.INTL13A:
            surfaces = textproc._tokenize_13a_span(part)
        else:
            surfaces = textproc._tokenize_mt_span(part, lang)
        tokens.extend(surfaces)
    return TokenizedUtterance(tuple(tokens))


def normalize_for_wer_spans(tokens: TokenizedUtterance) -> list[str]:
    """Lowercased, unpunctuated word sequence for WER scoring."""
    out = []
    for token in tokens.words():
        word = textproc._strip_edge_punct(token)
        if not word:
            continue
        out.append(word.lower())
    return out


# ---------------------------------------------------------------------------
# Segment statistics and bootstrap significance (the numpy-matrix forms
# the library replaced)
#
# Copied verbatim from the library before it scored each reference once
# per pair of systems, ran edit distance over Python lists and resampled
# with count vectors; only `edit_operations` is renamed
# `edit_operations_matrix` and `bootstrap_significance` is renamed
# `bootstrap_numpy`.  The library must give `==` results.  Both later
# took the same tie rule: a WER resample that draws only empty
# references scores as a tie instead of aborting the test.

log = logging.getLogger(__name__)


def edit_operations_matrix(hyp: Sequence[str], ref: Sequence[str]) -> tuple[int, int, int]:
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
        s, d, i = edit_operations_matrix(hyp_words, ref_words)
        stats.append((s, d, i, len(ref_words)))
    return stats


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


def bootstrap_numpy(
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
                return 0.0  # the same for both systems: a tie
            return 100.0 * edits[idx].sum() / total_ref

        higher_is_better = False
    else:
        raise DataError(f"unknown metric {metric!r}")

    full_idx = np.arange(n)
    if metric == "wer" and arrays_a[1].sum() == 0:
        raise DataError("reference corpus is empty after normalization")
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


# ---------------------------------------------------------------------------
# Segmentation plausibility (the break walk the library replaced)
#
# The library judges each run of selected breaks in one pass per
# utterance; this is the per-break back/forward scan it replaced, with
# the `direction` option it dropped, kept as its reference.

class BreakDirection(Enum):
    CONTENT_THEN_FUNCTION = "content-then-function"
    EITHER_ORDER = "either-order"


# The break tokens each selection counts.
_SELECTED_BREAKS: dict[BreakSelection, frozenset[str]] = {
    BreakSelection.EOL: frozenset({EOL}),
    BreakSelection.EOB: frozenset({EOB}),
    BreakSelection.BOTH: BREAKS,
}


def segmentation_plausibility(
    tagged: Sequence[TaggedUtterance],
    include_trailing_eob: bool = True,
    direction: BreakDirection = BreakDirection.CONTENT_THEN_FUNCTION,
    breaks: BreakSelection = BreakSelection.BOTH,
) -> Optional[float]:
    """Fraction of break tokens placed plausibly.

    A break is plausible when the nearest preceding word is punctuation,
    or when it separates a content word from a following function word
    (either order when `direction` allows).  An utterance-final break is
    plausible only after punctuation.
    """
    selected = _SELECTED_BREAKS[breaks]
    plausible = 0
    counted = 0
    for utt_index, utt in enumerate(tagged):
        items = utt.items
        for pos, (token, _) in enumerate(items):
            if token not in selected:
                continue
            prev_tag = None
            for back in range(pos - 1, -1, -1):
                if items[back][0] not in BREAKS:
                    prev_tag = items[back][1]
                    break
            next_tag = None
            has_next = False
            for fwd in range(pos + 1, len(items)):
                if items[fwd][0] not in BREAKS:
                    next_tag = items[fwd][1]
                    has_next = True
                    break
            if prev_tag is None:
                raise DataError(
                    f"break without a preceding word token (utterance index {utt_index})"
                )
            if not has_next:
                # Utterance-final break.
                if not include_trailing_eob:
                    continue
                counted += 1
                if classify_chunk_chink(prev_tag) is WordClass.PUNCT:
                    plausible += 1
                continue
            counted += 1
            prev_class = classify_chunk_chink(prev_tag)
            next_class = classify_chunk_chink(next_tag)
            if prev_class is WordClass.PUNCT:
                plausible += 1
            elif prev_class is WordClass.CONTENT and next_class is WordClass.FUNCTION:
                plausible += 1
            elif (
                direction is BreakDirection.EITHER_ORDER
                and prev_class is WordClass.FUNCTION
                and next_class is WordClass.CONTENT
            ):
                plausible += 1
    if counted == 0:
        return None
    return plausible / counted


# ---------------------------------------------------------------------------
# Report serialization (the per-field writers the library replaced)
#
# The library writes the report from one metric table; these are the
# hand-written dict and TSV row it replaced, kept as their reference.

TSV_COLUMNS = [
    "system",
    "wer",
    "bleu",
    "length_captions",
    "length_subtitles",
    "read_speed_captions",
    "read_speed_subtitles",
    "segment_captions",
    "segment_subtitles",
    "struc",
    "lex",
    "line_count",
    "char_ratio",
]


def _round(value: Optional[float], digits: int = 4) -> Optional[float]:
    if value is None:
        return None
    return round(value, digits)


def report_to_dict(report: EvaluationReport) -> dict[str, Any]:
    return {
        "system": report.system_name,
        "wer": _round(report.wer),
        "bleu": _round(report.bleu),
        "length": {
            "captions": _round(report.length_captions),
            "subtitles": _round(report.length_subtitles),
        },
        "reading_speed": {
            "captions": _round(report.reading_speed_captions),
            "subtitles": _round(report.reading_speed_subtitles),
        },
        "segmentation": {
            "captions": _round(report.segmentation_captions),
            "subtitles": _round(report.segmentation_subtitles),
        },
        "structural": _round(report.structural),
        "lexical": _round(report.lexical),
        "line_count": _round(report.line_count),
        "char_ratio": _round(report.char_ratio),
        "config": report.config_echo,
    }


def report_to_json(report: EvaluationReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _fmt_rate(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}".lstrip("0") or ".00"


def _fmt_score(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.2f}"


def report_to_tsv(report: EvaluationReport) -> str:
    row = [
        report.system_name,
        _fmt_score(report.wer),
        _fmt_score(report.bleu),
        _fmt_rate(report.length_captions),
        _fmt_rate(report.length_subtitles),
        _fmt_rate(report.reading_speed_captions),
        _fmt_rate(report.reading_speed_subtitles),
        _fmt_rate(report.segmentation_captions),
        _fmt_rate(report.segmentation_subtitles),
        _fmt_rate(report.structural),
        _fmt_rate(report.lexical),
        _fmt_rate(report.line_count),
        _fmt_score(report.char_ratio),
    ]
    return "\t".join(TSV_COLUMNS) + "\n" + "\t".join(row) + "\n"


# ---------------------------------------------------------------------------
# Model-file loader (the row-by-row loop the library replaced)
#
# The library parses the model file in blocks of whole lines, with one
# split into cells and one float parse per block, into sorted arrays.
# This is the row loop it replaced, copied unchanged apart from its name:
# the reference for every table it builds and every error it reports.

from subeval.errors import FormatError, open_utf8  # noqa: E402


def load_model_loop(path: str) -> TranslationModel:
    with open_utf8(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 6 or header[0] != "tension" or header[2] != "p0":
            raise FormatError(f"{path}:1: bad model header")
        try:
            tension, p0, diagonal = float(header[1]), float(header[3]), bool(int(header[5]))
        except ValueError:
            raise FormatError(f"{path}:1: bad number in model header") from None
        table: dict[str, dict[str, float]] = {}
        for lineno, raw in enumerate(fh, start=2):
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: bad model row")
            src, tgt, prob = parts
            try:
                table.setdefault(src, {})[tgt] = float(prob)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad probability {prob!r}") from None
    return TranslationModel(
        table=table, tension=tension, null_prob=p0, use_diagonal_prior=diagonal
    )


# ---------------------------------------------------------------------------
# Document model and parsers (the checked classes the library replaced)
#
# Before a block's lines became plain strings, every line, block,
# utterance and document was a frozen dataclass whose `__post_init__`
# re-checked the input.  These are those classes and the SRT and
# marked-text parsers that built them, copied unchanged apart from their
# names (`Checked*`, `*_checked`) and the metric methods, which no
# parser calls.  `document_fields` projects either model onto plain
# tuples, so parsed documents compare with `==`.

import re  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Iterable, TextIO, Union  # noqa: E402


@dataclass(frozen=True)
class CheckedLine:
    text: str

    def __post_init__(self):
        if EOB in self.text or EOL in self.text:
            raise DataError(f"line text contains a break token literal: {self.text!r}")
        if "\n" in self.text:
            raise DataError("line text contains a newline")

    def char_count(self) -> int:
        """Unicode scalar count of the trimmed line, inner spaces included."""
        return len(self.text.strip())


@dataclass(frozen=True)
class CheckedBlock:
    lines: tuple[CheckedLine, ...]
    start_ms: Optional[int] = None
    end_ms: Optional[int] = None

    def __post_init__(self):
        if not self.lines:
            raise DataError("block must contain at least one line")
        if (self.start_ms is None) != (self.end_ms is None):
            raise DataError("block timing must set both start_ms and end_ms")
        if self.start_ms is not None:
            if self.start_ms < 0 or self.end_ms <= self.start_ms:
                raise DataError(
                    f"non-positive duration: {self.start_ms} --> {self.end_ms}"
                )

    @property
    def timed(self) -> bool:
        return self.start_ms is not None


@dataclass(frozen=True)
class CheckedUtterance:
    id: str
    blocks: tuple[CheckedBlock, ...]
    start_ms: Optional[int] = None
    end_ms: Optional[int] = None

    def __post_init__(self):
        if not self.blocks:
            raise DataError(f"utterance {self.id!r} has no blocks")
        if (self.start_ms is None) != (self.end_ms is None):
            raise DataError("utterance timing must set both start_ms and end_ms")
        if self.start_ms is not None:
            if self.start_ms < 0 or self.end_ms <= self.start_ms:
                raise DataError(f"utterance {self.id!r}: non-positive duration")
            for block in self.blocks:
                if block.timed and not (
                    self.start_ms <= block.start_ms and block.end_ms <= self.end_ms
                ):
                    raise DataError(
                        f"utterance {self.id!r}: block interval outside utterance interval"
                    )


@dataclass(frozen=True)
class CheckedDocument:
    utterances: tuple[CheckedUtterance, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for utt in self.utterances:
            if utt.id in seen:
                raise DataError(f"duplicate utterance id {utt.id!r}")
            seen.add(utt.id)


def document_fields(doc) -> tuple:
    """(id, ((lines, start, end), ...)) per utterance; a line is its text
    in either model.  Utterance timing is left out: the library keeps a
    cue's timing on its block only."""
    return tuple(
        (
            utt.id,
            tuple(
                (
                    tuple(getattr(line, "text", line) for line in block.lines),
                    block.start_ms, block.end_ms,
                )
                for block in utt.blocks
            ),
        )
        for utt in doc.utterances
    )


_TIMING_RE = re.compile(
    r"^(\d{2}):(\d{2}):(\d{2}),(\d{3})\s*-->\s*(\d{2}):(\d{2}):(\d{2}),(\d{3})\s*$"
)


def _parse_timestamp(h: str, m: str, s: str, ms: str) -> int:
    return ((int(h) * 60 + int(m)) * 60 + int(s)) * 1000 + int(ms)


def _cue_chunks(lines: list[str]) -> Iterable[list[str]]:
    chunk: list[str] = []
    for line in lines:
        if line.strip() == "":
            if chunk:
                yield chunk
                chunk = []
        else:
            chunk.append(line)
    if chunk:
        yield chunk


def parse_srt_checked(source: Union[str, TextIO]) -> CheckedDocument:
    text = source if isinstance(source, str) else source.read()
    text = text.lstrip("﻿")
    utterances: list[CheckedUtterance] = []
    seen: set[int] = set()
    for chunk in _cue_chunks(text.split("\n")):
        index_line = chunk[0].strip()
        try:
            cue_index = int(index_line)
        except ValueError:
            raise FormatError(f"expected cue index line, got {index_line!r}")
        if len(chunk) < 2:
            raise FormatError(f"cue {cue_index}: missing timing line")
        match = _TIMING_RE.match(chunk[1])
        if not match:
            raise FormatError(
                f"cue {cue_index}: malformed timing line {chunk[1].strip()!r}"
            )
        start_ms = _parse_timestamp(*match.groups()[:4])
        end_ms = _parse_timestamp(*match.groups()[4:])
        if end_ms <= start_ms:
            raise FormatError(f"cue {cue_index}: non-positive duration")
        text_lines = [line.rstrip("\r") for line in chunk[2:]]
        if not text_lines:
            raise FormatError(f"cue {cue_index}: no text lines")
        block = CheckedBlock(
            tuple(CheckedLine(line) for line in text_lines),
            start_ms=start_ms,
            end_ms=end_ms,
        )
        if cue_index in seen:
            raise FormatError(f"duplicate cue index {cue_index}")
        seen.add(cue_index)
        utterances.append(
            CheckedUtterance(str(cue_index), (block,), start_ms=start_ms, end_ms=end_ms)
        )
    return CheckedDocument(tuple(utterances))


def _isolate_markers(text: str) -> str:
    return text.replace(EOB, f" {EOB} ").replace(EOL, f" {EOL} ")


def parse_utterance_text_checked(
    text: str, utt_id: str, index: int, lenient: bool = False
) -> CheckedUtterance:
    if not text.strip():
        raise FormatError(f"empty utterance (utterance {index})")
    body = _isolate_markers(text)
    block_texts = body.split(EOB)
    # A trailing <eob> leaves one empty final segment; that is canonical.
    if block_texts and not block_texts[-1].strip():
        block_texts.pop()
    blocks: list[CheckedBlock] = []
    for block_text in block_texts:
        # Collapse runs of internal whitespace left by marker isolation.
        pieces = [" ".join(piece.split()) for piece in block_text.split(EOL)]
        lines = [CheckedLine(piece) for piece in pieces if piece]
        if len(lines) < len(pieces):
            if not lenient:
                raise FormatError(f"empty segment (utterance {index})")
            # A block with no text is one warning, not one per segment.
            if not lines:
                log.warning("dropping empty block in utterance %d", index)
                continue
            for _ in range(len(pieces) - len(lines)):
                log.warning("dropping empty segment in utterance %d", index)
        blocks.append(CheckedBlock(tuple(lines)))
    if not blocks:
        raise FormatError(f"empty utterance (utterance {index})")
    return CheckedUtterance(id=utt_id, blocks=tuple(blocks))


def parse_marked_text_checked(
    source: Union[str, TextIO, Iterable[str]], lenient: bool = False
) -> CheckedDocument:
    if isinstance(source, str):
        raw_lines = source.split("\n")
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
    else:
        raw_lines = [line.rstrip("\n") for line in source]
    return CheckedDocument(
        tuple(
            parse_utterance_text_checked(raw, str(i), i, lenient=lenient)
            for i, raw in enumerate(raw_lines)
        )
    )


# ---------------------------------------------------------------------------
# Lexical consistency per pair (the dict-of-links scorer the library
# replaced)
#
# Before each direction was scored from two sets of own-word indices
# (aligned, and linked into the same-index block), the links were
# grouped per own word and each word scanned with `any`.  These are that
# scorer's two functions, copied unchanged apart from their names.

from subeval.consistency import (  # noqa: E402
    BlockIndexMap,
    LexicalConsistencyPair,
    _block_index_map,
)


def directional_consistency_dict(
    own_map: BlockIndexMap,
    other_map: BlockIndexMap,
    alignment: SentenceAlignment,
    own_words: Sequence[str],
    side: str,
    context: str,
    skip_unaligned: bool,
) -> tuple[float, list[tuple[str, int, str]]]:
    links_by_own: dict[int, list[int]] = {}
    for i, j in alignment.links:
        if not (0 <= i < own_map.words) or not (0 <= j < other_map.words):
            raise DataError(
                f"alignment link {i}-{j} out of bounds (utterance {context!r})"
            )
        links_by_own.setdefault(i, []).append(j)
    consistent = 0
    denominator = 0
    inconsistent: list[tuple[str, int, str]] = []
    for i, block in enumerate(own_map.word_to_block):
        linked = links_by_own.get(i)
        if linked is None:
            if skip_unaligned:
                continue
            denominator += 1
            inconsistent.append((side, i, own_words[i]))
            continue
        denominator += 1
        if any(other_map.word_to_block[j] == block for j in linked):
            consistent += 1
        else:
            inconsistent.append((side, i, own_words[i]))
    if denominator == 0:
        return 1.0, inconsistent
    return consistent / denominator, inconsistent


def lexical_consistency_pair_dict(
    pair_id: str,
    tokens: tuple[TokenizedUtterance, TokenizedUtterance],
    align_c2s: SentenceAlignment,
    align_s2c: SentenceAlignment,
    skip_unaligned: bool,
) -> LexicalConsistencyPair:
    cap_tokens, sub_tokens = tokens
    cap_map = _block_index_map(cap_tokens)
    sub_map = _block_index_map(sub_tokens)
    lex_c2s, bad_c = directional_consistency_dict(
        cap_map, sub_map, align_c2s, cap_tokens.words(), "caption", pair_id, skip_unaligned
    )
    lex_s2c, bad_s = directional_consistency_dict(
        sub_map, cap_map, align_s2c, sub_tokens.words(), "subtitle", pair_id, skip_unaligned
    )
    return LexicalConsistencyPair(
        lex_c2s=lex_c2s,
        lex_s2c=lex_s2c,
        lex_pair=(lex_c2s + lex_s2c) / 2.0,
        inconsistent_tokens=tuple(bad_c + bad_s),
    )


# ---------------------------------------------------------------------------
# WER edit operations over the whole pair (the DP the library trimmed)
#
# The library runs the DP only between the common prefix and the common
# suffix of a pair.  This is the full list-row DP it ran before, copied
# unchanged apart from its name; the library must give `==` triples.


def edit_operations_full(hyp: Sequence[str], ref: Sequence[str]) -> tuple[int, int, int]:
    """Levenshtein operations (S, D, I) turning `ref` into `hyp`, unit
    costs, ties resolved toward substitutions."""
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
