"""Caption-subtitle consistency metrics: structural, lexical,
line-count, and character ratio.

Lexical consistency matches blocks positionally (i-th caption block to
i-th subtitle block).  A token is consistent when at least one of its
alignment links lands in the same-index block on the other side;
unaligned tokens are inconsistent unless `skip_unaligned` excludes them
from the denominator.  Alignment link indices count the break-stripped
MT tokens (`Scheme.MT_DETACHED`) of each side.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DataError
from .links import SentenceAlignment
from .model import EOB, EOL, Utterance, UtterancePair, column_sums, left_sum
from .textproc import Scheme, TokenizedUtterance, tokenize

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BlockIndexMap:
    word_to_block: tuple[int, ...]
    blocks: int

    @property
    def words(self) -> int:
        return len(self.word_to_block)


@dataclass(frozen=True)
class LexicalConsistencyPair:
    lex_c2s: float
    lex_s2c: float
    lex_pair: float
    inconsistent_tokens: tuple[tuple[str, int, str], ...]


@dataclass(frozen=True)
class ConsistencyReport:
    structural: float
    lexical: Optional[float]
    line_count: Optional[float]
    char_ratio: float
    per_pair: tuple[LexicalConsistencyPair, ...]


def pair_counts(pair: UtterancePair) -> tuple[int, int, int, int, int, int]:
    """The structural counts of one pair: 1 (the pair itself), 1 when its
    block counts are equal, and then its block pairs with equal line
    counts and its block pairs (else 0 and 0), and its caption and
    subtitle characters."""
    cap_blocks, sub_blocks = pair.caption.blocks, pair.subtitle.blocks
    same = equal = compared = 0
    if len(cap_blocks) == len(sub_blocks):
        same, compared = 1, len(cap_blocks)
        equal = sum(len(c.lines) == len(s.lines) for c, s in zip(cap_blocks, sub_blocks))
    return 1, same, equal, compared, pair.caption.char_count(), pair.subtitle.char_count()


def block_index_map(utt: Utterance, lang: str = "en") -> BlockIndexMap:
    """Block index of each non-break MT token, in token order."""
    return _block_index_map(tokenize(utt.text(), Scheme.MT_DETACHED, lang))


def _block_index_map(tokens: TokenizedUtterance) -> BlockIndexMap:
    """Block index of each non-break token of a tokenized utterance; every
    block, the last included, ends with an ``<eob>`` token."""
    mapping = []
    block = 0
    for token in tokens.tokens:
        if token == EOB:
            block += 1
        elif token != EOL:
            mapping.append(block)
    return BlockIndexMap(tuple(mapping), blocks=block)


def check_links(alignment: SentenceAlignment, own: int, other: int, utt_id: str) -> None:
    """Raise a DataError for a link that indexes past the `own` words of
    its side or the `other` words of the other."""
    for i, j in alignment.links:
        if not (0 <= i < own and 0 <= j < other):
            raise DataError(f"alignment link {i}-{j} out of bounds (utterance {utt_id!r})")


def lexical_consistency_pair(
    pair: UtterancePair,
    align_c2s: SentenceAlignment,
    align_s2c: SentenceAlignment,
    caption_lang: str = "en",
    subtitle_lang: str = "en",
    skip_unaligned: bool = False,
) -> LexicalConsistencyPair:
    """Both directional scores and their average for one pair, once its
    links are checked against its tokens, c2s first.

    `align_c2s` links caption token indices to subtitle token indices;
    `align_s2c` links subtitle token indices to caption token indices.
    Indices count break-stripped MT tokens.
    """
    tokens = (
        tokenize(pair.caption.text(), Scheme.MT_DETACHED, caption_lang),
        tokenize(pair.subtitle.text(), Scheme.MT_DETACHED, subtitle_lang),
    )
    cap_words, sub_words = (len(side.words()) for side in tokens)
    check_links(align_c2s, cap_words, sub_words, pair.id)
    check_links(align_s2c, sub_words, cap_words, pair.id)
    return lexical_from_tokens(tokens, align_c2s, align_s2c, skip_unaligned)


def lexical_from_tokens(
    tokens: tuple[TokenizedUtterance, TokenizedUtterance],
    align_c2s: SentenceAlignment,
    align_s2c: SentenceAlignment,
    skip_unaligned: bool = False,
) -> LexicalConsistencyPair:
    """`lexical_consistency_pair` of a pair's (caption, subtitle) MT
    tokens.  Every link must index within them: this function does not
    check them."""
    cap_tokens, sub_tokens = tokens
    cap_blocks = _block_index_map(cap_tokens).word_to_block
    sub_blocks = _block_index_map(sub_tokens).word_to_block
    scores: list[float] = []
    inconsistent: list[tuple[str, int, str]] = []
    for side, own_tokens, own_blocks, other_blocks, alignment in (
        ("caption", cap_tokens, cap_blocks, sub_blocks, align_c2s),
        ("subtitle", sub_tokens, sub_blocks, cap_blocks, align_s2c),
    ):
        # The own words with any link, and those with a link into the
        # same-index block on the other side.
        aligned = {i for i, _ in alignment.links}
        consistent = {i for i, j in alignment.links if own_blocks[i] == other_blocks[j]}
        scored = len(aligned) if skip_unaligned else len(own_blocks)
        scores.append(len(consistent) / scored if scored else 1.0)
        words = own_tokens.words()
        inconsistent += [
            (side, i, words[i])
            for i in range(len(own_blocks))
            if i not in consistent and (i in aligned or not skip_unaligned)
        ]
    lex_c2s, lex_s2c = scores
    return LexicalConsistencyPair(
        lex_c2s=lex_c2s,
        lex_s2c=lex_s2c,
        lex_pair=(lex_c2s + lex_s2c) / 2.0,
        inconsistent_tokens=tuple(inconsistent),
    )


def validate_lexical_metric(
    automatic: Sequence[float],
    manual: Sequence[float],
    auto_judgements: Sequence[bool],
    manual_judgements: Sequence[bool],
) -> tuple[float, float]:
    """Mean absolute error between score vectors and per-block
    judgement agreement."""
    if len(automatic) != len(manual):
        raise DataError(
            f"score vector length mismatch: {len(automatic)} vs {len(manual)}"
        )
    if len(auto_judgements) != len(manual_judgements):
        raise DataError(
            f"judgement vector length mismatch: {len(auto_judgements)} vs {len(manual_judgements)}"
        )
    if not automatic or not auto_judgements:
        raise DataError("empty validation vectors")
    mae = left_sum(abs(a - m) for a, m in zip(automatic, manual)) / len(automatic)
    agreement = sum(
        1 for a, m in zip(auto_judgements, manual_judgements) if a == m
    ) / len(auto_judgements)
    return mae, agreement


def consistency_from_sums(
    sums: Sequence[int], lex_sum: Optional[float], per_pair: Sequence[LexicalConsistencyPair] = ()
) -> ConsistencyReport:
    """The report of a corpus from the column sums of `pair_counts` over
    its pairs and the sum of their lex_pair, added in pair order, or None
    for no lexical rate.  Structural consistency is the share of pairs
    with equal block counts, line-count consistency that of the blocks of
    those pairs with equal line counts, and the character ratio is all
    caption characters over all subtitle ones."""
    if not sums:
        raise DataError("empty pair list")
    n, same, equal, compared, cap_chars, sub_chars = sums
    if compared == 0:
        log.warning("no structurally consistent pairs; line-count rate undefined")
    if sub_chars == 0:
        raise DataError("subtitle corpus has zero characters")
    return ConsistencyReport(
        structural=same / n,
        lexical=None if lex_sum is None else lex_sum / n,
        line_count=equal / compared if compared else None,
        char_ratio=cap_chars / sub_chars,
        per_pair=tuple(per_pair),
    )


def consistency_report(
    pairs: Sequence[UtterancePair],
    alignments: Optional[Sequence[tuple[SentenceAlignment, SentenceAlignment]]] = None,
    caption_lang: str = "en",
    subtitle_lang: str = "en",
    skip_unaligned: bool = False,
) -> ConsistencyReport:
    """Every consistency rate of a corpus.  With `alignments`, one (c2s,
    s2c) per pair, it also gives the lexical result of each pair, and
    lexical consistency is the unweighted mean of lex_pair; without, the
    report's `lexical` is None and its `per_pair` empty.  Only the
    lexical scores read `caption_lang`, `subtitle_lang` and
    `skip_unaligned`.  The pair and alignment counts are checked first,
    then an empty pair list is a DataError, then each pair's links in
    pair order."""
    sums = column_sums(map(pair_counts, pairs))
    if alignments is None:
        return consistency_from_sums(sums, None)
    if len(pairs) != len(alignments):
        raise DataError(f"pair/alignment count mismatch: {len(pairs)} vs {len(alignments)}")
    per_pair = [
        lexical_consistency_pair(pair, c2s, s2c, caption_lang, subtitle_lang, skip_unaligned)
        for pair, (c2s, s2c) in zip(pairs, alignments)
    ]
    lex_sum = left_sum(result.lex_pair for result in per_pair)
    return consistency_from_sums(sums, lex_sum, per_pair)
