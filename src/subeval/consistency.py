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

from .align import SentenceAlignment
from .errors import DataError
from .model import EOB, EOL, Utterance, UtterancePair
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
    lexical: float
    line_count: Optional[float]
    char_ratio: float
    per_pair: tuple[LexicalConsistencyPair, ...]


def structural_consistency(pairs: Sequence[UtterancePair]) -> float:
    """Fraction of pairs whose caption and subtitle have equal block
    counts."""
    if not pairs:
        raise DataError("empty pair list")
    same = sum(
        1 for p in pairs if len(p.caption.blocks) == len(p.subtitle.blocks)
    )
    return same / len(pairs)


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


def _tokenize_pair(
    pair: UtterancePair, caption_lang: str, subtitle_lang: str
) -> tuple[TokenizedUtterance, TokenizedUtterance]:
    return (
        tokenize(pair.caption.text(), Scheme.MT_DETACHED, caption_lang),
        tokenize(pair.subtitle.text(), Scheme.MT_DETACHED, subtitle_lang),
    )


def lexical_consistency_pair(
    pair: UtterancePair,
    align_c2s: SentenceAlignment,
    align_s2c: SentenceAlignment,
    caption_lang: str = "en",
    subtitle_lang: str = "en",
    skip_unaligned: bool = False,
) -> LexicalConsistencyPair:
    """Both directional scores and their average for one pair.

    `align_c2s` links caption token indices to subtitle token indices;
    `align_s2c` links subtitle token indices to caption token indices.
    Indices count break-stripped MT tokens.
    """
    return _lexical_consistency_pair(
        pair.id,
        _tokenize_pair(pair, caption_lang, subtitle_lang),
        align_c2s,
        align_s2c,
        skip_unaligned,
    )


def _lexical_consistency_pair(
    pair_id: str,
    tokens: tuple[TokenizedUtterance, TokenizedUtterance],
    align_c2s: SentenceAlignment,
    align_s2c: SentenceAlignment,
    skip_unaligned: bool,
) -> LexicalConsistencyPair:
    cap_tokens, sub_tokens = tokens
    cap_blocks = _block_index_map(cap_tokens).word_to_block
    sub_blocks = _block_index_map(sub_tokens).word_to_block
    scores: list[float] = []
    inconsistent: list[tuple[str, int, str]] = []
    for side, own_tokens, own_blocks, other_blocks, alignment in (
        ("caption", cap_tokens, cap_blocks, sub_blocks, align_c2s),
        ("subtitle", sub_tokens, sub_blocks, cap_blocks, align_s2c),
    ):
        for i, j in alignment.links:
            if not (0 <= i < len(own_blocks)) or not (0 <= j < len(other_blocks)):
                raise DataError(f"alignment link {i}-{j} out of bounds (utterance {pair_id!r})")
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


def corpus_lexical_consistency(
    pairs: Sequence[UtterancePair],
    alignments: Sequence[tuple[SentenceAlignment, SentenceAlignment]],
    caption_lang: str = "en",
    subtitle_lang: str = "en",
    skip_unaligned: bool = False,
) -> tuple[float, list[LexicalConsistencyPair]]:
    """Unweighted mean of lex_pair over the corpus, plus per-pair
    diagnostics."""
    return _corpus_lexical_consistency(
        pairs,
        [_tokenize_pair(p, caption_lang, subtitle_lang) for p in pairs],
        alignments,
        skip_unaligned,
    )


def _corpus_lexical_consistency(
    pairs: Sequence[UtterancePair],
    tokens: Sequence[tuple[TokenizedUtterance, TokenizedUtterance]],
    alignments: Sequence[tuple[SentenceAlignment, SentenceAlignment]],
    skip_unaligned: bool,
) -> tuple[float, list[LexicalConsistencyPair]]:
    if len(pairs) != len(alignments):
        raise DataError(
            f"pair/alignment count mismatch: {len(pairs)} vs {len(alignments)}"
        )
    if not pairs:
        raise DataError("empty pair list")
    per_pair = [
        _lexical_consistency_pair(pair.id, pair_tokens, c2s, s2c, skip_unaligned)
        for pair, pair_tokens, (c2s, s2c) in zip(pairs, tokens, alignments, strict=True)
    ]
    return sum(p.lex_pair for p in per_pair) / len(per_pair), per_pair


def line_count_consistency(pairs: Sequence[UtterancePair]) -> Optional[float]:
    """Fraction of positionally paired blocks with equal line counts,
    over structurally consistent pairs only."""
    equal = 0
    total = 0
    for pair in pairs:
        if len(pair.caption.blocks) != len(pair.subtitle.blocks):
            continue
        for cap_block, sub_block in zip(pair.caption.blocks, pair.subtitle.blocks):
            total += 1
            if len(cap_block.lines) == len(sub_block.lines):
                equal += 1
    if total == 0:
        log.warning("no structurally consistent pairs; line-count rate undefined")
        return None
    return equal / total


def char_ratio(pairs: Sequence[UtterancePair]) -> float:
    """Total caption characters over total subtitle characters."""
    if not pairs:
        raise DataError("empty pair list")
    cap_chars = sum(p.caption.char_count() for p in pairs)
    sub_chars = sum(p.subtitle.char_count() for p in pairs)
    if sub_chars == 0:
        raise DataError("subtitle corpus has zero characters")
    return cap_chars / sub_chars


def subtitle_block_judgements(
    pair: UtterancePair,
    result: LexicalConsistencyPair,
    subtitle_lang: str = "en",
) -> list[bool]:
    """Per subtitle block: True when every token of the block is
    consistent."""
    sub_map = block_index_map(pair.subtitle, subtitle_lang)
    bad_blocks = {
        sub_map.word_to_block[index]
        for side, index, _ in result.inconsistent_tokens
        if side == "subtitle"
    }
    return [b not in bad_blocks for b in range(sub_map.blocks)]


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
    mae = sum(abs(a - m) for a, m in zip(automatic, manual)) / len(automatic)
    agreement = sum(
        1 for a, m in zip(auto_judgements, manual_judgements) if a == m
    ) / len(auto_judgements)
    return mae, agreement


def consistency_report(
    pairs: Sequence[UtterancePair],
    alignments: Sequence[tuple[SentenceAlignment, SentenceAlignment]],
    caption_lang: str = "en",
    subtitle_lang: str = "en",
    skip_unaligned: bool = False,
) -> ConsistencyReport:
    return consistency_report_from_tokens(
        pairs,
        [_tokenize_pair(p, caption_lang, subtitle_lang) for p in pairs],
        alignments,
        skip_unaligned,
    )


def consistency_report_from_tokens(
    pairs: Sequence[UtterancePair],
    tokens: Sequence[tuple[TokenizedUtterance, TokenizedUtterance]],
    alignments: Sequence[tuple[SentenceAlignment, SentenceAlignment]],
    skip_unaligned: bool = False,
) -> ConsistencyReport:
    """`consistency_report` with each pair's (caption, subtitle) tokens
    given, in pair order."""
    lexical, per_pair = _corpus_lexical_consistency(
        pairs, tokens, alignments, skip_unaligned
    )
    return ConsistencyReport(
        structural=structural_consistency(pairs),
        lexical=lexical,
        line_count=line_count_consistency(pairs),
        char_ratio=char_ratio(pairs),
        per_pair=tuple(per_pair),
    )
