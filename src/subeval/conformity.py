"""Conformity to subtitling constraints: characters per line, reading
speed, and segmentation plausibility."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import Optional, Sequence

from .errors import DataError
from .model import BREAKS, EOB, EOL, SubtitleDocument, Utterance, check_count, column_sums
from .textproc import TaggedUtterance, WordClass, classify_chunk_chink

DEFAULT_MAX_CPL = 42
DEFAULT_MAX_CPS = 21.0


@dataclass(frozen=True)
class ConformityThresholds:
    max_cpl: int = DEFAULT_MAX_CPL
    max_cps: float = DEFAULT_MAX_CPS

    def __post_init__(self):
        if not self.max_cpl > 0 or not self.max_cps > 0:
            raise DataError("conformity thresholds must be positive")


class LengthAggregation(Enum):
    PER_LINE = "line"
    PER_BLOCK = "block"


class BreakSelection(Enum):
    EOL = "eol"
    EOB = "eob"
    BOTH = "both"


# The break tokens each selection counts.
_SELECTED_BREAKS: dict[BreakSelection, frozenset[str]] = {
    BreakSelection.EOL: frozenset({EOL}),
    BreakSelection.EOB: frozenset({EOB}),
    BreakSelection.BOTH: BREAKS,
}


# The conformity counts of an utterance and its tags, or their sums.
ConformityCounts = namedtuple(
    "ConformityCounts", "cpl_hits cpl_units cps_hits timed untimed plausible judged selected"
)


@dataclass(frozen=True)
class ConformityReport:
    length_rate: Optional[float]
    reading_speed_rate: Optional[float]
    segmentation_rate: Optional[float]
    breaks: int


def _rate(hits: int, units: int) -> Optional[float]:
    return hits / units if units else None


def _block_counts(
    utt: Utterance,
    thresholds: ConformityThresholds,
    aggregation: LengthAggregation = LengthAggregation.PER_LINE,
) -> tuple[int, int, int, int, int]:
    """The `ConformityCounts` fields `cpl_hits` to `untimed` of one
    utterance; both bounds are inclusive.

    Characters of a block are the sum of its trimmed line counts; no
    synthetic inter-line spaces are added.
    """
    per_line = aggregation is LengthAggregation.PER_LINE
    max_cpl = thresholds.max_cpl
    cpl_hits = cpl_units = cps_hits = timed = 0
    for block in utt.blocks:
        if per_line:
            for line in block.lines:
                cpl_units += 1
                if len(line.strip()) <= max_cpl:
                    cpl_hits += 1
        else:
            cpl_units += 1
            if all(len(line.strip()) <= max_cpl for line in block.lines):
                cpl_hits += 1
        if block.timed:
            timed += 1
            if block.char_count() / block.duration_s() <= thresholds.max_cps:
                cps_hits += 1
    return cpl_hits, cpl_units, cps_hits, timed, len(utt.blocks) - timed


def _break_counts(
    utt: TaggedUtterance, index: int, include_trailing_eob: bool, breaks: BreakSelection
) -> tuple[int, int, int]:
    """The `ConformityCounts` fields `plausible`, `judged` and `selected`
    of the utterance at `index`, in one walk.

    A run of selected breaks shares its neighbouring words, so it is
    judged as a whole when the next word arrives, or at the end of the
    utterance.  Tags are classified only beside a selected break.
    """
    selected = _SELECTED_BREAKS[breaks]
    plausible = judged = n_selected = 0
    prev_tag = None
    run = 0  # selected breaks since the last word
    for token, tag in utt.items:
        if token in BREAKS:
            if token in selected:
                if prev_tag is None:
                    raise DataError(
                        f"break without a preceding word token (utterance index {index})"
                    )
                run += 1
                n_selected += 1
            continue
        if run:
            prev_class = classify_chunk_chink(prev_tag)
            next_class = classify_chunk_chink(tag)
            judged += run
            if prev_class is WordClass.PUNCT or (
                prev_class is WordClass.CONTENT and next_class is WordClass.FUNCTION
            ):
                plausible += run
            run = 0
        prev_tag = tag
    # An utterance-final run is plausible only after punctuation.
    if run and include_trailing_eob:
        judged += run
        if classify_chunk_chink(prev_tag) is WordClass.PUNCT:
            plausible += run
    return plausible, judged, n_selected


def conformity_counts(
    utt: Optional[Utterance],
    thresholds: ConformityThresholds = ConformityThresholds(),
    aggregation: LengthAggregation = LengthAggregation.PER_LINE,
    tagged: Optional[TaggedUtterance] = None,
    include_trailing_eob: bool = True,
    breaks: BreakSelection = BreakSelection.BOTH,
    index: int = 0,
) -> ConformityCounts:
    """The `ConformityCounts` of the utterance at `index` and of its tags;
    a missing utterance or missing tags count as empty ones."""
    return ConformityCounts(
        *_block_counts(utt or Utterance("", ()), thresholds, aggregation),
        *_break_counts(tagged or TaggedUtterance(()), index, include_trailing_eob, breaks),
    )


def conformity_from_sums(sums: Sequence[int]) -> ConformityReport:
    """A document's report from the column sums of `conformity_counts`
    over one or more utterances.  Reading speed is scored only when
    every block is timed."""
    counts = ConformityCounts._make(sums)
    return ConformityReport(
        length_rate=_rate(counts.cpl_hits, counts.cpl_units),
        reading_speed_rate=None if counts.untimed else _rate(counts.cps_hits, counts.timed),
        segmentation_rate=_rate(counts.plausible, counts.judged),
        breaks=counts.selected,
    )


def conformity_report(
    doc: SubtitleDocument,
    thresholds: ConformityThresholds = ConformityThresholds(),
    aggregation: LengthAggregation = LengthAggregation.PER_LINE,
    tagged: Optional[Sequence[TaggedUtterance]] = None,
    include_trailing_eob: bool = True,
    breaks: BreakSelection = BreakSelection.BOTH,
) -> ConformityReport:
    """All conformity rates for one document, from the column sums of
    `conformity_counts` over its utterances; rates whose denominator is
    empty (or whose inputs are missing) are reported as None.

    `tagged` holds the tags of each utterance of `doc`, in order.  With
    an empty `doc`, only the tags are scored: that is
    `segmentation_plausibility`."""
    if tagged is not None and doc.utterances:
        check_count(len(doc.utterances), len(tagged))
    rows = (
        conformity_counts(utt, thresholds, aggregation, tags, include_trailing_eob, breaks, index)
        for index, (utt, tags) in enumerate(zip_longest(doc.utterances, tagged or ()))
    )
    return conformity_from_sums(column_sums(rows) or conformity_counts(None))


def segmentation_plausibility(
    tagged: Sequence[TaggedUtterance],
    include_trailing_eob: bool = True,
    breaks: BreakSelection = BreakSelection.BOTH,
) -> Optional[float]:
    """Fraction of break tokens placed plausibly.

    A break is plausible when the nearest preceding word is punctuation,
    or when it separates a content word from a following function word.
    An utterance-final break is plausible only after punctuation.
    """
    return conformity_report(
        SubtitleDocument(()), tagged=tagged, include_trailing_eob=include_trailing_eob,
        breaks=breaks,
    ).segmentation_rate
