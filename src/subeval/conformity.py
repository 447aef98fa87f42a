"""Conformity to subtitling constraints: characters per line, reading
speed, and segmentation plausibility."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import DataError
from .model import BREAKS, EOB, EOL, SubtitleDocument
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


@dataclass(frozen=True)
class ConformityReport:
    length_rate: Optional[float]
    reading_speed_rate: Optional[float]
    segmentation_rate: Optional[float]
    breaks: int


def _rate(hits: int, units: int) -> Optional[float]:
    return hits / units if units else None


def length_conformity(
    doc: SubtitleDocument,
    thresholds: ConformityThresholds = ConformityThresholds(),
    aggregation: LengthAggregation = LengthAggregation.PER_LINE,
) -> Optional[float]:
    """Fraction of lines (or blocks) within the CPL bound, inclusive."""
    conforming = 0
    units = 0
    for utt in doc.utterances:
        for block in utt.blocks:
            if aggregation is LengthAggregation.PER_LINE:
                for line in block.lines:
                    units += 1
                    if len(line.strip()) <= thresholds.max_cpl:
                        conforming += 1
            else:
                units += 1
                if all(len(line.strip()) <= thresholds.max_cpl for line in block.lines):
                    conforming += 1
    return _rate(conforming, units)


def reading_speed_conformity(
    doc: SubtitleDocument,
    thresholds: ConformityThresholds = ConformityThresholds(),
) -> Optional[float]:
    """Fraction of blocks read at or below the CPS bound.

    Characters of a block are the sum of its trimmed line counts; no
    synthetic inter-line spaces are added.
    """
    conforming = 0
    units = 0
    for utt in doc.utterances:
        for block in utt.blocks:
            if not block.timed:
                raise DataError(f"timing unavailable for mode block (utterance {utt.id!r})")
            units += 1
            if block.char_count() / block.duration_s() <= thresholds.max_cps:
                conforming += 1
    return _rate(conforming, units)


def _break_counts(
    tagged: Sequence[TaggedUtterance], include_trailing_eob: bool, breaks: BreakSelection
) -> tuple[int, int, int]:
    """(plausible, judged, selected) break counts, in one walk per utterance.

    A run of selected breaks shares its neighbouring words, so it is
    judged as a whole when the next word arrives, or at the end of the
    utterance.  Tags are classified only beside a selected break.
    """
    selected = _SELECTED_BREAKS[breaks]
    plausible = judged = n_selected = 0
    for utt_index, utt in enumerate(tagged):
        prev_tag = None
        run = 0  # selected breaks since the last word
        for token, tag in utt.items:
            if token in BREAKS:
                if token in selected:
                    if prev_tag is None:
                        raise DataError(
                            "break without a preceding word token "
                            f"(utterance index {utt_index})"
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
    plausible, judged, _ = _break_counts(tagged, include_trailing_eob, breaks)
    return _rate(plausible, judged)


def conformity_report(
    doc: SubtitleDocument,
    thresholds: ConformityThresholds = ConformityThresholds(),
    aggregation: LengthAggregation = LengthAggregation.PER_LINE,
    tagged: Optional[Sequence[TaggedUtterance]] = None,
    include_trailing_eob: bool = True,
    breaks: BreakSelection = BreakSelection.BOTH,
) -> ConformityReport:
    """All conformity rates for one document; rates whose denominator is
    empty (or whose inputs are missing) are reported as None."""
    timed = all(block.timed for utt in doc.utterances for block in utt.blocks)
    plausible = judged = n_breaks = 0
    if tagged is not None:
        plausible, judged, n_breaks = _break_counts(tagged, include_trailing_eob, breaks)
    return ConformityReport(
        length_rate=length_conformity(doc, thresholds, aggregation),
        reading_speed_rate=reading_speed_conformity(doc, thresholds) if timed else None,
        segmentation_rate=_rate(plausible, judged),
        breaks=n_breaks,
    )
