"""Data model for block-structured subtitle text.

An utterance is an ordered list of blocks, a block an ordered list of
lines.  Blocks are what appears on screen at once; lines are physical
rows inside a block.  In the inline-marker text format blocks are
delimited by the literal token ``<eob>`` and lines inside a block by
``<eol>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DataError

EOB = "<eob>"
EOL = "<eol>"
BREAKS = frozenset({EOB, EOL})


@dataclass(frozen=True)
class SubtitleLine:
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
class SubtitleBlock:
    lines: tuple[SubtitleLine, ...]
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

    def char_count(self) -> int:
        return sum(line.char_count() for line in self.lines)

    def duration_s(self) -> float:
        if not self.timed:
            raise DataError("block has no timing")
        return (self.end_ms - self.start_ms) / 1000.0


@dataclass(frozen=True)
class Utterance:
    id: str
    blocks: tuple[SubtitleBlock, ...]
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

    @property
    def timed(self) -> bool:
        return self.start_ms is not None

    def char_count(self) -> int:
        return sum(block.char_count() for block in self.blocks)

    def duration_s(self) -> float:
        if not self.timed:
            raise DataError(f"utterance {self.id!r} has no timing")
        return (self.end_ms - self.start_ms) / 1000.0

    def text(self) -> str:
        """Single-line marker form: lines joined by <eol>, blocks by <eob>,
        with a trailing <eob>."""
        parts: list[str] = []
        for block in self.blocks:
            block_text = f" {EOL} ".join(line.text.strip() for line in block.lines)
            parts.append(block_text)
        return f" {EOB} ".join(parts) + f" {EOB}"


@dataclass(frozen=True)
class UtterancePair:
    caption: Utterance
    subtitle: Utterance

    def __post_init__(self):
        if self.caption.id != self.subtitle.id:
            raise DataError(
                f"paired utterances disagree on id: {self.caption.id!r} vs {self.subtitle.id!r}"
            )

    @property
    def id(self) -> str:
        return self.caption.id


@dataclass(frozen=True)
class SubtitleDocument:
    utterances: tuple[Utterance, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for utt in self.utterances:
            if utt.id in seen:
                raise DataError(f"duplicate utterance id {utt.id!r}")
            seen.add(utt.id)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


def pair_documents(
    captions: SubtitleDocument, subtitles: SubtitleDocument
) -> list[UtterancePair]:
    """Pair the i-th caption utterance with the i-th subtitle utterance."""
    if len(captions) != len(subtitles):
        raise DataError(
            f"utterance count mismatch: {len(captions)} vs {len(subtitles)}"
        )
    return [
        UtterancePair(caption=c, subtitle=s)
        for c, s in zip(captions.utterances, subtitles.utterances)
    ]
