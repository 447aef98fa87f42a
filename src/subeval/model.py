"""Data model for block-structured subtitle text.

An utterance is an ordered list of blocks, a block an ordered list of
lines.  Blocks are what appears on screen at once; lines are physical
rows inside a block, each a plain string.  In the inline-marker text
format blocks are delimited by the literal token ``<eob>`` and lines
inside a block by ``<eol>``.

The classes are plain data: every input check is made once, by the
parser that reads the input (``parse_marked_text``, ``parse_srt``), so
constructing them directly validates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sized

from .errors import DataError

EOB = "<eob>"
EOL = "<eol>"
BREAKS = frozenset({EOB, EOL})


@dataclass(frozen=True)
class SubtitleBlock:
    lines: tuple[str, ...]
    start_ms: Optional[int] = None
    end_ms: Optional[int] = None

    @property
    def timed(self) -> bool:
        return self.start_ms is not None

    def char_count(self) -> int:
        """Unicode scalars of the trimmed lines, inner spaces included."""
        return sum(len(line.strip()) for line in self.lines)

    def duration_s(self) -> float:
        return (self.end_ms - self.start_ms) / 1000.0


@dataclass(frozen=True)
class Utterance:
    """An utterance carries no timing of its own: a cue's timing lives on
    its block."""

    id: str
    blocks: tuple[SubtitleBlock, ...]

    def char_count(self) -> int:
        return sum(block.char_count() for block in self.blocks)

    def text(self) -> str:
        """Single-line marker form: lines joined by <eol>, blocks by <eob>,
        with a trailing <eob>."""
        return " ".join(
            f" {EOL} ".join(line.strip() for line in block.lines) + f" {EOB}"
            for block in self.blocks
        )


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

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)


def check_count(a: Sized, b: Sized) -> None:
    """Raise a DataError unless `a` and `b` hold as many utterances."""
    if len(a) != len(b):
        raise DataError(f"utterance count mismatch: {len(a)} vs {len(b)}")


def pair_documents(
    captions: SubtitleDocument, subtitles: SubtitleDocument
) -> list[UtterancePair]:
    """Pair the i-th caption utterance with the i-th subtitle utterance."""
    check_count(captions, subtitles)
    return [
        UtterancePair(caption=c, subtitle=s)
        for c, s in zip(captions.utterances, subtitles.utterances)
    ]
