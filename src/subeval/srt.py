"""SubRip (SRT) parsing and serialization.

Each cue becomes one utterance of one SubtitleBlock, which holds the
cue's timing.
"""

from __future__ import annotations

import re
from typing import Iterable, TextIO, Union

from .errors import DataError, FormatError, located, open_utf8
from .model import EOB, EOL, SubtitleBlock, SubtitleDocument, Utterance

_TIMING_RE = re.compile(
    r"^(\d{2}):(\d{2}):(\d{2}),(\d{3})\s*-->\s*(\d{2}):(\d{2}):(\d{2}),(\d{3})\s*$"
)


def _parse_timestamp(h: str, m: str, s: str, ms: str) -> int:
    return ((int(h) * 60 + int(m)) * 60 + int(s)) * 1000 + int(ms)


def format_timestamp(ms: int) -> str:
    h, rest = divmod(ms, 3_600_000)
    m, rest = divmod(rest, 60_000)
    s, milli = divmod(rest, 1000)
    return f"{h:02d}:{m:02d}:{s:02d},{milli:03d}"


def _cue_chunks(lines: list[str]) -> Iterable[tuple[int, list[str]]]:
    """Each run of non-blank lines, with the 1-based line of its first."""
    chunk: list[str] = []
    # A blank line after the last ends the last run.
    for lineno, line in enumerate([*lines, ""], start=1):
        if line.strip():
            chunk.append(line)
        elif chunk:
            yield lineno - len(chunk), chunk
            chunk = []


def parse_srt(source: Union[str, TextIO]) -> SubtitleDocument:
    """Parse SRT text into a document: each cue becomes one single-block
    utterance whose id is the cue index as a string."""
    text = source if isinstance(source, str) else source.read()
    text = text.lstrip("﻿")
    utterances: list[Utterance] = []
    seen: set[int] = set()
    for first, chunk in _cue_chunks(text.split("\n")):
        index_line = chunk[0].strip()
        # ASCII digits only: int() would also take "+1", "1_0" and "١".
        if not (index_line.isascii() and index_line.isdigit()):
            raise FormatError(f"expected cue index line, got {index_line!r}", line=first)
        cue_index = int(index_line)
        if len(chunk) < 2:
            raise FormatError(f"cue {cue_index}: missing timing line", line=first)
        match = _TIMING_RE.match(chunk[1])
        if not match:
            raise FormatError(
                f"cue {cue_index}: malformed timing line {chunk[1].strip()!r}", line=first + 1
            )
        start_ms = _parse_timestamp(*match.groups()[:4])
        end_ms = _parse_timestamp(*match.groups()[4:])
        if end_ms <= start_ms:
            raise FormatError(f"cue {cue_index}: non-positive duration", line=first + 1)
        text_lines = tuple(line.rstrip("\r") for line in chunk[2:])
        if not text_lines:
            raise FormatError(f"cue {cue_index}: no text lines", line=first + 1)
        for lineno, line in enumerate(text_lines, start=first + 2):
            if EOB in line or EOL in line:
                raise DataError(f"line text contains a break token literal: {line!r}", line=lineno)
        if cue_index in seen:
            raise FormatError(f"duplicate cue index {cue_index}", line=first)
        seen.add(cue_index)
        block = SubtitleBlock(text_lines, start_ms=start_ms, end_ms=end_ms)
        utterances.append(Utterance(str(cue_index), (block,)))
    return SubtitleDocument(tuple(utterances))


def serialize_srt(doc: SubtitleDocument) -> str:
    """Emit standard SRT, cue indices renumbered from 1."""
    out: list[str] = []
    cue_index = 1
    for utt in doc.utterances:
        for block in utt.blocks:
            if not block.timed:
                raise FormatError(
                    f"utterance {utt.id!r}: block without timing cannot be written as SRT"
                )
            header = (
                f"{cue_index}\n"
                f"{format_timestamp(block.start_ms)} --> {format_timestamp(block.end_ms)}"
            )
            body = "\n".join(block.lines)
            out.append(f"{header}\n{body}")
            cue_index += 1
    return "\n\n".join(out) + ("\n" if out else "")


def load_srt(path: str) -> SubtitleDocument:
    with open_utf8(path) as fh, located(path):
        return parse_srt(fh)
