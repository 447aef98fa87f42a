"""SubRip (SRT) parsing.

Each cue becomes one utterance of one SubtitleBlock, which holds the
cue's timing.
"""

from __future__ import annotations

import bisect
import re
from typing import Iterable, Iterator, Union

from .errors import DataError, FormatError, numbered_lines, stream_file
from .model import EOB, EOL, SubtitleBlock, SubtitleDocument, Utterance

_TIMING_RE = re.compile(
    r"^(\d{2}):(\d{2}):(\d{2}),(\d{3})\s*-->\s*(\d{2}):(\d{2}):(\d{2}),(\d{3})\s*$", re.ASCII
)


def _parse_timestamp(h: str, m: str, s: str, ms: str) -> int:
    return ((int(h) * 60 + int(m)) * 60 + int(s)) * 1000 + int(ms)


def _cue_chunks(lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, list[str]]]:
    """Each run of non-blank lines, with the 1-based line of its first."""
    chunk: list[str] = []
    first = 0
    for lineno, line in lines:
        if line.strip():
            if not chunk:
                first = lineno
            chunk.append(line)
        elif chunk:
            yield first, chunk
            chunk = []
    if chunk:
        yield first, chunk


def _add_index(runs: list[int], index: int) -> bool:
    """Add `index` to `runs`, the start and end (exclusive) of each run of
    consecutive cue indices seen, in order; False if it was there.  A
    file numbered in order keeps one run, however long it is."""
    k = bisect.bisect_right(runs, index)
    if k % 2:
        return False
    joins_previous = k > 0 and runs[k - 1] == index
    joins_next = k < len(runs) and runs[k] == index + 1
    if joins_previous and joins_next:
        del runs[k - 1 : k + 1]
    elif joins_previous:
        runs[k - 1] = index + 1
    elif joins_next:
        runs[k] = index
    else:
        runs[k:k] = (index, index + 1)
    return True


def iter_srt(source: Union[str, Iterable[str]]) -> Iterator[Utterance]:
    """Yield the cues of SRT text as they are read: each becomes one
    single-block utterance whose id is the cue index as a string."""
    runs: list[int] = []  # the cue indices seen, as `_add_index` keeps them
    for first, chunk in _cue_chunks(numbered_lines(source)):
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
        if not _add_index(runs, cue_index):
            raise FormatError(f"duplicate cue index {cue_index}", line=first)
        block = SubtitleBlock(text_lines, start_ms=start_ms, end_ms=end_ms)
        yield Utterance(str(cue_index), (block,))


def parse_srt(source: Union[str, Iterable[str]]) -> SubtitleDocument:
    """Parse SRT text into a document, as `iter_srt`."""
    return SubtitleDocument(tuple(iter_srt(source)))


def load_srt(path: str) -> SubtitleDocument:
    return SubtitleDocument(tuple(stream_file(path, iter_srt)))
