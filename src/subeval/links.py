"""Word-alignment links and their Pharaoh-format interchange, with the
aligner's training defaults.

Everything here is plain Python, so scoring consistency from given
alignments, and checking options, never load numpy: `align`, which
trains and applies the aligner, imports these names back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import FormatError, stream_file

# Training defaults, and the range EM keeps the diagonal prior's tension in.
DEFAULT_ITERATIONS = 5
DEFAULT_P0 = 0.08
DEFAULT_TENSION = 4.0
TENSION_BOUNDS = (0.1, 14.0)


@dataclass(frozen=True)
class SentenceAlignment:
    links: frozenset[tuple[int, int]]


def parse_pharaoh(line: str) -> SentenceAlignment:
    links = set()
    offset = 0
    for token in line.split():
        offset = line.index(token, offset)
        column = offset + 1
        offset += len(token)
        parts = token.split("-")
        if len(parts) != 2:
            raise FormatError(f"malformed alignment token {token!r} at column {column}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"malformed alignment token {token!r} at column {column}")
        if i < 0 or j < 0:
            raise FormatError(f"negative index in alignment token {token!r}")
        links.add((i, j))
    return SentenceAlignment(frozenset(links))


def write_pharaoh(alignment: SentenceAlignment) -> str:
    return " ".join(f"{i}-{j}" for i, j in sorted(alignment.links))


def iter_pharaoh(source: Iterable[str]) -> Iterator[SentenceAlignment]:
    """Yield the alignment of each line of Pharaoh text as it is read;
    a malformed line's error gives its 1-based line."""
    for lineno, line in enumerate(source, start=1):
        try:
            alignment = parse_pharaoh(line.rstrip("\n"))
        except FormatError as exc:
            exc.line = lineno
            raise
        yield alignment


def load_pharaoh(path: str) -> list[SentenceAlignment]:
    return list(stream_file(path, iter_pharaoh))
