"""Word-alignment links and their Pharaoh-format interchange, with the
aligner's training defaults.

Everything here is plain Python, so scoring consistency from given
alignments, and checking options, never load numpy: `align`, which
trains and applies the aligner, imports these names back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import FormatError, numbered_lines, stream_file

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
        i, _, j = token.partition("-")
        # ASCII digits only: int() would also take "+1", "1_0" and "١".
        if not (token.isascii() and i.isdigit() and j.isdigit()):
            raise FormatError(f"malformed alignment token {token!r} at column {column}")
        links.add((int(i), int(j)))
    return SentenceAlignment(frozenset(links))


def write_pharaoh(alignment: SentenceAlignment) -> str:
    return " ".join(f"{i}-{j}" for i, j in sorted(alignment.links))


def iter_pharaoh(source: Union[str, Iterable[str]]) -> Iterator[SentenceAlignment]:
    """Yield the alignment of each line of Pharaoh text as it is read;
    a malformed line's error gives its 1-based line."""
    for lineno, line in numbered_lines(source):
        try:
            alignment = parse_pharaoh(line)
        except FormatError as exc:
            exc.line = lineno
            raise
        yield alignment


def load_pharaoh(path: str) -> list[SentenceAlignment]:
    return list(stream_file(path, iter_pharaoh))
