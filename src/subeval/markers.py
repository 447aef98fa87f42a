"""Parser and serializer for the inline-marker subtitle format.

One utterance per physical line; ``<eob>`` separates blocks, ``<eol>``
separates lines inside a block.  A trailing ``<eob>`` is accepted on
input and always produced on output.
"""

from __future__ import annotations

import logging
from typing import Iterable, Iterator, TextIO, Union

from .errors import FormatError, stream_file
from .model import EOB, EOL, SubtitleBlock, SubtitleDocument, Utterance

log = logging.getLogger(__name__)


def _isolate_markers(text: str) -> str:
    return text.replace(EOB, f" {EOB} ").replace(EOL, f" {EOL} ")


def parse_utterance_text(text: str, index: int, lenient: bool = False) -> Utterance:
    """Parse one marker-format line into an Utterance whose id is
    `index` as a string; its errors give line `index + 1`."""
    if not text.strip():
        raise FormatError(f"empty utterance (utterance {index})", line=index + 1)
    body = _isolate_markers(text)
    block_texts = body.split(EOB)
    # A trailing <eob> leaves one empty final segment; that is canonical.
    if block_texts and not block_texts[-1].strip():
        block_texts.pop()
    blocks: list[SubtitleBlock] = []
    for block_text in block_texts:
        # Collapse runs of internal whitespace left by marker isolation.
        pieces = [" ".join(piece.split()) for piece in block_text.split(EOL)]
        lines = [piece for piece in pieces if piece]
        if len(lines) < len(pieces):
            if not lenient:
                raise FormatError(f"empty segment (utterance {index})", line=index + 1)
            # A block with no text is one warning, not one per segment.
            if not lines:
                log.warning("dropping empty block in utterance %d", index)
                continue
            for _ in range(len(pieces) - len(lines)):
                log.warning("dropping empty segment in utterance %d", index)
        blocks.append(SubtitleBlock(tuple(lines)))
    if not blocks:
        raise FormatError(f"empty utterance (utterance {index})", line=index + 1)
    return Utterance(id=str(index), blocks=tuple(blocks))


def iter_marked_text(
    source: Union[str, TextIO, Iterable[str]], lenient: bool = False
) -> Iterator[Utterance]:
    """Yield the utterances of marker-format text as it is read, one per
    line; utterance ids are the 0-based line numbers."""
    if isinstance(source, str):
        lines = source.split("\n")
        if lines[-1] == "":
            lines.pop()
    else:
        lines = (line.rstrip("\n") for line in source)
    for i, raw in enumerate(lines):
        yield parse_utterance_text(raw, i, lenient=lenient)


def parse_marked_text(
    source: Union[str, TextIO, Iterable[str]], lenient: bool = False
) -> SubtitleDocument:
    """Parse marker-format text, one utterance per line; utterance ids
    are the 0-based line numbers."""
    return SubtitleDocument(tuple(iter_marked_text(source, lenient)))


def serialize_marked_text(doc: SubtitleDocument) -> str:
    """Canonical marker form: single-spaced tokens, trailing <eob>,
    LF line endings."""
    return "".join(utt.text() + "\n" for utt in doc.utterances)


def load_marked_text(path: str, lenient: bool = False) -> SubtitleDocument:
    return SubtitleDocument(tuple(stream_file(path, iter_marked_text, lenient)))
