"""Tokenization, WER normalization and part-of-speech plumbing.

Break tokens (``<eob>``/``<eol>``) are always isolated as single tokens
regardless of scheme, so downstream metrics can count and strip them
reliably.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from .errors import DataError, FormatError, numbered_lines, stream_file
from .model import BREAKS, EOB, EOL


class Scheme(Enum):
    WHITESPACE = "whitespace"
    INTL13A = "13a"
    MT_DETACHED = "mt"


class WordClass(Enum):
    CONTENT = "content"
    FUNCTION = "function"
    PUNCT = "punct"


# Function words (chinks) are the closed classes; everything else that
# is not punctuation counts as content (chunk).
DEFAULT_CHUNK_CHINK: dict[str, WordClass] = {
    "PUNCT": WordClass.PUNCT,
    "ADP": WordClass.FUNCTION,
    "AUX": WordClass.FUNCTION,
    "CCONJ": WordClass.FUNCTION,
    "SCONJ": WordClass.FUNCTION,
    "DET": WordClass.FUNCTION,
    "PART": WordClass.FUNCTION,
    "PRON": WordClass.FUNCTION,
    "ADJ": WordClass.CONTENT,
    "ADV": WordClass.CONTENT,
    "INTJ": WordClass.CONTENT,
    "NOUN": WordClass.CONTENT,
    "NUM": WordClass.CONTENT,
    "PROPN": WordClass.CONTENT,
    "SYM": WordClass.CONTENT,
    "VERB": WordClass.CONTENT,
    "X": WordClass.CONTENT,
}

# The 17 universal POS tags: exactly those the chunk/chink table classifies.
UPOS_TAGS = frozenset(DEFAULT_CHUNK_CHINK)


@dataclass(frozen=True)
class TokenizedUtterance:
    tokens: tuple[str, ...]

    def words(self) -> list[str]:
        return [t for t in self.tokens if t not in BREAKS]


@dataclass(frozen=True)
class TaggedUtterance:
    """Tokens paired with their UPOS tags; break tokens carry None."""

    items: tuple[tuple[str, Optional[str]], ...]


_BREAK_SPLIT_RE = re.compile(f"({EOB}|{EOL})")

# 13a pads these 29 ASCII characters, the space among them, with spaces.
_13A_PUNCT_TABLE = str.maketrans({ch: f" {ch} " for ch in "{|}~[\\]^_` !\"#$%&()*+:;<=>?@/"})
# Both tokenizers pad `.` and `,` with a space on each side not next to a digit.
_DOT_COMMA_LEFT_RE = re.compile(r"([^0-9])([\.,])")
_DOT_COMMA_RIGHT_RE = re.compile(r"([\.,])([^0-9])")
_13A_DIGIT_DASH_RE = re.compile(r"([0-9])(-)")


def _tokenize_13a_span(span: str) -> list[str]:
    norm = span
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")
    norm = f" {norm} ".translate(_13A_PUNCT_TABLE)
    # Each rule below needs its character, so a span without it skips it.
    if "." in norm or "," in norm:
        norm = _DOT_COMMA_LEFT_RE.sub(r"\1 \2 ", norm)
        norm = _DOT_COMMA_RIGHT_RE.sub(r" \1 \2", norm)
    if "-" in norm:
        norm = _13A_DIGIT_DASH_RE.sub(r"\1 \2 ", norm)
    return norm.split()


class _DetachablePunct(dict):
    """`str.translate` table that pads detachable punctuation with spaces.

    Detachable means Unicode category P* or S*, except ``. , ' ’``, which
    the digit and apostrophe rules handle.  Each character is classified
    the first time it is looked up, and the result is stored.
    """

    def __missing__(self, code: int):
        ch = chr(code)
        if ch not in ".,'’" and unicodedata.category(ch)[0] in "PS":
            value = f" {ch} "
        else:
            value = code  # maps to itself; None would delete it
        self[code] = value
        return value


_DETACH_TABLE = _DetachablePunct()


_MT_APOS_EN_RE = re.compile(r"(\w)(['’])(\w)", re.UNICODE)


def _tokenize_mt_span(span: str, lang: str) -> list[str]:
    norm = f" {span} ".translate(_DETACH_TABLE)
    if "." in norm or "," in norm:
        norm = _DOT_COMMA_LEFT_RE.sub(r"\1 \2 ", norm)
        norm = _DOT_COMMA_RIGHT_RE.sub(r" \1 \2", norm)
    if "'" in norm or "’" in norm:
        if lang.startswith("fr") or lang.startswith("it"):
            # Elision attaches left: l'homme -> l' homme
            norm = _MT_APOS_EN_RE.sub(r"\1\2 \3", norm)
        else:
            # English-style: don't -> don 't
            norm = _MT_APOS_EN_RE.sub(r"\1 \2\3", norm)
    return norm.split()


# Every rule of the 13a and mt schemes, and WER's edge stripping, acts
# within one whitespace-separated word and touches only characters that
# are not alphanumeric.  So a span's tokens are its words' tokens in
# order, an alphanumeric word is its own token, and each other word is
# worked out once and remembered.  A memo is emptied when it reaches
# this many entries, the bound sacreBLEU gives its 13a cache.
_MEMO_SIZE = 2**16


class _WordMemo(dict):
    """Result of `rule` for each word looked up, computed on first sight."""

    def __init__(self, rule):
        super().__init__()
        self._rule = rule

    def __missing__(self, word: str):
        if len(self) >= _MEMO_SIZE:
            self.clear()
        value = self[word] = self._rule(word)
        return value


_13A_WORDS = _WordMemo(lambda word: tuple(_tokenize_13a_span(word)))
_MT_ELISION_WORDS = _WordMemo(lambda word: tuple(_tokenize_mt_span(word, "fr")))
_MT_EN_WORDS = _WordMemo(lambda word: tuple(_tokenize_mt_span(word, "en")))
_WER_WORDS = _WordMemo(lambda token: _strip_edge_punct(token).lower())


def tokenize(text: str, scheme: Scheme, lang: str = "en") -> TokenizedUtterance:
    """Tokenize one utterance.  Break tokens are isolated in every scheme."""
    if scheme is Scheme.WHITESPACE:
        memo = None
    elif scheme is Scheme.INTL13A:
        memo = _13A_WORDS
    elif lang.startswith("fr") or lang.startswith("it"):
        memo = _MT_ELISION_WORDS
    else:
        memo = _MT_EN_WORDS
    tokens: list[str] = []
    for part in _BREAK_SPLIT_RE.split(text):
        if part in BREAKS:
            tokens.append(part)
        elif memo is None:
            tokens.extend(part.split())
        else:
            for word in part.split():
                if word.isalnum():
                    tokens.append(word)
                else:
                    tokens.extend(memo[word])
    return TokenizedUtterance(tuple(tokens))


def _strip_edge_punct(word: str) -> str:
    start, end = 0, len(word)
    while start < end and unicodedata.category(word[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(word[end - 1]).startswith("P"):
        end -= 1
    return word[start:end]


def normalize_for_wer(tokens: TokenizedUtterance) -> list[str]:
    """Lowercased, unpunctuated word sequence for WER scoring."""
    out = []
    for token in tokens.tokens:
        if token.isalnum():
            out.append(token.lower())
        elif token not in BREAKS:
            word = _WER_WORDS[token]
            if word:
                out.append(word)
    return out


# A token ID: a word's "n", a multiword-token range "n-m" or an empty
# node "n.m", in ASCII digits only.
_TOKEN_ID_RE = re.compile(r"[0-9]+(?:[-.][0-9]+)?")


def iter_conllu(
    source: Union[str, TextIO, Iterable[str]]
) -> Iterator[tuple[int, list[tuple[str, str]]]]:
    """Yield each sentence of CoNLL-U text as it is read: the 1-based
    line of its first token and its (FORM, UPOS) sequence.

    Multiword-token ranges ("n-m") and empty nodes ("n.m") are skipped;
    their parts carry the tags.
    """
    current: list[tuple[str, str]] = []
    first = 0
    for lineno, line in numbered_lines(source):
        if not line.strip():
            if current:
                yield first, current
                current = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise FormatError(f"expected 10 columns, got {len(cols)}", line=lineno)
        token_id, form, upos = cols[0], cols[1], cols[3]
        if not _TOKEN_ID_RE.fullmatch(token_id):
            raise FormatError(f"malformed token ID {token_id!r}", line=lineno)
        if not token_id.isdigit():
            continue
        if upos not in UPOS_TAGS:
            raise FormatError(f"unknown UPOS {upos!r}", line=lineno)
        if not current:
            first = lineno
        current.append((form, upos))
    if current:
        yield first, current


def parse_conllu(source: Union[str, TextIO, Iterable[str]]) -> list[list[tuple[str, str]]]:
    """Read (FORM, UPOS) sequences from CoNLL-U text, as `iter_conllu`."""
    return [sentence for _, sentence in iter_conllu(source)]


def load_conllu(path: str) -> list[list[tuple[str, str]]]:
    return [sentence for _, sentence in stream_file(path, iter_conllu)]


def attach_tags(
    tokens: TokenizedUtterance,
    tags: Sequence[str],
    utt_id: str = "?",
) -> TaggedUtterance:
    """Attach a tag sequence positionally to the non-break tokens."""
    n_words = sum(1 for t in tokens.tokens if t not in BREAKS)
    if n_words != len(tags):
        raise DataError(
            f"utterance {utt_id!r}: {n_words} word tokens but {len(tags)} tags"
        )
    items = []
    it = iter(tags)
    for token in tokens.tokens:
        if token in BREAKS:
            items.append((token, None))
        else:
            tag = next(it)
            if tag not in UPOS_TAGS:
                raise DataError(f"utterance {utt_id!r}: unknown UPOS {tag!r}")
            items.append((token, tag))
    return TaggedUtterance(tuple(items))


def classify_chunk_chink(tag: str) -> WordClass:
    if tag not in DEFAULT_CHUNK_CHINK:
        raise DataError(f"unknown UPOS {tag!r}")
    return DEFAULT_CHUNK_CHINK[tag]
