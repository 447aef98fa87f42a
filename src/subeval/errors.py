"""Exception hierarchy shared by all subeval modules, `located`, which
names the input file in an error, and the UTF-8 opener loaders use."""

from contextlib import contextmanager
from typing import Optional


class SubevalError(Exception):
    """Base class for all toolkit errors.  `line`, the 1-based input line
    when known, is kept out of the message: `located` adds it."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line


class FormatError(SubevalError):
    """Malformed input file (marked text, SRT, CoNLL-U, Pharaoh, config)."""


class DataError(SubevalError):
    """Structurally valid input that violates a metric precondition."""


@contextmanager
def located(label: str):
    """Re-raise a SubevalError of the block as the same class, its message
    prefixed with `label:line:`, or with `label:` when the line is unknown."""
    try:
        yield
    except SubevalError as exc:
        where = label if exc.line is None else f"{label}:{exc.line}"
        raise type(exc)(f"{where}: {exc}") from None


@contextmanager
def open_utf8(path: str):
    """Open `path` as UTF-8 text.  A decode error raised while the file
    is read becomes a FormatError naming the path and the 1-based line of
    the first invalid byte; the line is found only on that error path."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw_fh:
                raw = raw_fh.read()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = raw.count(b"\n", 0, exc.start) + 1
                raise FormatError(f"{path}:{line}: not valid UTF-8") from None
            raise
