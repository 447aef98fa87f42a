"""Exception hierarchy shared by all subeval modules, and the UTF-8 file
opener every loader reads through."""

from contextlib import contextmanager


class SubevalError(Exception):
    """Base class for all toolkit errors."""


class FormatError(SubevalError):
    """Malformed input file (marked text, SRT, CoNLL-U, Pharaoh, config)."""


class DataError(SubevalError):
    """Structurally valid input that violates a metric precondition."""


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
