"""Exception hierarchy shared by all subeval modules, `located`, which
names the input file in an error, and the UTF-8 opener, line source and
streaming reader that every input reader uses."""

from contextlib import contextmanager
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

T = TypeVar("T")


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
def located(label: str, line: Optional[int] = None):
    """Re-raise a SubevalError of the block as the same class, its message
    prefixed with `label:line:`, or with `label:` when the line is unknown.
    `line` is the line of an error that carries none."""
    try:
        yield
    except SubevalError as exc:
        line = line if exc.line is None else exc.line
        where = label if line is None else f"{label}:{line}"
        raise type(exc)(f"{where}: {exc}") from None


@contextmanager
def open_utf8(path: str):
    """Open `path` as UTF-8 text, less a leading byte order mark, whose
    lines end at each LF alone, so a CR stays in its line.  A decode
    error raised while the file is read becomes a FormatError naming the
    path and the 1-based line of the first invalid byte, counted in LFs
    as well; the line is found only on that error path."""
    with open(path, encoding="utf-8-sig", newline="\n") as fh:
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


def numbered_lines(source: Union[str, Iterable[str]]) -> Iterator[tuple[int, str]]:
    """(1-based line, its text without the LF) for each line of `source`:
    a string, or the lines of a file opened by `open_utf8`.  A string
    loses its leading U+FEFF, as the file loses its byte order mark, and
    is split at each LF alone; a final LF ends the last line and starts
    no new one, as in a file."""
    if isinstance(source, str):
        lines = source.lstrip("\ufeff").split("\n")
        if lines[-1] == "":
            lines.pop()
        return enumerate(lines, start=1)
    return enumerate(map(str.rstrip, source, repeat("\n")), start=1)


def stream_file(path: str, reader: Callable[..., Iterable[T]], *args) -> Iterator[T]:
    """Yield what `reader(fh, *args)` yields from the file at `path`, as
    the file is read; its errors name the path."""
    with open_utf8(path) as fh, located(path):
        yield from reader(fh, *args)
