"""Small shared helpers."""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from .errors import InputError, SchemaError

# JSON text of a string, a str subclass too, as json_value writes it.
json_str = json.encoder.encode_basestring
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": "))
# (value, end) of the JSON value at an index, as json.loads decodes it, without its three Python frames.
_SCAN_ONCE = json.JSONDecoder().scan_once
# The mode open(path, "w") would give a new file; mkstemp makes its file 0600.
# Reading the umask means setting it, so it is read once, here.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK
# Characters atomic_write_text hands to the file at a time. A slice and its
# encoding take at most 4 bytes per character each: 256 KiB together.
_WRITE_SLICE = 1 << 15


class Record:
    """First base of a subclass of a NamedTuple whose ``__new__`` checks the
    fields or whose ``len()`` is not the field count: ``_make``, and so
    ``_replace``, build through the subclass's constructor."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "Record":
        return cls(*iterable)


def note(category: str, message: str) -> None:
    """Print one ``note[<category>]: <message>`` line on stderr."""
    print(f"note[{category}]: {message}", file=sys.stderr)


def has_lone_surrogate(text: str) -> bool:
    """Whether a string holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def json_value(value: object) -> str:
    """JSON text of one value, as json.dumps(value, ensure_ascii=False,
    separators=(", ", ": ")) writes it.

    Strings, ints and finite floats, the fields of almost every line, are
    written directly; anything else goes through one shared encoder.
    """
    kind = type(value)
    if kind is str:
        return json_str(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return _ENCODER.encode(value)


@contextmanager
def open_text(path: Path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading; a decode error names the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def read_text(path: Path) -> str:
    """The whole of a UTF-8 text file; a decode error names the file."""
    with open_text(path) as handle:
        return handle.read()


def json_line(line: str, path: Path, lineno: int) -> object:
    """What ``json.loads`` gives for one non-blank line of a file, which may
    keep its ``\\n``; bad JSON is a SchemaError naming path:line.

    Only JSON whitespace (space, tab, CR, LF) may surround the value.
    """
    # The C scanner decodes a value that starts the line; anything it
    # rejects or leaves text after goes through json.loads.
    try:
        value, end = _SCAN_ONCE(line, 0)
        if not line[end:].strip(" \t\n\r"):
            return value
    except (StopIteration, ValueError):
        pass
    # The line break is JSON whitespace; without it an error's position is on this line.
    try:
        return json.loads(line.rstrip("\n"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{lineno}: malformed JSON: {exc}") from exc


def json_lines(path: Path) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line, each value as ``json_line`` gives it.

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n`` only, never at U+2028 or U+0085,
    which may stand raw inside a JSON string; a line that ``str.isspace``
    finds blank is skipped but counted.
    """
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isspace():
                yield lineno, json_line(line, path, lineno)


def drain(items: list) -> Iterator:
    """Yield a list's items in order, taking each out of the list as it goes.

    The list is left empty, and an item is freed once the consumer drops it.
    """
    items.reverse()
    pop = items.pop
    while items:
        yield pop()


@contextmanager
def atomic_open(*paths: Path) -> Iterator[list[TextIO]]:
    """Handles of temporary files, one per path, each renamed over its path
    once all are written, so readers never see partial output.

    A caller writes each file as it goes, with no buffer of its text. If
    anything fails first, every temporary file is removed and the files at
    the paths are left as they were. Each file gets the mode that
    open(path, "w") gives a new file under the process's umask, also when
    it replaces a file.
    """
    handles: list[TextIO] = []
    tmp_names: list[str] = []
    try:
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            tmp_names.append(tmp_name)
            handles.append(os.fdopen(fd, "w", encoding="utf-8", newline=""))
        yield handles
        for handle in handles:
            handle.close()
        for tmp_name, path in zip(tmp_names, paths):
            os.chmod(tmp_name, _FILE_MODE)
            os.replace(tmp_name, path)
    except BaseException:
        for handle in handles:
            with suppress(OSError):
                handle.close()
        for tmp_name in tmp_names:
            with suppress(OSError):
                os.unlink(tmp_name)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    """Write a whole text file through atomic_open.

    The text goes to the file in slices of _WRITE_SLICE characters, so its
    encoding never holds a copy of the whole text.
    """
    with atomic_open(Path(path)) as (handle,):
        for i in range(0, len(text), _WRITE_SLICE):
            handle.write(text[i:i + _WRITE_SLICE])


def format_real(value: float, places: int = 6) -> str:
    """Fixed-point rendering used by CSV outputs (6-decimal by default)."""
    return f"{value:.{places}f}"
