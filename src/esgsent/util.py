"""Small shared helpers."""

from __future__ import annotations

import json
import os
import stat
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from .errors import InputError, SchemaError

# JSON text of a string, a str subclass too, as json.dumps(..., ensure_ascii=False) writes it.
json_str = json.encoder.encode_basestring
# (value, end) of the JSON value at an index, as json.loads decodes it, without its three Python frames.
_SCAN_ONCE = json.JSONDecoder().scan_once
# The mode open(path, "w") gives a new file, and atomic_open its temporary
# file. Reading the umask means setting it, so it is read once, here.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


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
    keep its ``\\n``; bad JSON is a SchemaError naming path:line, and so is
    an integer longer than Python's limit on the digits of an int.

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
    # A JSONDecodeError is a ValueError, and so is the error for an integer past sys.get_int_max_str_digits().
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: malformed JSON: {exc}") from exc


def drain(items: list) -> Iterator:
    """Yield a list's items in order, taking each out of the list as it goes.

    The list is left empty, and an item is freed once the consumer drops it.
    """
    items.reverse()
    pop = items.pop
    while items:
        yield pop()


def _create_temporary(path: Path) -> tuple[int, str]:
    """(descriptor, name) of a new file ``.<random hex>.tmp`` beside the path,
    a name that fits wherever the path's does, opened for writing with the
    mode open(path, "w") gives: 0o666 less the umask.

    O_EXCL never opens a file, or follows a link, that is already there: a
    name that exists is passed over for another.
    """
    for _ in range(100):
        name = os.path.join(path.parent, f".{os.urandom(6).hex()}.tmp")
        try:
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temporary name beside {path}")


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
            fd, tmp_name = _create_temporary(path)
            tmp_names.append(tmp_name)
            handles.append(os.fdopen(fd, "w", encoding="utf-8", newline=""))
        yield handles
        for handle in handles:
            handle.close()
        for tmp_name, path in zip(tmp_names, paths):
            os.replace(tmp_name, path)
    except BaseException:
        for handle in handles:
            with suppress(OSError):
                handle.close()
        for tmp_name in tmp_names:
            with suppress(OSError):
                os.unlink(tmp_name)
        raise


def _holds_text(path: Path, data: bytes) -> bool:
    """Whether the path is already what atomic_write_text would leave: a
    regular file of mode _FILE_MODE whose bytes are ``data``.

    A symlink is not followed and a FIFO is not waited on: the type and mode
    come from fstat of what was opened.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return False
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode) or stat.S_IMODE(info.st_mode) != _FILE_MODE:
            return False
        # A short read, which a regular file does not give, would only make the file be replaced.
        return info.st_size == len(data) and os.read(fd, len(data) + 1) == data
    finally:
        os.close(fd)


def atomic_write_text(path: Path, text: str) -> None:
    """Write a whole text file through atomic_open, unless the path already
    holds it.

    A path that is a regular file with the mode atomic_open gives and
    exactly the text's UTF-8 bytes is left as it is, with its inode and
    mtime, so make-style tools see no change; any other file is replaced.
    """
    path = Path(path)
    data = text.encode("utf-8")
    if _holds_text(path, data):
        return
    with atomic_open(path) as (handle,):
        # The bytes already compared, written under the text layer, which holds nothing yet.
        handle.buffer.write(data)


def header_error(context: object, expected: list[str], header: list[str]) -> SchemaError:
    """The error for a CSV file whose header is not the expected one; a
    leading byte-order mark, which no screen shows, is named."""
    got = ",".join(header)
    if got.startswith("\ufeff"):
        return SchemaError(f"{context}: the file starts with a byte-order mark (U+FEFF); "
                           f"expected header {','.join(expected)}, got {got[1:]} after it")
    return SchemaError(f"{context}: expected header {','.join(expected)}, got {got}")


def format_real(value: float) -> str:
    """Fixed-point rendering, to 6 decimals, used by CSV outputs."""
    return f"{value:.6f}"
