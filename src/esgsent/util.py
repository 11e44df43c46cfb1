"""Small shared helpers."""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, TextIO

from .errors import InputError, SchemaError

_encode_str = json.encoder.encode_basestring
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": "))
# The mode open(path, "w") would give a new file; mkstemp makes its file 0600.
# Reading the umask means setting it, so it is read once, here.
_UMASK = os.umask(0o022)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


def json_value(value: object) -> str:
    """JSON text of one value, as json.dumps(value, ensure_ascii=False,
    separators=(", ", ": ")) writes it.

    Strings, ints and finite floats, the fields of almost every line, are
    written directly; anything else goes through one shared encoder.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
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


def _decode(path: Path, lineno: int, text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{lineno}: malformed JSON: {exc}") from exc


def json_lines(path: Path) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line; bad JSON is a SchemaError naming path:line."""
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                # Decoded again without the line break, so the error's position is on this line.
                value = _decode(path, lineno, line.rstrip("\n"))
            yield lineno, value


def atomic_write_text(path: Path, text: str) -> None:
    """Write a file via temp-file-and-rename so readers never see partial output.

    The file gets the mode that open(path, "w") gives a new file under the
    process's umask, also when it replaces a file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.chmod(tmp_name, _FILE_MODE)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def format_real(value: float, places: int = 6) -> str:
    """Fixed-point rendering used by CSV outputs (6-decimal by default)."""
    return f"{value:.{places}f}"
