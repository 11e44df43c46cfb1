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


def json_lines(path: Path) -> Iterator[tuple[int, object]]:
    """(line number, value) of each non-blank line; bad JSON is a SchemaError naming path:line."""
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{path}:{lineno}: malformed JSON: {exc}") from exc


def atomic_write_text(path: Path, text: str) -> None:
    """Write a file via temp-file-and-rename so readers never see partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
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
