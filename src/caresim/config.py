"""File I/O and the strict readers of what the files hold.

It imports no module of the package: it knows the ``Document`` base, not the
documents a run holds (``env`` does).

Every input file is read by ``read_bytes`` and decoded by ``read_text``.
Every artifact is written by ``write_text``: ``write_csv`` and ``write_json``
render their text and hand it to it, and the transcript goes to it directly.
``write_json`` renders through ``render_json``, which splices in the text that
a document has already rendered (``Document.indented_json``).
Every value is checked where it is read and never coerced: a string, a boolean
or a non-finite number where a number belongs is an error.

Every rule that turns outside text into a number is here, and the command-line
flags go through the same ones as the files: ``parse_float`` reads a CSV cell
(``read_float``) and a float flag (``number``), ``is_count`` a CSV count and
``integer`` an integer flag. A zero that configures a run (a flag, a
probability, a reward weight) is read as 0.0, so documents equal in value are
equal values with equal text; an artifact cell keeps its sign. Every flag that
names a file is read by ``path``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import sys
from dataclasses import MISSING, fields
from functools import cache, cached_property
from pathlib import Path
from typing import Any, Collection, Iterable


class ConfigError(ValueError):
    """An input could not be read, failed to parse or violated its schema."""


def read_bytes(path: str | Path, what: str) -> bytes:
    """The bytes of an input file; ``what`` names the file in the error.

    Read unbuffered, in one ``readall``. A path the system cannot take (one
    holding a NUL) is a ConfigError too, as ``path`` rejects it on the
    command line.
    """
    try:
        with open(path, "rb", buffering=0) as file:
            return file.readall()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_text(path: str | Path, what: str, data: bytes | None = None) -> str:
    """The text of a UTF-8 input file, with universal newlines as a text-mode ``open`` gives it.

    ``data`` is the file's bytes if the caller has already read them.
    """
    if data is None:
        data = read_bytes(path, what)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_csv(path: str | Path, what: str, header: list[str], data: bytes | None = None) -> list[list[str]]:
    """The rows under the first row of a CSV input file, which must be ``header``.

    ``data`` is the file's bytes if the caller has already read them.
    """
    try:
        rows = list(csv.reader(io.StringIO(read_text(path, what, data))))
    except csv.Error as exc:
        raise ConfigError(f"cannot parse {what} {path}: {exc}") from exc
    if rows[:1] != [header]:
        raise ConfigError(f"unrecognized {what} header in {path}")
    return rows[1:]


def write_text(path: str | Path, text: str) -> None:
    """Write an artifact: the UTF-8 bytes of ``text`` replace whatever the file held.

    An existing file is overwritten from offset 0 and then, if it was longer,
    cut to the bytes written, instead of being truncated to zero when it is
    opened; the bytes left are the same, but the file system need not free the
    old blocks and allocate new ones. A write that fails partway leaves the new
    bytes written so far. A target that is not a regular file (``/dev/null``, a
    FIFO) is written but not cut. A new file gets the mode that
    ``open(path, "w")`` gives.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            status = os.fstat(fd)
            # a cut that keeps the size still costs ext4 a journalled truncate
            if stat.S_ISREG(status.st_mode) and status.st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def write_csv(path: str | Path, rows: Iterable[Iterable], lineterminator: str) -> None:
    """Write a CSV artifact; a float cell is written as its repr and ``None`` as an empty cell."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=lineterminator).writerows(rows)
    write_text(path, buffer.getvalue())


def render_json(value: Any, depth: int = 0) -> str:
    """``json.dumps(value, indent=2)``, as it reads nested ``depth`` levels deep in a document.

    A ``Document`` that is ``value`` itself or a dict value at any depth
    stands for its ``to_dict()``, and its ``indented_json`` is spliced in
    instead of being encoded again. Dict keys must be strings. A JSON
    string holds no raw newline, so re-indenting text is replacing each
    newline.
    """
    if isinstance(value, Document):
        text = value.indented_json
    elif isinstance(value, dict) and value:
        pad = "\n" + "  " * (depth + 1)
        entries = [f"{pad}{json.dumps(key)}: {render_json(item, depth + 1)}" for key, item in value.items()]
        return "{" + ",".join(entries) + pad[:-2] + "}"
    elif isinstance(value, (dict, list, tuple)):
        text = json.dumps(value, indent=2)
    else:
        return json.dumps(value)  # a scalar reads the same at every depth
    return text.replace("\n", "\n" + "  " * depth) if depth else text


def write_json(path: str | Path, doc: Any) -> None:
    """Write a JSON artifact: ``json.dumps(doc, indent=2)`` and a newline, rendered by ``render_json``."""
    write_text(path, render_json(doc) + "\n")


class Document:
    """Base of ``TransitionModel``, ``ScenarioSpec`` and ``RewardWeights``."""

    _packaged: str  # file name under caresim/data

    @classmethod
    @cache
    def default(cls):
        """The shipped document, read by path from caresim/data/ and parsed once per process.

        Every call returns the same read-only instance of ``cls``. Build a
        variant with ``from_dict``.
        """
        return cls.from_file(Path(__file__).with_name("data") / cls._packaged)

    @classmethod
    def from_file(cls, path: str | Path):
        """Read a document, mapping read and parse failures onto ConfigError."""
        try:
            doc = json.loads(read_text(path, "config file"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(doc)

    @cached_property
    def indented_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, rendered on first use and kept by this value.

        Documents are immutable, so the text cannot go stale. Every manifest
        records the three documents of its run; the text is rendered once per
        document object, so only a process that writes several manifests from
        one object (repeated ``main`` calls on the shipped defaults) saves work.
        """
        return json.dumps(self.to_dict(), indent=2)


def settings(cls) -> list[str]:
    """The fields of a configuration dataclass that have a default, i.e. that an option may set."""
    return [f.name for f in fields(cls) if f.default is not MISSING]


def read_object(value: Any, where: str, required: Collection[str] = (), optional: Collection[str] = ()) -> dict:
    """``value`` as an object holding every ``required`` key and no key outside ``optional``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(sorted(map(str, unknown)))}")
    for key in required:
        if key not in value:
            raise ConfigError(f"missing field {key!r} in {where}")
    return value


def is_number(value: Any) -> bool:
    """True for an int or a float; a bool is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_number(value: Any, where: str) -> float:
    """``value`` as a float if it is a finite JSON number; bools and strings are rejected."""
    # the comparisons are false for NaN and the infinities, and exact for any int
    if not (is_number(value) and -sys.float_info.max <= value <= sys.float_info.max):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def parse_float(text: str) -> float:
    """``float(text)`` for text written as ``repr`` writes a float; ValueError for any other.

    The text must be ASCII with no whitespace around it and no ``_``;
    ``float`` alone also takes those, and other scripts' digits. ``nan``,
    ``inf`` and ``-0.0`` are read: what range a number may take is the
    rule of the field that holds it.
    """
    if not (text.isascii() and "_" not in text and text.strip() == text):
        raise ValueError(f"not a number as repr writes one: {text!r}")
    return float(text)


def read_float(cell: str, where: str) -> float:
    """A CSV cell as a float by ``parse_float``, held to the finite-number rule of ``read_number``.

    The cell is read exactly: ``-0.0`` stays ``-0.0``.
    """
    try:
        value: Any = parse_float(cell)
    except ValueError:
        value = cell  # a cell left as text is not a number: read_number rejects it and shows it
    return read_number(value, where)


def is_count(text: str) -> bool:
    """True for a non-empty string of ASCII digits; ``str.isdecimal`` also takes other scripts' digits."""
    return text.isascii() and text.isdigit()


def number(text: str) -> float:
    """A float flag by ``parse_float``, with ``-0.0`` read as ``0.0``; the ``type`` of every one."""
    return parse_float(text) + 0.0  # -0.0 + 0.0 is 0.0; every other value stays as it is


def integer(text: str) -> int:
    """An integer flag: ASCII digits with an optional leading ``-``; the ``type`` of every one.

    ``int`` alone also takes whitespace around the digits, ``_``, ``+`` and
    other scripts' digits.
    """
    if not is_count(text.removeprefix("-")):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


def path(text: str) -> str:
    """A path flag, as given, if the system can take it as a path; the ``type`` of every one.

    A NUL, or a lone surrogate that ``os.fsencode`` cannot turn back into
    bytes, is a ValueError here rather than deep inside ``os`` once the run
    has begun. A shell passes neither; a caller of ``main`` can.
    """
    if "\x00" in text:
        raise ValueError(f"a path holds no NUL: {text!r}")
    os.fsencode(text)
    return text


def read_integer(value: Any, where: str, minimum: int | None = None) -> int:
    """``value`` if it is an int, of at least ``minimum`` if one is given; bools, floats and strings are rejected."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value}")
    return value


def read_choice(value: Any, where: str, choices: Collection[str]) -> str:
    """``value`` if it is one of the strings ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{where} must be {' or '.join(map(repr, choices))}, got {value!r}")
    return value


def require_probability(value: Any, where: str) -> float:
    """``value`` as a float if it is a number in [0, 1], with ``-0.0`` read as ``0.0``."""
    if not (is_number(value) and 0.0 <= value <= 1.0):
        raise ConfigError(f"{where} must be in [0, 1], got {value!r}")
    return float(value) + 0.0


def read_name(value: Any, where: str) -> str:
    """``value`` as one line of text that UTF-8 can encode, with no whitespace around it; tabs inside are allowed."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, which a JSON escape can spell
        raise ConfigError(f"{where} must be text that UTF-8 can encode, got {value!r}") from exc
    if value.strip() != value or len(value.splitlines()) > 1:  # every line boundary is whitespace
        raise ConfigError(f"{where} must be one line without leading or trailing whitespace, got {value!r}")
    return value
