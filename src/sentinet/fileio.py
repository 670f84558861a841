"""Artifact I/O: atomic writes, record lines, CSV tables and ``#``-comment lists.

Every artifact is streamed into a temporary file in its target's directory
and renamed over the target only when the whole body has been written, so a
crash or an exception mid-write leaves the previous artifact (or none) in
place, never a truncated one.

Tables are comma-separated with ``\n`` line ends. An empty field is a
missing value (None), and a float is written in its shortest round-trip
form, so reading it back with ``float`` gives the same bits.

Record files (``graph.edges``, ``component.edges``, ``partition.txt``,
``sentinels.txt``) hold one record per line, its fields separated by spaces.
Every character ``str.splitlines`` breaks on is whitespace to ``str.split``,
so fields that :func:`is_field` admits read back as written.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """Text handle whose contents replace ``path`` when the block exits cleanly.

    Lines are written as given (no newline translation). On an exception
    the temporary file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def is_field(value) -> bool:
    """Whether ``value`` can be one field of a record line.

    It must be a non-empty string with no whitespace, as ``str.split``
    sees it, and no lone surrogate, which UTF-8 cannot encode.
    """
    if not isinstance(value, str) or value.split() != [value]:
        return False
    try:
        value.encode()
    except UnicodeEncodeError:
        return False
    return True


def read_records(path: str | Path) -> list[list[str]]:
    """The whitespace-separated fields of each non-blank line of a UTF-8 record file."""
    text = Path(path).read_text(encoding="utf-8")
    return [fields for fields in map(str.split, text.splitlines()) if fields]


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Atomically write each of ``lines`` followed by ``\\n``, as one string."""
    with atomic_open(path) as handle:
        handle.write("".join([f"{line}\n" for line in lines]))


def write_json(payload, path: str | Path) -> None:
    """Indented, key-sorted UTF-8 JSON with a trailing newline."""
    with atomic_open(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, ensure_ascii=False)
        handle.write("\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row; None is written as an empty field."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path) -> list[list[str]]:
    """Every row of a CSV file, the header included, as lists of text cells."""
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def read_lines(path: str | Path) -> list[str]:
    """The stripped lines of a UTF-8 list file that are neither blank nor '#' comments."""
    with open(path, encoding="utf-8") as handle:
        stripped = (line.strip() for line in handle)
        return [line for line in stripped if line and not line.startswith("#")]
