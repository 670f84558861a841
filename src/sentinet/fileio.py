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
:func:`across_cpus` spreads a build's items over the CPUs a run may use.
"""

from __future__ import annotations

import csv
import json
import os
import pickle
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

# 4-byte indices that fill Linux's smallest pipe (4 KiB): a queue is written whole at once
_QUEUE_ITEMS = 1024


def across_cpus(function: Callable, items: Sequence, weights: Sequence[float]) -> list:
    """``[function(item) for item in items]``, spread over the CPUs this process may use.

    The parent forks a child per further CPU in its affinity mask (none
    without a mask, as on macOS), at most one process per item; if a fork
    fails, the processes running take every item. Each process takes item
    indices, heaviest first, from one pipe: a 4-byte read is atomic, so a
    slower process takes fewer items. A child pickles its results, or its
    exception, to its own pipe and leaves by ``os._exit``. The parent reaps
    every child, even when it raised itself, then raises a child's
    exception, or a ChildProcessError for one without a reply. ``function``
    must be pure, and no thread that a fork would break may run.
    """
    if len(items) > _QUEUE_ITEMS:
        first = across_cpus(function, items[:_QUEUE_ITEMS], weights[:_QUEUE_ITEMS])
        return first + across_cpus(function, items[_QUEUE_ITEMS:], weights[_QUEUE_ITEMS:])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    order = sorted(range(len(items)), key=weights.__getitem__, reverse=True)
    queue, queue_end = os.pipe()
    os.write(queue_end, struct.pack(f"={len(order)}I", *order))
    os.close(queue_end)

    def take() -> dict:
        results = {}
        while packed := os.read(queue, 4):
            (index,) = struct.unpack("=I", packed)
            results[index] = function(items[index])
        return results

    children: dict[int, int] = {}  # pid -> the read end of its reply pipe
    try:
        for _ in range(min(cpus, len(items)) - 1):
            reply, reply_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reply)
                os.close(reply_end)
                break
            if pid == 0:
                try:
                    try:
                        payload = take()
                    except BaseException as exc:
                        payload = exc
                    with open(reply_end, "wb") as handle:
                        pickle.dump(payload, handle)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(reply_end)
            children[pid] = reply
        results = take()
    finally:
        while os.read(queue, 4096):  # what is left after a failure
            pass
        os.close(queue)
        replies = []
        for pid, reply in children.items():
            with open(reply, "rb") as handle:
                replies.append((pid, handle.read(), os.waitpid(pid, 0)[1]))
    for pid, payload, status in replies:
        if not payload:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"worker {pid} ended without a reply, exit status {code}")
        payload = pickle.loads(payload)
        if isinstance(payload, BaseException):
            raise payload
        results.update(payload)
    return [results[index] for index in range(len(items))]


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
