"""Atomic artifact writes.

Every artifact is streamed into a temporary file in its target's directory
and renamed over the target only when the whole body has been written, so a
crash or an exception mid-write leaves the previous artifact (or none) in
place, never a truncated one.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


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


def write_json(payload, path: str | Path) -> None:
    """Indented, key-sorted UTF-8 JSON with a trailing newline."""
    with atomic_open(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
