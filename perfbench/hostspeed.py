"""Host speed probe: a fixed kernel timed next to every benchmark job.

On a shared virtual machine, the same job runs up to 1.8 times slower for
minutes at a time while other tenants load the host. The guest sees no
steal time: the job's CPU time grows with its wall time. Job times are
therefore rescaled by how long this kernel took just before and just after
the job. The kernel does what the pipeline spends its time on (regex
tokenizing, trigram counting, JSON round trips, a small matrix product),
and it uses no sentinet code, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import json
import random
import re
import time
from collections import Counter

import numpy

# Rescaled times are seconds on a host where kernel() takes this long
REFERENCE_S = 0.35

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+")


def _texts() -> list[str]:
    rng = random.Random(7)
    words = [f"w{i}" for i in range(400)]
    return [
        " ".join(rng.choice(words) for _ in range(18)) + " https://t.co/ab @who"
        for _ in range(20000)
    ]


_TEXTS = _texts()
_MATRIX = numpy.random.default_rng(0).random((200, 200))


def kernel() -> float:
    """Seconds the fixed probe work takes now.

    The cyclic garbage collector is off meanwhile, so the size of the
    caller's heap does not change the work.
    """
    gc.disable()
    try:
        return _timed_work()
    finally:
        gc.enable()


def _timed_work() -> float:
    start = time.perf_counter()
    docs = []
    for text in _TEXTS:
        cleaned = _MENTION_RE.sub(" ", _URL_RE.sub(" ", text)).lower()
        tokens = tuple(_TOKEN_RE.findall(cleaned))
        docs.append(Counter(zip(tokens, tokens[1:], tokens[2:])))
    encoded = json.dumps([{"text": t, "trigrams": len(d)} for t, d in zip(_TEXTS, docs)])
    json.loads(encoded)
    for _ in range(5):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start
