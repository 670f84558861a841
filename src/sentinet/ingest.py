"""Parsing of archived tweet records, URL/domain handling, and text cleanup.

Input corpora are JSON Lines files, one tweet per line, with fields
tweet_id, author_id, created_at (ISO-8601 UTC), text, retweeted_author_id
(null for original tweets) and urls (array of strings).
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Sequence
from urllib.parse import urlsplit

import numpy as np
import scipy.sparse as sp

from .errors import EmptyCorpusError, UrlParseError, VocabularyOverflowError
from .fileio import atomic_open, read_lines

Trigram = tuple[str, str, str]

# the token between two texts of a batch; the encoder gives it id 0
BOUNDARY = "\x00"
# no step of the tokenizer matches or case-folds across a newline
_BATCH_JOIN = "\n" + BOUNDARY + "\n"
_URL = r"(?:https?://|www\.)\S+"
_URL_RE = re.compile(_URL, re.IGNORECASE)
# on lowercased ASCII text the two URL patterns match alike; the
# case-sensitive one skips ahead to each "h" or "w" instead of trying a
# match at every character
_LOWER_URL_RE = re.compile(_URL)
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+|" + BOUNDARY)
# on ASCII text, _TOKEN_RE's runs are the runs of letters and digits: this
# byte table maps every other ASCII character but the boundary to a space
_ASCII_SEPARATORS = bytes(
    c if chr(c).isalnum() or chr(c) == BOUNDARY else 0x20 for c in range(256)
)
# bits of one token id in a trigram code; three ids fill 63 bits of an int64
TOKEN_ID_BITS = 21
# token ids, in whole streams, that TrigramEncoder.count gathers before it
# reduces them to trigram runs
CHUNK_TOKENS = 1 << 16
# one shared date per distinct day, which TweetRecord.day refers to: a
# corpus spans few days, and a date per record would cost 32 bytes each
_DAYS: dict[date, date] = {}


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One archived tweet. ``retweeted_author_id`` is set iff it is a retweet."""

    tweet_id: str
    author_id: str
    created_at: datetime
    text: str
    retweeted_author_id: str | None = None
    urls: tuple[str, ...] = ()
    # the UTC day, read by many stages, stored once in its own slot; equality,
    # hashing and repr leave it out, as created_at already decides it
    day: date = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        day = self.created_at.date()
        object.__setattr__(self, "day", _DAYS.setdefault(day, day))


@dataclass
class ParseResult:
    records: list[TweetRecord]
    skipped: int


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime (second resolution)."""
    raw = value.strip()
    # Python 3.10's fromisoformat rejects a "Z" suffix
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    parsed = datetime.fromisoformat(raw)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    # a zero offset parses to the timezone.utc singleton, which needs no conversion
    if parsed.tzinfo is not timezone.utc:
        parsed = parsed.astimezone(timezone.utc)
    if parsed.microsecond:
        parsed = parsed.replace(microsecond=0)
    return parsed


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def record_from_json(obj: dict, accounts: dict[str, str]) -> TweetRecord:
    """The record of one decoded JSON object; raises ValueError, KeyError or TypeError.

    ``accounts`` maps each account id seen so far to one shared string,
    which the record's author and retweeted-author ids refer to.
    """
    tweet_id = obj["tweet_id"]
    author_id = obj["author_id"]
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("tweet_id must be a non-empty string")
    if not isinstance(author_id, str) or not author_id:
        raise ValueError("author_id must be a non-empty string")
    retweeted = obj.get("retweeted_author_id")
    if retweeted is not None:
        if not isinstance(retweeted, str) or not retweeted:
            raise ValueError("retweeted_author_id must be null or a non-empty string")
        retweeted = accounts.setdefault(retweeted, retweeted)
    created_at = obj["created_at"]
    if not isinstance(created_at, str):
        raise ValueError("created_at must be a string")
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    urls = obj.get("urls", [])
    if not isinstance(urls, list) or not all(isinstance(u, str) for u in urls):
        raise ValueError("urls must be an array of strings")
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=accounts.setdefault(author_id, author_id),
        created_at=parse_timestamp(created_at),
        text=text,
        retweeted_author_id=retweeted,
        urls=tuple(urls),
    )


def record_to_json(record: TweetRecord) -> dict:
    return {
        "tweet_id": record.tweet_id,
        "author_id": record.author_id,
        "created_at": format_timestamp(record.created_at),
        "text": record.text,
        "retweeted_author_id": record.retweeted_author_id,
        "urls": list(record.urls),
    }


def parse_tweet_stream(stream: IO | Iterable[str | bytes]) -> ParseResult:
    """Parse a JSON Lines stream of tweet records.

    Malformed lines (bad JSON, missing or ill-typed fields, unparseable
    timestamps, duplicate tweet ids) are counted and skipped. Blank lines are
    ignored. Raises :class:`EmptyCorpusError` when nothing parses.
    """
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    # one string per account id, local to the call so that a long-lived
    # process does not keep every id it has read
    accounts: dict[str, str] = {}
    decode = json.JSONDecoder().raw_decode
    skipped = 0
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        # only JSON whitespace: a line padded with anything else is no JSON value
        text = line.strip(" \t\n\r")
        if not text or text.isspace():
            continue
        try:
            obj, end = decode(text)
            if end != len(text):
                raise ValueError("trailing data after the JSON value")
            if not isinstance(obj, dict):
                raise ValueError("record line must be a JSON object")
            record = record_from_json(obj, accounts)
        except (ValueError, KeyError, TypeError):
            skipped += 1
            continue
        if record.tweet_id in seen_ids:
            skipped += 1
            continue
        seen_ids.add(record.tweet_id)
        records.append(record)
    if not records:
        raise EmptyCorpusError(f"no parseable records ({skipped} lines skipped)")
    return ParseResult(records=records, skipped=skipped)


def read_corpus(path: str | Path) -> ParseResult:
    with open(path, "rb") as handle:
        return parse_tweet_stream(handle)


def write_corpus(records: Iterable[TweetRecord], path: str | Path) -> None:
    with atomic_open(path) as handle:
        for record in records:
            handle.write(json.dumps(record_to_json(record), ensure_ascii=False, sort_keys=True))
            handle.write("\n")


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Load a one-entry-per-line UTF-8 word list; '#' starts a comment line."""
    return frozenset(line.lower() for line in read_lines(path))


def extract_domain(url: str, shorteners: frozenset[str] = frozenset()) -> str | None:
    """Reduce a URL to its lowercased host with any leading ``www.`` stripped.

    Returns None (the excluded marker) for twitter.com and for hosts that
    are, or sit under, a known URL shortener. Shortened links are excluded
    outright; they are never resolved. Raises :class:`UrlParseError` when no
    host can be recovered. The scheme is optional.
    """
    candidate = url.strip()
    if not candidate:
        raise UrlParseError("empty URL")
    if "://" not in candidate:
        candidate = "//" + candidate
    try:
        host = urlsplit(candidate).hostname
    except ValueError as exc:
        raise UrlParseError(f"unparseable URL: {url!r}") from exc
    if host is None:
        raise UrlParseError(f"no host in URL: {url!r}")
    host = host.strip(".").lower()
    if "." not in host:
        raise UrlParseError(f"no registrable host in URL: {url!r}")
    if host.startswith("www."):
        host = host[4:]
    if host == "twitter.com" or host.endswith(".twitter.com"):
        return None
    parts = host.split(".")
    for i in range(len(parts) - 1):
        if ".".join(parts[i:]) in shorteners:
            return None
    return host


def tokenize(texts: Sequence[str], stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Clean a batch of tweet texts into one token stream, BOUNDARY between texts.

    URLs and @-mentions are removed first; the remainder is lowercased and
    split on runs of non-alphanumeric characters, and stopwords are dropped.
    The batch is cleaned as one string: its texts are joined with
    ``"\\n\\x00\\n"``, and neither regex nor the final-sigma rule of
    ``str.lower`` reaches across a newline, so each text gets the tokens it
    would get alone. A NUL inside a text becomes ``"\\x01"``, which separates
    tokens alike. Each regex runs only when its literal marker is present.

    The choice of path is made once for the whole batch: an all-ASCII batch
    is lowercased first and split with a byte translate table, any other
    batch goes through the regexes. One non-ASCII text therefore sends its
    batch's ASCII texts down the slower path too; a caller with many texts
    tokenizes its ASCII texts as a batch of their own.
    """
    joined = _BATCH_JOIN.join(texts)
    if joined.count(BOUNDARY) != len(texts) - 1:
        joined = _BATCH_JOIN.join([text.replace(BOUNDARY, "\x01") for text in texts])
    if joined.isascii():
        # lowercasing ASCII text first changes no match of either regex
        lowered = joined.lower()
        if "://" in lowered or "www." in lowered:
            lowered = _LOWER_URL_RE.sub(" ", lowered)
        if "@" in lowered:
            lowered = _MENTION_RE.sub(" ", lowered)
        tokens = lowered.encode().translate(_ASCII_SEPARATORS).decode().split()
    else:
        if "://" in joined or "www." in joined.lower():
            joined = _URL_RE.sub(" ", joined)
        if "@" in joined:
            joined = _MENTION_RE.sub(" ", joined)
        tokens = _TOKEN_RE.findall(joined.lower())
    if BOUNDARY in stopwords:
        stopwords = stopwords - {BOUNDARY}
    return [tok for tok in tokens if tok not in stopwords]


def normalize_text(text: str, stopwords: frozenset[str] = frozenset()) -> tuple[str, ...]:
    """Clean one tweet's text into its token stream: :func:`tokenize` on it alone."""
    return tuple(tokenize([text], stopwords))


class TrigramEncoder:
    """Packs each word trigram into one int64 code.

    Token ids are assigned in first-seen order, so two codes compare only
    when one encoder made both. Id 0 is reserved for :data:`BOUNDARY`. The
    trigram (a, b, c) has the code ``id(a) << 42 | id(b) << 21 | id(c)``
    (TOKEN_ID_BITS = 21). An encoder holds at most ``2**TOKEN_ID_BITS``
    tokens, the boundary included, and raises
    :class:`VocabularyOverflowError` beyond that, so codes never collide.
    """

    def __init__(self) -> None:
        # a missing token gets the next id: defaultdict calls len() before inserting
        self._ids: defaultdict[str, int] = defaultdict()
        self._ids.default_factory = self._ids.__len__
        self._ids[BOUNDARY] = 0

    def count(self, streams: Iterable[Iterable[str]]) -> tuple[sp.csr_matrix, np.ndarray]:
        """Trigram counts of token streams, one row per stream.

        A boundary follows each stream, and no trigram holding a boundary is
        counted, so none spans two streams, or two texts of one
        :func:`tokenize` batch. ``streams`` is read once, so it may be a
        generator.

        The streams are read one chunk at a time: a chunk is whole streams,
        taken until it holds at least :data:`CHUNK_TOKENS` ids, and is
        reduced at once to its (row, code, count) runs. The arrays as long
        as the token stream (ids, codes, trigram starts and keys) are thus
        bounded by the chunk, or by the longest stream, rather than by the
        whole input; what grows with the input is the runs, one per nonzero
        of the result. The runs of all chunks are assembled once at the end.

        Returns a stream x trigram CSR matrix of integer-valued float64
        counts, its column indices ascending within each row, and the
        ascending codes: column j is the trigram whose code is ``codes[j]``.
        """
        runs = []  # per chunk: entries per row, their codes, their counts
        ids = array("q")  # int64, read by numpy without a copy
        ends = array("q")  # ends[r]: where the chunk's row r ends in ids
        for tokens in streams:
            ids.extend(map(self._ids.__getitem__, tokens))
            ids.append(0)
            ends.append(len(ids))
            if len(ids) >= CHUNK_TOKENS:
                runs.append(self._chunk_runs(ids, ends))
                ids, ends = array("q"), array("q")
        runs.append(self._chunk_runs(ids, ends))
        entries, codes, counts = zip(*runs)
        del runs
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(entries))])
        # each tuple of parts is freed as soon as it has been concatenated
        codes = np.concatenate(codes)
        vocabulary = np.unique(codes)
        columns = np.searchsorted(vocabulary, codes)
        del codes
        data = np.concatenate(counts)
        del counts
        matrix = sp.csr_matrix(
            (data, columns, indptr), shape=(indptr.size - 1, vocabulary.size)
        )
        return matrix, vocabulary

    def _chunk_runs(self, ids: array, ends: array) -> tuple[np.ndarray, ...]:
        """A chunk's entries per row, and each row's codes, ascending, and counts."""
        if len(self._ids) > 1 << TOKEN_ID_BITS:
            raise VocabularyOverflowError(
                f"more than 2**{TOKEN_ID_BITS} distinct tokens; trigram codes would collide"
            )
        token_ids = np.frombuffer(ids, dtype=np.int64)
        codes = token_ids[:-2] << 2 * TOKEN_ID_BITS
        codes |= token_ids[1:-1] << TOKEN_ID_BITS
        codes |= token_ids[2:]
        is_token = token_ids != 0
        starts = np.flatnonzero(is_token[:-2] & is_token[1:-1] & is_token[2:])
        vocabulary, columns = np.unique(codes[starts], return_inverse=True)
        # (row, column) pairs as one int64 key each; columns index the chunk's vocabulary
        width = max(vocabulary.size, 1)
        keys = np.searchsorted(np.frombuffer(ends, dtype=np.int64), starts, side="right")
        keys *= width
        keys += columns
        keys, counts = np.unique(keys, return_counts=True)
        return (
            np.bincount(keys // width, minlength=len(ends)),
            vocabulary[keys % width],
            counts.astype(float),
        )

    def decode(self, codes: Iterable[int]) -> list[Trigram]:
        """The trigrams of codes this encoder made."""
        tokens = list(self._ids)
        mask = (1 << TOKEN_ID_BITS) - 1
        return [
            (
                tokens[code >> 2 * TOKEN_ID_BITS],
                tokens[code >> TOKEN_ID_BITS & mask],
                tokens[code & mask],
            )
            for code in map(int, codes)
        ]


def data_path(*relative: str) -> Path:
    """Path to a packaged data file."""
    return Path(__file__).parent / "data" / Path(*relative)


# config path field -> the packaged file used when the field is unset
PACKAGED = {
    "stopwords": data_path("stopwords.txt"),
    "shorteners": data_path("shorteners.txt"),
    "lexicon_dir": data_path("lexicons"),
}
