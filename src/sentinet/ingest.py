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
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Sequence
from urllib.parse import urlsplit

import numpy as np

from .errors import EmptyCorpusError, UrlParseError, VocabularyOverflowError
from .fileio import atomic_open, read_lines

Trigram = tuple[str, str, str]

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+")
# on ASCII text, _TOKEN_RE's runs are the runs of letters and digits: this
# byte table maps every other ASCII character to a space
_ASCII_SEPARATORS = bytes(c if chr(c).isalnum() else 0x20 for c in range(256))
# bits of one token id in a trigram code; three ids fill 63 bits of an int64
TOKEN_ID_BITS = 21


@dataclass(frozen=True)
class TweetRecord:
    """One archived tweet. ``retweeted_author_id`` is set iff it is a retweet."""

    tweet_id: str
    author_id: str
    created_at: datetime
    text: str
    retweeted_author_id: str | None = None
    urls: tuple[str, ...] = ()

    @property
    def day(self):
        return self.created_at.date()


@dataclass(frozen=True)
class TokenDoc:
    """Cleaned token stream of one tweet."""

    tokens: tuple[str, ...]


@dataclass
class ParseResult:
    records: list[TweetRecord]
    skipped: int


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime (second resolution)."""
    raw = value.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    parsed = datetime.fromisoformat(raw)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc).replace(microsecond=0)


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def record_from_json(obj: dict) -> TweetRecord:
    tweet_id = obj["tweet_id"]
    author_id = obj["author_id"]
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("tweet_id must be a non-empty string")
    if not isinstance(author_id, str) or not author_id:
        raise ValueError("author_id must be a non-empty string")
    retweeted = obj.get("retweeted_author_id")
    if retweeted is not None and (not isinstance(retweeted, str) or not retweeted):
        raise ValueError("retweeted_author_id must be null or a non-empty string")
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise ValueError("text must be a string")
    urls = obj.get("urls", [])
    if not isinstance(urls, list) or any(not isinstance(u, str) for u in urls):
        raise ValueError("urls must be an array of strings")
    return TweetRecord(
        tweet_id=tweet_id,
        author_id=author_id,
        created_at=parse_timestamp(obj["created_at"]),
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
    skipped = 0
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("record line must be a JSON object")
            record = record_from_json(obj)
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


def normalize_text(text: str, stopwords: frozenset[str] = frozenset()) -> TokenDoc:
    """Clean tweet text into its token stream.

    URLs and @-mentions are removed first; the remainder is lowercased and
    split on runs of non-alphanumeric characters, and stopwords are dropped.
    Each regex runs only when its literal marker is present, and ASCII text
    is split with a byte translate table instead of a regex scan.
    """
    if "://" in text or "www." in text.lower():
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    lowered = text.lower()
    if lowered.isascii():
        tokens = lowered.encode().translate(_ASCII_SEPARATORS).decode().split()
    else:
        tokens = _TOKEN_RE.findall(lowered)
    return TokenDoc(tuple([tok for tok in tokens if tok not in stopwords]))


class TrigramEncoder:
    """Packs each word trigram into one int64 code.

    Token ids are assigned in first-seen order, so two codes compare only
    when one encoder made both. The trigram (a, b, c) has the code
    ``id(a) << 42 | id(b) << 21 | id(c)`` (TOKEN_ID_BITS = 21). An encoder
    holds at most ``2**TOKEN_ID_BITS`` tokens and raises
    :class:`VocabularyOverflowError` beyond that, so codes never collide.
    """

    def __init__(self) -> None:
        # a missing token gets the next id: defaultdict calls len() before inserting
        self._ids: defaultdict[str, int] = defaultdict()
        self._ids.default_factory = self._ids.__len__

    def count(
        self, docs: Iterable[TokenDoc], group_sizes: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Summed trigram counts of consecutive groups of token streams.

        Group g is the next ``group_sizes[g]`` docs. Returns ``indptr``,
        ``codes`` and ``counts`` in CSR layout: group g's distinct codes,
        ascending, are ``codes[indptr[g]:indptr[g + 1]]``. No trigram spans
        two docs. ``docs`` is read once, so it may be a generator.
        """
        codes, doc_of = self._encode(docs)
        vocabulary = np.unique(codes)
        width = max(vocabulary.size, 1)
        # (group, column) pairs as one int64 key each; columns index the vocabulary
        keys = np.repeat(np.arange(len(group_sizes)), group_sizes)[doc_of]
        keys *= width
        keys += np.searchsorted(vocabulary, codes)
        keys, counts = np.unique(keys, return_counts=True)
        indptr = np.searchsorted(keys // width, np.arange(len(group_sizes) + 1))
        return indptr, vocabulary[keys % width], counts

    def _encode(self, docs: Iterable[TokenDoc]) -> tuple[np.ndarray, np.ndarray]:
        """Codes of the docs' trigrams in stream order, and the doc each is from."""
        ids = array("q")  # int64, read by numpy without a copy
        lengths: list[int] = []
        for doc in docs:
            ids.extend(map(self._ids.__getitem__, doc.tokens))
            lengths.append(len(doc.tokens))
        if len(self._ids) > 1 << TOKEN_ID_BITS:
            raise VocabularyOverflowError(
                f"more than 2**{TOKEN_ID_BITS} distinct tokens; trigram codes would collide"
            )
        token_ids = np.frombuffer(ids, dtype=np.int64)
        doc_of = np.repeat(np.arange(len(lengths)), lengths)
        codes = token_ids[:-2] << 2 * TOKEN_ID_BITS
        codes |= token_ids[1:-1] << TOKEN_ID_BITS
        codes |= token_ids[2:]
        inside = doc_of[:-2] == doc_of[2:]
        return codes[inside], doc_of[:-2][inside]

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
