"""Parsing of archived tweet records, URL/domain handling, and text cleanup.

Input corpora are JSON Lines files, one tweet per line, with fields
tweet_id, author_id, created_at (ISO-8601 UTC), text, retweeted_author_id
(null for original tweets) and urls (array of strings).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence
from urllib.parse import urlsplit

from .errors import EmptyCorpusError, UrlParseError
from .fileio import atomic_open, read_lines

Trigram = tuple[str, str, str]

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+")


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
    """Cleaned token stream of one tweet; its trigram counts are derived on demand."""

    tokens: tuple[str, ...]

    @cached_property
    def trigram_counts(self) -> Mapping[Trigram, int]:
        return Counter(trigrams(self.tokens))


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
    """
    cleaned = _URL_RE.sub(" ", text)
    cleaned = _MENTION_RE.sub(" ", cleaned)
    return TokenDoc(
        tuple(tok for tok in _TOKEN_RE.findall(cleaned.lower()) if tok not in stopwords)
    )


def trigrams(tokens: Sequence[str]) -> Iterator[Trigram]:
    """Contiguous word triples of a token stream, in order; none below three tokens."""
    return zip(tokens, tokens[1:], tokens[2:])


def data_path(*relative: str) -> Path:
    """Path to a packaged data file."""
    return Path(__file__).parent / "data" / Path(*relative)


# config path field -> the packaged file used when the field is unset
PACKAGED = {
    "stopwords": data_path("stopwords.txt"),
    "shorteners": data_path("shorteners.txt"),
    "lexicon_dir": data_path("lexicons"),
}
