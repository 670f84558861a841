"""Parsing of archived tweet records, URL/domain handling, and text cleanup.

Input corpora are JSON Lines files, one tweet per line, with fields
tweet_id, author_id, created_at (ISO-8601 UTC), text, retweeted_author_id
(null for original tweets) and urls (array of strings).

:func:`parse_tweet_stream` reads them into a :class:`Corpus`, the parsed
tweets as columns: ids, texts and URLs as :class:`StringColumn` values,
one UTF-8 buffer and the int64 end of each row in it, authors and
retweeted authors as int32 indices into one account table, UTC times as
int64 seconds since 1970-01-01, and every tweet's URLs as a slice of the
URL column. A corpus is the only in-memory form of tweets: every stage
after ingest reads its columns through row indices, and
:func:`write_corpus` writes them back as JSON Lines. No row's id, text or
URL is kept as a ``str`` of its own: the parse encodes each row's strings
into their columns as soon as the row is kept, and a row is decoded when
it is read, so a corpus's memory follows its UTF-8 size.

:func:`extract_domain` reduces a URL to its linked domain in two steps:
:func:`url_host` reads the host, with one regex for a plain
``http(s)://host[:port]`` URL and :func:`urllib.parse.urlsplit` for any
other, and :func:`host_domain` turns a host into its domain, so that a
caller with many URLs decides each distinct host once.

:func:`tokenize` cleans texts into token streams, stopwords included, and
a :class:`TrigramEncoder` counts their word trigrams. The encoder owns the
stop list: a stopword maps to a reserved id and is dropped from a chunk's
ids at once, before trigrams are formed.
"""

from __future__ import annotations

import io
import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from functools import cached_property
from itertools import chain, count, islice
from operator import eq
from operator import index as as_index
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence
from urllib.parse import urlsplit

import numpy as np

from .errors import EmptyCorpusError, UrlParseError, VocabularyOverflowError
from .fileio import atomic_open, is_field, read_lines

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
# a plain http(s) URL up to the end of its host and port; ASCII-only, so
# that no non-ASCII letter matches [a-z] by case folding
_PLAIN_URL_RE = re.compile(
    r"https?://([a-z0-9.-]+)(?::[0-9]*)?(?:[/?#]|\Z)", re.ASCII | re.IGNORECASE
)
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[^\W_]+|" + BOUNDARY)
# on ASCII text, _TOKEN_RE's runs are the runs of letters and digits: this
# byte table maps every other ASCII character but the boundary to a space
_ASCII_SEPARATORS = bytes(
    c if chr(c).isalnum() or chr(c) == BOUNDARY else 0x20 for c in range(256)
)
# the token id of a stopword, which TrigramEncoder drops
_STOPWORD = -1
# bits of one token id in a trigram code; three ids fill 63 bits of an int64
TOKEN_ID_BITS = 21
# token ids, in whole streams, that TrigramEncoder.count gathers before it
# reduces them to trigram runs
CHUNK_TOKENS = 1 << 14
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY_SECONDS = 86_400
# rows that a string column decodes at once when iterated
CHUNK_ROWS = 4096
# bytes of a string column that StringColumn.isascii scans at once
_SCAN_BYTES = 1 << 16


def day_date(number: int) -> date:
    """The date of a day number, counted in days since 1970-01-01."""
    return date.fromordinal(EPOCH.toordinal() + number)


def day_number(day: date) -> int:
    """Days from 1970-01-01 to ``day``."""
    return day.toordinal() - EPOCH.toordinal()


def _encode(text: str) -> bytes:
    # surrogatepass: a lone surrogate, which JSON can hold, round-trips
    return text.encode("utf-8", "surrogatepass")


def _decode(data) -> str:
    return str(data, "utf-8", "surrogatepass")


class StringColumn(Sequence):
    """Strings as one UTF-8 buffer ``data`` and the int64 end of each row in it.

    Row r is ``data[ends[r - 1]:ends[r]]`` (from byte 0 for row 0), encoded
    with ``surrogatepass``, so that a lone surrogate round-trips. A row is
    read as a ``str`` by index, rows as a column of their own with
    :meth:`take`, and rows as one ``str`` with :meth:`joined`. Iterating
    decodes :data:`CHUNK_ROWS` rows at a time. A column compares equal to a
    list or tuple of its strings.
    """

    __slots__ = ("data", "ends")

    def __init__(self, data: bytes, ends: np.ndarray) -> None:
        self.data = data
        self.ends = ends

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, key):
        """Row ``key`` as a ``str``; a slice of rows as a column."""
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        row = as_index(key)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("column row out of range")
        start = self.ends.item(row - 1) if row else 0
        return _decode(self.data[start : self.ends.item(row)])

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(map(self._decoded, range(0, len(self), CHUNK_ROWS)))

    def _decoded(self, first: int) -> list[str]:
        """Rows ``first`` to ``first + CHUNK_ROWS``, decoded as one string."""
        base = self.ends.item(first - 1) if first else 0
        ends = self.ends[first : first + CHUNK_ROWS] - base
        starts = np.concatenate([[0], ends[:-1]]).tolist()
        ends = ends.tolist()
        chunk = self.data[base : base + ends[-1]]
        text = _decode(chunk)
        if len(text) == len(chunk):  # ASCII: each row's characters are its bytes
            return [text[s:e] for s, e in zip(starts, ends)]
        return [_decode(chunk[s:e]) for s, e in zip(starts, ends)]

    def __eq__(self, other) -> bool:
        if isinstance(other, StringColumn):
            return self.data == other.data and np.array_equal(self.ends, other.ends)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StringColumn({list(self)!r})"

    def _bounds(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The start and end byte of each of ``rows``."""
        ends = self.ends[rows]
        starts = self.ends[rows - 1]
        starts[rows == 0] = 0
        return starts, ends

    def take(self, rows: Sequence[int] | np.ndarray) -> StringColumn:
        """The column of ``rows``, in that order; adjacent rows are copied as one run."""
        rows = np.asarray(rows, dtype=np.intp)
        if not rows.size:
            return StringColumn(b"", np.zeros(0, np.int64))
        starts, ends = self._bounds(rows)
        # a row that starts where the one before it ends continues its run
        first = np.flatnonzero(np.concatenate([[True], starts[1:] != ends[:-1]]))
        last = np.append(first[1:], rows.size) - 1
        data = self.data
        runs = [data[s:e] for s, e in zip(starts[first].tolist(), ends[last].tolist())]
        return StringColumn(b"".join(runs), np.cumsum(ends - starts))

    def joined(self, rows: Sequence[int] | np.ndarray, sep: str = "") -> str:
        """``sep.join`` of ``rows``, decoded as one string."""
        starts, ends = self._bounds(np.asarray(rows, dtype=np.intp))
        data = self.data
        pieces = [data[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
        return _decode(_encode(sep).join(pieces))

    def lowered(self) -> list[str]:
        """Each row lowercased, as ``str.lower`` does it; an ASCII column is
        lowercased as one buffer before it is decoded."""
        if self.data.isascii():
            return list(StringColumn(self.data.lower(), self.ends))
        return [text.lower() for text in self]

    def isascii(self) -> np.ndarray:
        """Whether each row is ASCII, as a bool array."""
        flags = np.ones(len(self), dtype=bool)
        if self.data.isascii():
            return flags
        data = np.frombuffer(self.data, dtype=np.uint8)
        for start in range(0, data.size, _SCAN_BYTES):
            high = np.flatnonzero(data[start : start + _SCAN_BYTES] >= 0x80)
            flags[np.searchsorted(self.ends, high + start, side="right")] = False
        return flags


@dataclass(frozen=True, eq=False)
class Corpus:
    """Parsed tweets as columns, one row per tweet, in the order read.

    ``tweet_ids[r]`` and ``texts[r]`` are row r's id and text, read from
    their :class:`StringColumn`; ``author[r]`` and ``retweeted[r]`` index
    the account table ``accounts`` (``retweeted[r]`` is -1 when row r is no
    retweet); ``seconds[r]`` is the row's UTC time in seconds since
    1970-01-01; its URLs are the rows ``url_offsets[r]`` to
    ``url_offsets[r + 1]`` of the column ``urls``. The account table may
    hold ids that no row refers to.
    """

    tweet_ids: StringColumn
    texts: StringColumn
    accounts: list[str]
    author: np.ndarray  # int32
    retweeted: np.ndarray  # int32
    seconds: np.ndarray  # int64
    url_offsets: np.ndarray  # int64, one more entry than rows
    urls: StringColumn

    def __len__(self) -> int:
        return len(self.tweet_ids)

    @cached_property
    def days(self) -> np.ndarray:
        """Each row's UTC day, as its :func:`day_number`."""
        return self.seconds // _DAY_SECONDS

    @cached_property
    def account_index(self) -> dict[str, int]:
        """Account id -> its index in the account table."""
        return {account: i for i, account in enumerate(self.accounts)}

    def created_at(self, row: int) -> datetime:
        return EPOCH + timedelta(seconds=int(self.seconds[row]))

    def urls_of(self, rows: Sequence[int]) -> StringColumn:
        """The URLs of ``rows``, row after row."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.url_offsets[rows]
        return self.urls.take(_ranges(starts, self.url_offsets[rows + 1] - starts))

    def within(self, start: date, end: date) -> Corpus:
        """The rows posted from UTC day ``start`` to ``end``, both included, in order.

        Raises :class:`EmptyCorpusError` when no row is.
        """
        days = self.days
        inside = (days >= day_number(start)) & (days <= day_number(end))
        if not inside.any():
            raise EmptyCorpusError("no records inside the observation window")
        return self if inside.all() else self.take(np.flatnonzero(inside))

    def take(self, rows: np.ndarray) -> Corpus:
        """The corpus of ``rows``, in that order, over the same account table."""
        lengths = np.diff(self.url_offsets)[rows]
        return Corpus(
            tweet_ids=self.tweet_ids.take(rows),
            texts=self.texts.take(rows),
            accounts=self.accounts,
            author=self.author[rows],
            retweeted=self.retweeted[rows],
            seconds=self.seconds[rows],
            url_offsets=np.concatenate([[0], np.cumsum(lengths)]),
            urls=self.urls_of(rows),
        )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of ``range(s, s + n)`` over the starts s and lengths n."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


class ParseResult(NamedTuple):
    records: Corpus
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
        try:
            parsed = parsed.astimezone(timezone.utc)
        except OverflowError as exc:
            raise ValueError(f"UTC time out of range: {value!r}") from exc
    if parsed.microsecond:
        parsed = parsed.replace(microsecond=0)
    return parsed


def format_timestamp(value: datetime) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` in UTC, the year as four digits."""
    utc = value.astimezone(timezone.utc).replace(tzinfo=None)
    return utc.isoformat(timespec="seconds") + "Z"


def parse_tweet_stream(stream: IO | Iterable[str | bytes]) -> ParseResult:
    """Parse a JSON Lines stream of tweet records into a :class:`Corpus`.

    Malformed lines (bad JSON, missing or ill-typed fields, unparseable
    timestamps, ids that would break an artifact line, duplicate tweet ids)
    are counted and skipped. Blank lines are ignored. Raises
    :class:`EmptyCorpusError` when nothing parses.

    The columns are filled in one loop. An account id is checked once, when
    it first enters the account table; a tweet id made of letters and
    digits alone needs no further check. A kept row's id, text and URLs are
    encoded at once into their :class:`StringColumn` buffers, each an
    :class:`io.BytesIO` that grows in place and hands its bytes over, cut
    to size, without a copy. Past its row, an id is kept as a ``str`` only
    in the set of ids seen, until the parse ends.
    """
    # each string column's UTF-8 bytes, and the byte length of each of its rows
    id_data, text_data, url_data = io.BytesIO(), io.BytesIO(), io.BytesIO()
    id_lengths, text_lengths, url_lengths = array("q"), array("q"), array("q")
    # account id -> its index; local to the call, so that a long-lived
    # process does not keep every id it has read. A missing id gets the next
    # index: defaultdict calls len() before inserting.
    account_of: defaultdict[str, int] = defaultdict()
    account_of.default_factory = account_of.__len__
    authors = array("i")
    retweeted = array("i")
    # float seconds, exact at second resolution, from datetime.timestamp
    seconds = array("d")
    # row r's URLs are the URL rows url_offsets[r] to url_offsets[r + 1]
    url_offsets = array("q", [0])
    seen_ids: set[str] = set()
    # JSONDecoder.raw_decode without its Python frame: the scanner raises
    # StopIteration where raw_decode raises a ValueError
    scan = json.JSONDecoder().scan_once
    skipped = 0
    for line in stream:
        if isinstance(line, bytes):
            line = line.decode("utf-8", errors="replace")
        # only JSON whitespace: a line padded with anything else is no JSON value
        line = line.strip(" \t\n\r")
        if not line or line.isspace():
            continue
        try:
            try:
                obj, end = scan(line, 0)
            except StopIteration:
                raise ValueError("expecting a JSON value") from None
            if end != len(line):
                raise ValueError("trailing data after the JSON value")
            if not isinstance(obj, dict):
                raise ValueError("record line must be a JSON object")
            tweet_id = obj["tweet_id"]
            if not (isinstance(tweet_id, str) and (tweet_id.isalnum() or is_field(tweet_id))):
                raise ValueError("tweet_id must be a non-empty string with no whitespace")
            author_id = obj["author_id"]
            if author_id not in account_of and not is_field(author_id):
                raise ValueError("author_id must be a non-empty string with no whitespace")
            source_id = obj.get("retweeted_author_id")
            if source_id is not None and source_id not in account_of and not is_field(source_id):
                raise ValueError("retweeted_author_id must be null or an id like author_id")
            created_at = obj["created_at"]
            if not isinstance(created_at, str):
                raise ValueError("created_at must be a string")
            text = obj.get("text", "")
            if not isinstance(text, str):
                raise ValueError("text must be a string")
            tweet_urls = obj.get("urls", [])
            if not isinstance(tweet_urls, list) or (
                tweet_urls and not all(isinstance(u, str) for u in tweet_urls)
            ):
                raise ValueError("urls must be an array of strings")
            moment = parse_timestamp(created_at)
        except (ValueError, KeyError, TypeError):
            skipped += 1
            continue
        if tweet_id in seen_ids:
            skipped += 1
            continue
        seen_ids.add(tweet_id)
        # BytesIO.write returns the number of bytes written
        id_lengths.append(id_data.write(_encode(tweet_id)))
        text_lengths.append(text_data.write(_encode(text)))
        for url in tweet_urls:
            url_lengths.append(url_data.write(_encode(url)))
        url_offsets.append(len(url_lengths))
        authors.append(account_of[author_id])
        retweeted.append(-1 if source_id is None else account_of[source_id])
        seconds.append(moment.timestamp())
    if not seen_ids:
        raise EmptyCorpusError(f"no parseable records ({skipped} lines skipped)")
    del seen_ids
    corpus = Corpus(
        tweet_ids=StringColumn(id_data.getvalue(), np.cumsum(id_lengths)),
        texts=StringColumn(text_data.getvalue(), np.cumsum(text_lengths)),
        accounts=list(account_of),
        author=np.frombuffer(authors, dtype=np.intc).astype(np.int32),
        retweeted=np.frombuffer(retweeted, dtype=np.intc).astype(np.int32),
        seconds=np.frombuffer(seconds).astype(np.int64),
        url_offsets=np.frombuffer(url_offsets, dtype=np.int64),
        urls=StringColumn(url_data.getvalue(), np.cumsum(url_lengths)),
    )
    return ParseResult(records=corpus, skipped=skipped)


def read_corpus(path: str | Path) -> ParseResult:
    with open(path, "rb") as handle:
        return parse_tweet_stream(handle)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus as JSON Lines, one row per line, non-ASCII text as UTF-8.

    A line holding a lone surrogate, which UTF-8 cannot encode, is written
    with every non-ASCII character escaped instead; it reads back alike.
    """
    author = corpus.author.tolist()
    retweeted = corpus.retweeted.tolist()
    url_counts = np.diff(corpus.url_offsets).tolist()
    urls = iter(corpus.urls)
    with atomic_open(path) as handle:
        for row, (tweet_id, text) in enumerate(zip(corpus.tweet_ids, corpus.texts)):
            source = retweeted[row]
            obj = {
                "tweet_id": tweet_id,
                "author_id": corpus.accounts[author[row]],
                "created_at": format_timestamp(corpus.created_at(row)),
                "text": text,
                "retweeted_author_id": None if source < 0 else corpus.accounts[source],
                "urls": list(islice(urls, url_counts[row])),
            }
            line = json.dumps(obj, ensure_ascii=False, sort_keys=True)
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError:
                    line = json.dumps(obj, sort_keys=True)
            handle.write(line)
            handle.write("\n")


def load_wordlist(path: str | Path) -> frozenset[str]:
    """Load a one-entry-per-line UTF-8 word list; '#' starts a comment line."""
    return frozenset(line.lower() for line in read_lines(path))


def url_host(url: str) -> str:
    """The host of a URL, as :func:`urllib.parse.urlsplit` reads it.

    A plain ``http(s)://host[:port]`` URL, its host ASCII letters, digits,
    dots and hyphens and followed by ``/``, ``?``, ``#`` or nothing, is read
    by one regex instead; its host keeps its case, where ``urlsplit`` would
    lowercase it. The scheme is optional. Raises :class:`UrlParseError` when
    no host can be recovered.
    """
    candidate = url.strip()
    plain = _PLAIN_URL_RE.match(candidate)
    if plain:
        return plain[1]
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
    return host


def host_domain(host: str, shorteners: frozenset[str] = frozenset()) -> str | None:
    """The domain of a :func:`url_host` host: lowercased, without dots at its ends or ``www.``.

    Returns None (the excluded marker) for twitter.com and for hosts that
    are, or sit under, a known URL shortener. Shortened links are excluded
    outright; they are never resolved. Raises :class:`UrlParseError` when
    what is left holds no dot, so names no registrable host, or when the host
    holds a lone surrogate, which UTF-8 cannot encode (no artifact could
    name it).
    """
    try:
        host.encode()
    except UnicodeEncodeError as exc:
        raise UrlParseError(f"host is not UTF-8: {host!r}") from exc
    host = host.strip(".").lower()
    if host.startswith("www."):
        host = host[4:]
    if "." not in host:
        raise UrlParseError(f"no registrable host: {host!r}")
    if host == "twitter.com" or host.endswith(".twitter.com"):
        return None
    parts = host.split(".")
    for i in range(len(parts) - 1):
        if ".".join(parts[i:]) in shorteners:
            return None
    return host


def extract_domain(url: str, shorteners: frozenset[str] = frozenset()) -> str | None:
    """Reduce a URL to its domain: :func:`host_domain` of its :func:`url_host`."""
    return host_domain(url_host(url), shorteners)


def tokenize(texts: Sequence[str]) -> list[str]:
    """Clean a batch of tweet texts into one token stream, BOUNDARY between texts.

    URLs and @-mentions are removed first; the remainder is lowercased and
    split on runs of non-alphanumeric characters. Stopwords are kept: the
    :class:`TrigramEncoder` that counts the stream drops them. The batch is
    cleaned as one string: its texts are joined with ``"\\n\\x00\\n"``,
    and neither regex nor the final-sigma rule of ``str.lower`` reaches
    across a newline, so each text gets the tokens it would get alone. A
    NUL inside a text becomes ``"\\x01"``, which separates tokens alike.
    """
    joined = _BATCH_JOIN.join(texts)
    if joined.count(BOUNDARY) != len(texts) - 1:
        joined = _BATCH_JOIN.join([text.replace(BOUNDARY, "\x01") for text in texts])
    return _clean(joined)


def tokenize_rows(texts: StringColumn, rows: Sequence[int] | np.ndarray) -> list[str]:
    """:func:`tokenize` of the ``rows`` of a column, joined from its buffer at once.

    Only a batch in which some text holds a NUL is read text by text.
    """
    if not len(rows):
        return []
    joined = texts.joined(rows, _BATCH_JOIN)
    if joined.count(BOUNDARY) != len(rows) - 1:
        return tokenize(texts.take(rows))
    return _clean(joined)


def _clean(joined: str) -> list[str]:
    """The tokens of texts joined with :data:`_BATCH_JOIN`, BOUNDARY between texts.

    Each regex runs only when its literal marker is present. The choice of
    path is made once for the whole string: an all-ASCII string is
    lowercased first and split with a byte translate table, any other goes
    through the regexes. One non-ASCII text therefore sends its batch's
    ASCII texts down the slower path too; a caller with many texts
    tokenizes its ASCII texts as a batch of their own.
    """
    if joined.isascii():
        # lowercasing ASCII text first changes no match of either regex
        lowered = joined.lower()
        if "://" in lowered or "www." in lowered:
            lowered = _LOWER_URL_RE.sub(" ", lowered)
        if "@" in lowered:
            lowered = _MENTION_RE.sub(" ", lowered)
        return lowered.encode().translate(_ASCII_SEPARATORS).decode().split()
    if "://" in joined or "www." in joined.lower():
        joined = _URL_RE.sub(" ", joined)
    if "@" in joined:
        joined = _MENTION_RE.sub(" ", joined)
    return _TOKEN_RE.findall(joined.lower())


def normalize_text(text: str) -> tuple[str, ...]:
    """Clean one tweet's text into its token stream: :func:`tokenize` on it alone."""
    return tuple(tokenize([text]))


class CountMatrix(NamedTuple):
    """A row-compressed (CSR) count matrix.

    Row i's entries are ``data[indptr[i]:indptr[i + 1]]``, in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending. The counts are
    integer-valued float64, so every product and sum below is an exact sum
    of integers, whatever its order.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def take(self, rows: Sequence[int] | np.ndarray) -> CountMatrix:
        """The matrix of ``rows``, in that order, over the same columns."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        entries = _ranges(starts, sizes)
        return CountMatrix(
            self.data[entries],
            self.indices[entries],
            np.concatenate([[0], np.cumsum(sizes)]),
            (rows.size, self.shape[1]),
        )

    def compact(self) -> CountMatrix:
        """The matrix without the columns that no row holds, the others in order."""
        held, columns = np.unique(self.indices, return_inverse=True)
        return self._replace(indices=columns, shape=(self.shape[0], held.size))

    def gram(self) -> np.ndarray:
        """The dot products of every pair of rows, as a dense rows x rows array.

        A column that one row alone holds adds only to that row's squared
        norm, so the rows are made dense over the columns that two or more
        rows hold, and the diagonal is the squared norms.
        """
        shared = np.bincount(self.indices, minlength=self.shape[1]) > 1
        # each shared column's position among the shared columns
        position = np.cumsum(shared) - 1
        kept = shared[self.indices]
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        block = np.zeros((self.shape[0], int(np.count_nonzero(shared))))
        block[rows[kept], position[self.indices[kept]]] = self.data[kept]
        gram = block @ block.T
        np.fill_diagonal(gram, np.bincount(rows, np.square(self.data), minlength=self.shape[0]))
        return gram

    def group_sums(self, groups: np.ndarray, n_groups: int) -> CountMatrix:
        """The n_groups x columns matrix whose row g sums the rows i with ``groups[i] == g``."""
        columns = self.shape[1]
        keys = np.repeat(np.asarray(groups, dtype=np.int64), np.diff(self.indptr))
        keys = keys * columns + self.indices
        keys, entry = np.unique(keys, return_inverse=True)
        return CountMatrix(
            np.bincount(entry, weights=self.data, minlength=keys.size),
            keys % columns,
            np.concatenate([[0], np.cumsum(np.bincount(keys // columns, minlength=n_groups))]),
            (n_groups, columns),
        )


class TrigramEncoder:
    """Packs each word trigram into one int64 code, stopwords dropped.

    Token ids are assigned in first-seen order, so two codes compare only
    when one encoder made both. Id 0 is reserved for :data:`BOUNDARY`, and
    every one of ``stopwords`` maps to the reserved id -1, which takes no
    number from the counter: a stopword is dropped from its stream before
    trigrams are formed, and the other tokens get the ids they would get
    in the stream without it. The boundary is never a stopword. The
    trigram (a, b, c) has the code ``id(a) << 42 | id(b) << 21 | id(c)``
    (TOKEN_ID_BITS = 21). An encoder holds at most ``2**TOKEN_ID_BITS``
    tokens, the boundary included and the stopwords not, and raises
    :class:`VocabularyOverflowError` beyond that, so codes never collide.
    """

    def __init__(self, stopwords: frozenset[str] = frozenset()) -> None:
        # the stopwords come first, so that list(self._ids) from the boundary
        # on is the tokens by id; a missing token gets the next id
        self._ids: defaultdict[str, int] = defaultdict(
            count(1).__next__, dict.fromkeys(stopwords - {BOUNDARY}, _STOPWORD)
        )
        self._n_stopwords = len(self._ids)
        self._ids[BOUNDARY] = 0

    def count(self, streams: Iterable[Iterable[str]]) -> tuple[CountMatrix, np.ndarray]:
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

        Returns the stream x trigram :class:`CountMatrix` and the ascending
        codes: column j is the trigram whose code is ``codes[j]``.
        """
        runs = []  # per chunk: entries per row, their codes, their counts
        ids: list[int] = []
        ends: list[int] = []  # ends[r]: where the chunk's row r ends in ids
        for tokens in streams:
            ids += map(self._ids.__getitem__, tokens)
            ids.append(0)
            ends.append(len(ids))
            if len(ids) >= CHUNK_TOKENS:
                runs.append(self._chunk_runs(ids, ends))
                ids, ends = [], []
        runs.append(self._chunk_runs(ids, ends))
        entries, codes, counts = zip(*runs)
        del runs
        indptr = np.concatenate([[0], np.cumsum(np.concatenate(entries))])
        # each tuple of parts is freed as soon as it has been concatenated
        codes = np.concatenate(codes)
        # sorted, deduplicated, then searched: on the 2.3M codes of L this
        # took 160 ms and 22 MB, against 280-410 ms for numpy 2.4's hashing
        # np.unique and 200-230 ms and 91 MB with its return_inverse
        ordered = np.sort(codes)
        first = np.ones(ordered.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        vocabulary = ordered[first]
        del ordered, first
        columns = np.searchsorted(vocabulary, codes)
        del codes
        data = np.concatenate(counts)
        del counts
        return CountMatrix(data, columns, indptr, (indptr.size - 1, vocabulary.size)), vocabulary

    def _chunk_runs(self, ids: list[int], ends: list[int]) -> tuple[np.ndarray, ...]:
        """A chunk's entries per row, and each row's codes, ascending, and counts."""
        if len(self._ids) - self._n_stopwords > 1 << TOKEN_ID_BITS:
            raise VocabularyOverflowError(
                f"more than 2**{TOKEN_ID_BITS} distinct tokens; trigram codes would collide"
            )
        token_ids = np.array(ids, dtype=np.int64)
        ends = np.array(ends, dtype=np.int64)
        dropped = np.flatnonzero(token_ids == _STOPWORD)
        if dropped.size:
            # each row ends as many ids earlier as there are stopwords before
            # its end; a full-length running count would raise the peak
            # resident memory by 8 bytes per id
            ends = ends - np.searchsorted(dropped, ends)
            token_ids = np.delete(token_ids, dropped)
        codes = token_ids[:-2] << 2 * TOKEN_ID_BITS
        codes |= token_ids[1:-1] << TOKEN_ID_BITS
        codes |= token_ids[2:]
        is_token = token_ids != 0
        starts = np.flatnonzero(is_token[:-2] & is_token[1:-1] & is_token[2:])
        vocabulary, columns = np.unique(codes[starts], return_inverse=True)
        # (row, column) pairs as one int64 key each; columns index the chunk's vocabulary
        width = max(vocabulary.size, 1)
        keys = np.searchsorted(ends, starts, side="right")
        keys *= width
        keys += columns
        keys, counts = np.unique(keys, return_counts=True)
        return (
            np.bincount(keys // width, minlength=ends.size),
            vocabulary[keys % width],
            counts.astype(float),
        )

    def decode(self, codes: Iterable[int]) -> list[Trigram]:
        """The trigrams of codes this encoder made."""
        tokens = list(self._ids)[self._n_stopwords :]
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
