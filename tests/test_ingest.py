import io
import json
import re
import sys
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from itertools import cycle, islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import (
    columns,
    corpus_of,
    decoded_counts,
    make_record,
    record_fields,
    rows_of,
    scipy_of,
)
from sentinet import ingest
from sentinet.errors import EmptyCorpusError, UrlParseError, VocabularyOverflowError
from sentinet.ingest import (
    BOUNDARY,
    PACKAGED,
    Corpus,
    TrigramEncoder,
    day_date,
    extract_domain,
    load_wordlist,
    normalize_text,
    parse_timestamp,
    parse_tweet_stream,
    write_corpus,
    read_corpus,
    tokenize,
)

GOOD_LINE = json.dumps(
    {
        "tweet_id": "1",
        "author_id": "a",
        "created_at": "2020-07-01T12:00:00Z",
        "text": "covid is trending",
        "retweeted_author_id": None,
        "urls": [],
    }
)


def make_line(i, **overrides):
    obj = json.loads(GOOD_LINE)
    obj["tweet_id"] = str(i)
    obj.update(overrides)
    return json.dumps(obj)


class TestParseTweetStream:
    def test_three_wellformed_lines(self):
        stream = io.StringIO("\n".join(make_line(i) for i in range(3)))
        result = parse_tweet_stream(stream)
        assert len(result.records) == 3
        assert result.skipped == 0
        assert result.records.tweet_ids == ["0", "1", "2"]

    def test_truncated_middle_line_skipped(self):
        lines = [make_line(0), make_line(1)[:25], make_line(2)]
        result = parse_tweet_stream(io.StringIO("\n".join(lines)))
        assert len(result.records) == 2
        assert result.skipped == 1

    def test_blank_lines_ignored(self):
        result = parse_tweet_stream(io.StringIO(make_line(0) + "\n\n\n" + make_line(1)))
        assert len(result.records) == 2
        assert result.skipped == 0

    def test_missing_fields_and_bad_timestamps_skipped(self):
        bad = [
            json.dumps({"tweet_id": "9", "author_id": "a"}),
            make_line(10, created_at="not a time"),
            make_line(11, retweeted_author_id=""),
            make_line(12, urls="nope"),
            "[1,2,3]",
        ]
        result = parse_tweet_stream(io.StringIO("\n".join(bad + [make_line(1)])))
        assert len(result.records) == 1
        assert result.skipped == 5

    @pytest.mark.parametrize("created_at", [5, None, True, ["2020-07-01T12:00:00Z"]])
    def test_non_string_timestamp_skipped(self, created_at):
        lines = [make_line(0), make_line(1, created_at=created_at), make_line(2)]
        result = parse_tweet_stream(io.StringIO("\n".join(lines)))
        assert result.records.tweet_ids == ["0", "2"]
        assert result.skipped == 1

    def test_duplicate_ids_skipped(self):
        result = parse_tweet_stream(io.StringIO("\n".join([make_line(7), make_line(7)])))
        assert len(result.records) == 1
        assert result.skipped == 1

    def test_day_is_the_utc_date(self):
        lines = [make_line(0), make_line(1, created_at="2020-07-01T23:30:00-02:00")]
        corpus = parse_tweet_stream(io.StringIO("\n".join(lines))).records
        days = [day_date(day) for day in corpus.days.tolist()]
        assert days == [date(2020, 7, 1), date(2020, 7, 2)]
        assert [corpus.created_at(row).isoformat() for row in range(2)] == [
            "2020-07-01T12:00:00+00:00",
            "2020-07-02T01:30:00+00:00",
        ]

    def test_records_of_one_day_share_their_date(self):
        lines = [
            make_line(0, created_at="2020-07-01T00:00:01Z"),
            make_line(1, created_at="2020-07-01T21:30:00-02:00"),
            make_line(2, created_at="2020-07-02T00:00:00Z"),
        ]
        corpus = parse_tweet_stream(io.StringIO("\n".join(lines))).records
        first, second, third = corpus.days.tolist()
        assert first == second and day_date(first) == date(2020, 7, 1)
        assert third == first + 1 and day_date(third) == date(2020, 7, 2)
        assert corpus.seconds.tolist()[:2] == [
            (datetime(2020, 7, 1, hour, minute, second, tzinfo=timezone.utc) - ingest.EPOCH)
            // timedelta(seconds=1)
            for hour, minute, second in ((0, 0, 1), (23, 30, 0))
        ]

    def test_records_of_one_parse_share_account_ids(self):
        lines = [
            make_line(0, author_id="acct"),
            make_line(1, author_id="acct", retweeted_author_id="other"),
            make_line(2, author_id="other", retweeted_author_id="acct"),
        ]
        corpus = parse_tweet_stream(io.StringIO("\n".join(lines))).records
        assert corpus.accounts == ["acct", "other"]
        assert corpus.author.tolist() == [0, 0, 1] and corpus.author.dtype == np.int32
        assert corpus.retweeted.tolist() == [-1, 1, 0] and corpus.retweeted.dtype == np.int32

    @pytest.mark.parametrize("field", ["tweet_id", "author_id", "retweeted_author_id"])
    @pytest.mark.parametrize(
        "value", ["a b", "a\tb", " a", "a\u00a0", "a\u2028b", "\ud800", "a\udfff"]
    )
    def test_ids_that_break_artifacts_skipped(self, field, value):
        lines = [make_line(0), make_line(1, **{field: value}), make_line(2)]
        result = parse_tweet_stream(io.StringIO("\n".join(lines)))
        assert result.records.tweet_ids == ["0", "2"]
        assert result.skipped == 1
        # the rejected id enters no account table
        assert result.records.accounts == ["a"]

    @pytest.mark.parametrize("value", ["é", "t-1", "a.b@c", "ü_1"])
    def test_ids_without_whitespace_or_surrogates_kept(self, value):
        lines = [make_line(0, tweet_id=value, author_id=value, retweeted_author_id="b" + value)]
        corpus = parse_tweet_stream(io.StringIO("\n".join(lines))).records
        assert corpus.tweet_ids == [value] and corpus.accounts == [value, "b" + value]

    @pytest.mark.parametrize(
        "created_at", ["0001-01-01T00:30:00+01:00", "9999-12-31T23:30:00-01:00"]
    )
    def test_utc_time_outside_datetime_range_skipped(self, created_at):
        lines = [make_line(0), make_line(1, created_at=created_at), make_line(2)]
        result = parse_tweet_stream(io.StringIO("\n".join(lines)))
        assert result.records.tweet_ids == ["0", "2"]
        assert result.skipped == 1

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            parse_tweet_stream(io.StringIO("not json\n"))

    def test_bytes_accepted(self):
        result = parse_tweet_stream(io.BytesIO(GOOD_LINE.encode()))
        assert len(result.records) == 1

    def test_thousand_record_roundtrip(self, tmp_path, record_factory):
        records = [
            record_factory(
                f"t{i}",
                f"acct{i % 37}",
                text=f"covid text {i} éü",
                retweeted=f"acct{(i + 1) % 37}" if i % 3 == 0 else None,
                day_offset=i % 30,
                urls=(f"https://example{i % 5}.com/x",) if i % 2 == 0 else (),
            )
            for i in range(1000)
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_of(records), path)
        reparsed = read_corpus(path)
        assert reparsed.skipped == 0
        assert rows_of(reparsed.records) == records
        assert columns(reparsed.records) == columns(corpus_of(records))
        # serialize -> parse -> serialize is a fixed point
        path2 = tmp_path / "again.jsonl"
        write_corpus(reparsed.records, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_lone_surrogate_text_round_trips(self, tmp_path):
        records = [
            make_record("1", "a", text="plain café"),
            make_record("2", "a", text="half \ud800 pair é"),
            make_record("3", "b", text="more ü"),
        ]
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_of(records), path)
        lines = path.read_bytes().splitlines(keepends=True)
        # only the line that UTF-8 cannot hold is escaped
        assert [line.decode() for line in lines[:2]] == [
            json.dumps(records[0], ensure_ascii=False, sort_keys=True) + "\n",
            json.dumps(records[1], sort_keys=True) + "\n",
        ]
        assert b"\\ud800" in lines[1] and b"\\u00e9" in lines[1]
        assert "ü".encode() in lines[2]
        reparsed = read_corpus(path)
        assert reparsed.skipped == 0
        assert rows_of(reparsed.records) == records

    @pytest.mark.parametrize(
        "created_at", ["0001-01-01T00:00:00Z", "0999-05-01T00:00:00Z", "9999-12-31T23:59:59Z"]
    )
    def test_four_digit_years_round_trip(self, tmp_path, created_at):
        record = {**make_record("1", "a"), "created_at": created_at}
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus_of([record]), path)
        assert json.loads(path.read_text(encoding="utf-8"))["created_at"] == created_at
        reparsed = read_corpus(path)
        assert reparsed.skipped == 0 and rows_of(reparsed.records) == [record]


# ISO-8601 renderings, mostly ones parse_timestamp accepts, with padding
ISO_TIMESTAMPS = st.builds(
    lambda moment, offset, spec, suffix, pad: pad
    + moment.replace(tzinfo=offset).isoformat(timespec=spec)
    + suffix
    + pad,
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)),
    st.none() | st.integers(-14 * 60, 14 * 60).map(lambda m: timezone(timedelta(minutes=m))),
    st.sampled_from(["seconds", "milliseconds", "microseconds", "minutes", "auto"]),
    st.sampled_from(["", "", "Z", "z", "+00:00", "-00:00", "+05:30", "x"]),
    st.sampled_from(["", " ", "\t", "\x0b", "\u00a0"]),
)
TIMESTAMPS = ISO_TIMESTAMPS | st.sampled_from(
    ["", "Z", "2020-07-01", "2020-07-01T12:00:00ZZ", "2020-13-01T00:00:00Z"]
) | st.text(max_size=6)
JSON_VALUES = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)


@st.composite
def record_lines(draw):
    """A record line, at most one field ill-typed or missing, with padding or trailing data."""
    obj = {
        "tweet_id": draw(st.sampled_from(["1", "2", "3", "1", "2", "3", "t-4", "5 6", "\ud800"])),
        "author_id": draw(st.sampled_from(["a", "b", "a", "b", "é.c", "a\u00a0", "\udc00b"])),
        "created_at": draw(ISO_TIMESTAMPS),
        "text": draw(st.text(max_size=5)),
        "retweeted_author_id": draw(
            st.sampled_from([None, "a", "b", None, "a", "b", "é.c", "\tb"])
        ),
        "urls": draw(st.lists(st.text(max_size=3), max_size=2)),
    }
    spoiled = draw(st.sampled_from([None, None, None, *sorted(obj)]))
    if spoiled is not None:
        if draw(st.booleans()):
            del obj[spoiled]
        else:
            obj[spoiled] = draw(JSON_VALUES | st.lists(JSON_VALUES, max_size=2))
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    padding = st.sampled_from(["", "", " ", "\t", "\r", "\n", "\r\n", "\x0b", "\u00a0", "\ufeff"])
    trailing = st.sampled_from(["", "", "", "x", "}", " 1", "{}", " \x0b"])
    return draw(padding) + line + draw(trailing) + draw(padding)


JUNK_LINES = st.sampled_from(
    ["", " \t\r\n", "\x0b", "\u00a0\u2028", "\ufeff", "null", "3", '"a"', "[1, 2]", "{}", "{"]
) | st.text(max_size=6)


def parse_outcome(parse, lines):
    """Skipped count and the parsed rows, or None if nothing parses.

    A row is every field, the UTC day and the timestamp's rendering, read
    from the package's corpus columns or from the reference's records.
    """
    try:
        result = parse(lines)
    except EmptyCorpusError:
        return None
    parsed = result.records
    if isinstance(parsed, Corpus):
        created = [parsed.created_at(row) for row in range(len(parsed))]
        assert all(moment.tzinfo is timezone.utc for moment in created)
        rows = [
            (
                parsed.tweet_ids[row],
                parsed.accounts[parsed.author[row]],
                parsed.accounts[parsed.retweeted[row]] if parsed.retweeted[row] >= 0 else None,
                parsed.texts[row],
                tuple(parsed.urls[parsed.url_offsets[row] : parsed.url_offsets[row + 1]]),
                day_date(int(parsed.days[row])),
                created[row].isoformat(),
            )
            for row in range(len(parsed))
        ]
    else:
        rows = [
            (
                r.tweet_id,
                r.author_id,
                r.retweeted_author_id,
                r.text,
                r.urls,
                r.created_at.date(),
                r.created_at.isoformat(),
            )
            for r in parsed
        ]
    return result.skipped, rows


class TestParseEquivalence:
    @settings(max_examples=1000)
    @given(TIMESTAMPS)
    @example("2020-07-01T12:00:00.999999z")
    @example("2020-07-01T23:30:00.5-02:00")
    # the fixed shape, and values next to it
    @example("2020-07-01T12:00:00Z")
    @example(" 2020-07-01T12:00:00Z")
    @example(" 020-07-01T12:00:00Z")
    @example("2020-07-01T12:00:00z")
    @example("2020-02-30T00:00:00Z")
    @example("2020-07-01T24:00:00Z")
    @example("2020-07-01T12:00:0Z")
    @example("2020-07-01T12:00:000Z")
    @example("2020-07-01T12:00:00ZZ")
    @example("2020-07-01 12:00:00Z")
    @example("2020-07-01T120000.1Z")
    @example("２０２０-07-01T12:00:00Z")
    # offsets that take the UTC time outside datetime's range
    @example("0001-01-01T00:30:00+01:00")
    @example("9999-12-31T23:30:00-01:00")
    def test_timestamp(self, value):
        try:
            expected = oracles.parse_timestamp(value)
        except ValueError:
            with pytest.raises(ValueError):
                parse_timestamp(value)
            return
        parsed = parse_timestamp(value)
        assert parsed.isoformat() == expected.isoformat()
        assert parsed.tzinfo is timezone.utc

    @settings(max_examples=500, deadline=None)
    @given(st.lists(record_lines() | JUNK_LINES, max_size=8), st.booleans())
    def test_stream(self, lines, as_bytes):
        if as_bytes:
            lines = [line.encode("utf-8", errors="surrogatepass") for line in lines]
        assert parse_outcome(parse_tweet_stream, lines) == parse_outcome(
            oracles.parse_tweet_stream, lines
        )


# every second of years 1 to 9999, in the fixed shape that write_corpus writes
FIXED_SHAPE_TIMES = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda moment: moment.replace(microsecond=0).isoformat() + "Z"
)
# tweets the parser keeps: ids free of whitespace and lone surrogates, any text
CORPUS_RECORDS = st.lists(
    st.tuples(
        st.builds(
            make_record,
            tweet_id=st.text(
                st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                min_size=1,
                max_size=4,
            ),
            author=st.sampled_from(["a", "b", "é", "c.d"]),
            text=st.text(max_size=6),
            retweeted=st.sampled_from([None, "a", "b", "é", "x"]),
            urls=st.lists(st.text(max_size=3), max_size=2),
        ),
        FIXED_SHAPE_TIMES,
    ).map(lambda pair: {**pair[0], "created_at": pair[1]}),
    min_size=1,
    max_size=8,
    unique_by=lambda record: record["tweet_id"],
)


class TestCorpusColumns:
    @settings(max_examples=200, deadline=None)
    @given(CORPUS_RECORDS)
    @example([make_record("1", "a", text="\ud800 é", retweeted="b", urls=("x", "y"))])
    def test_read_of_written_equals_parsed(self, tmp_path_factory, records):
        corpus = corpus_of(records)
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        write_corpus(corpus, path)
        reparsed = read_corpus(path)
        assert reparsed.skipped == 0
        assert columns(reparsed.records) == columns(corpus)
        assert rows_of(reparsed.records) == records

    def test_take_keeps_rows_and_their_urls(self):
        records = [
            make_record(str(i), f"a{i % 2}", retweeted="r" if i == 2 else None,
                        day_offset=i, urls=tuple(f"u{i}.{j}" for j in range(i % 3)))
            for i in range(6)
        ]
        corpus = corpus_of(records)
        rows = np.array([5, 2, 4])
        taken = corpus.take(rows)
        assert taken.accounts is corpus.accounts
        assert rows_of(taken) == [records[row] for row in rows]
        assert corpus.urls_of(rows) == taken.urls == ["u5.0", "u5.1", "u2.0", "u2.1", "u4.0"]


# strings JSON can hold, with what a UTF-8 column must keep apart: lone
# surrogates (two of them may pair up in JSON), astral characters, NUL,
# line breaks and the empty string
COLUMN_STRINGS = st.text(
    st.characters()
    | st.sampled_from(
        ["\ud800", "\udbff", "\udc00", "\U0001f600", "\x00", "\n", "\r", "\u2028"]
    ),
    max_size=6,
)
COLUMN_RECORDS = st.lists(
    st.builds(
        make_record,
        tweet_id=record_fields,
        author=st.sampled_from(["a", "b", "é"]),
        text=COLUMN_STRINGS,
        day_offset=st.integers(0, 4),
        urls=st.lists(COLUMN_STRINGS, max_size=2).map(tuple),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda record: record["tweet_id"],
)
CHUNK = ingest.CHUNK_ROWS


def read_as_json(value: str) -> str:
    """``value`` as JSON reads it back: an escaped surrogate pair becomes one character."""
    return json.loads(json.dumps(value))


class TestStringColumns:
    @settings(max_examples=12, deadline=None)
    @given(
        st.lists(
            st.tuples(record_fields, COLUMN_STRINGS, st.lists(COLUMN_STRINGS, max_size=2)),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1]),
    )
    def test_parse_write_parse_round_trip_across_chunks(self, tmp_path_factory, drawn, n_rows):
        records = [
            make_record(f"{row}.{tweet_id}", "a", text=text, urls=tuple(urls))
            for row, (tweet_id, text, urls) in zip(range(n_rows), cycle(drawn))
        ]
        corpus = corpus_of(records)
        assert corpus.tweet_ids == [record["tweet_id"] for record in records]
        assert corpus.texts == [read_as_json(record["text"]) for record in records]
        assert corpus.urls == [read_as_json(url) for record in records for url in record["urls"]]
        assert [corpus.texts[row] for row in range(n_rows)] == list(corpus.texts)
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        write_corpus(corpus, path)
        reparsed = read_corpus(path)
        assert reparsed.skipped == 0
        assert columns(reparsed.records) == columns(corpus)

    @settings(max_examples=200, deadline=None)
    @given(COLUMN_RECORDS, st.data())
    def test_take_within_urls_of_and_joined_equal_list_references(self, records, data):
        corpus = corpus_of(records)
        listed = rows_of(corpus)
        rows = data.draw(st.lists(st.integers(0, len(corpus) - 1), max_size=12))
        taken = corpus.take(np.array(rows, dtype=np.intp))
        assert rows_of(taken) == oracles.take_rows(listed, rows)
        assert corpus.urls_of(rows) == oracles.urls_of(listed, rows)
        sep = data.draw(st.sampled_from(["", "\n", "\n\x00\n", "\ud800", "é"]))
        for column, field in ((corpus.tweet_ids, "tweet_id"), (corpus.texts, "text")):
            strings = [record[field] for record in listed]
            assert column.joined(rows, sep) == oracles.joined(strings, rows, sep)
            assert column.take(rows) == oracles.take_rows(strings, rows)
        days = sorted({day_date(day) for day in corpus.days.tolist()})
        start, end = sorted(data.draw(st.lists(st.sampled_from(days), min_size=2, max_size=2)))
        assert rows_of(corpus.within(start, end)) == oracles.rows_within(listed, start, end)

    def test_column_reads_rows_as_strings(self):
        texts = ["", "a", "\ud800", "\U0001f600 x", "é\x00", "b"]
        column = corpus_of([make_record(str(i), "a", text=t) for i, t in enumerate(texts)]).texts
        assert column == texts and column == tuple(texts) and list(column) == texts
        assert column != texts[:-1] and column != [*texts[:-1], "c"] and column != "ab"
        assert column[-1] == "b" and column[1:3] == texts[1:3] and column[::-2] == texts[::-2]
        with pytest.raises(IndexError):
            column[len(texts)]
        assert column.isascii().tolist() == [text.isascii() for text in texts]
        assert column.lowered() == [text.lower() for text in texts]
        # an ASCII column is lowercased as one buffer; final sigma and a
        # dotted capital I lowercase by context and to two characters
        for strings in (["ABC", "", "xY z"], ["ΟΔΟΣ Σ", "İi", "ABC"]):
            records = [make_record(str(i), "a", text=t) for i, t in enumerate(strings)]
            assert corpus_of(records).texts.lowered() == [t.lower() for t in strings]

    def test_parsed_columns_keep_their_utf8_bytes_and_24_bytes_a_row(self):
        # ASCII and astral texts, 8-character ids and short URLs: a str per
        # row would cost at least 49 bytes of header and a list slot each
        records = [
            make_record(
                f"t{i:07d}", f"a{i % 50}", text="covid mask \U0001f637 " * (i % 4) + str(i),
                urls=tuple(f"https://x{j}.example/{i}" for j in range(i % 3)),
            )
            for i in range(20_000)
        ]
        lines = [json.dumps(record) for record in records]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            corpus = parse_tweet_stream(lines).records
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        strings = (corpus.tweet_ids, corpus.texts, corpus.urls)
        allowed = sum(
            len("".join(column).encode("utf-8", "surrogatepass")) + 24 * len(column)
            for column in strings
        )
        arrays = (corpus.author, corpus.retweeted, corpus.seconds, corpus.url_offsets)
        others = sum(array.nbytes for array in arrays) + sys.getsizeof(corpus.accounts)
        others += sum(map(sys.getsizeof, corpus.accounts))
        # what else the parse leaves: the corpus and column objects, and caches
        assert held <= allowed + others + (1 << 16)

    def test_parse_peak_above_what_it_keeps_is_a_quarter_of_the_texts(self):
        # about 1,900 bytes a text: a parse that gathers thousands of rows as
        # str before it encodes them holds them more than once at its peak
        text = "\U0001f637 " + "covid mask " * 173
        lines = [json.dumps(make_record(f"t{i:05d}", "a", text=f"{i} {text}")) for i in range(5_000)]
        tracemalloc.start()
        try:
            corpus = parse_tweet_stream(lines).records
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < len(corpus.texts.data) / 4


class TestExtractDomain:
    def test_www_stripped(self):
        assert extract_domain("https://www.foxnews.com/article") == "foxnews.com"

    def test_twitter_excluded(self):
        assert extract_domain("https://twitter.com/x/status/1") is None
        assert extract_domain("https://mobile.twitter.com/x") is None

    def test_shortener_excluded(self):
        assert extract_domain("http://bit.ly/abc", frozenset({"bit.ly"})) is None

    def test_default_shortener_list(self):
        shorteners = load_wordlist(PACKAGED["shorteners"])
        assert extract_domain("https://t.co/xyz", shorteners) is None
        assert extract_domain("https://example.com/a", shorteners) == "example.com"

    def test_scheme_optional(self):
        assert extract_domain("foxnews.com/article") == "foxnews.com"

    def test_case_and_port(self):
        assert extract_domain("HTTPS://WWW.Example.COM:8080/Path") == "example.com"

    def test_unparseable(self):
        # a host holding a lone surrogate, which UTF-8 cannot encode, names nothing
        for bad in ["", "http://", "mailto:", "no spaces allowed.com/x y"[:3],
                    "http://exa\ud800mple.com/x", "exa\udfffmple.com", "https://\ud83d\ude00.com/"]:
            with pytest.raises(UrlParseError):
                extract_domain(bad)

    @given(st.sampled_from(["a.com", "news.site.org", "x.y.z.co", "sub.example.net"]))
    def test_idempotent_on_own_output(self, host):
        domain = extract_domain(f"https://www.{host}/path?q=1")
        assert extract_domain(domain) == domain

    def test_registrable_host_checked_after_www(self):
        for bad in ["http://localhost/x", "http://www.localhost/x", "https://www.com",
                    "www.com", "HTTP://WWW.LOCALHOST:80", "http://[::1]/x", "//www.x_y/"]:
            with pytest.raises(UrlParseError):
                extract_domain(bad)
        assert extract_domain("https://www.x.com") == "x.com"

    def test_plain_urls_skip_urlsplit(self, monkeypatch):
        def refuse(url):
            raise AssertionError(f"urlsplit called on {url!r}")

        monkeypatch.setattr(ingest, "urlsplit", refuse)
        for url in ["https://www.Foxnews.com/article", " http://a.b.co:8080?q=1 ",
                    "HTTPS://news.example.org#top", "http://x-y.com:", "https://e.com"]:
            assert extract_domain(url) == oracles.extract_domain(url)
        with pytest.raises(AssertionError):
            extract_domain("https://user@example.com/")


def domain_outcome(extract, url, shorteners):
    """What ``extract`` makes of ``url``: a domain, None, or UrlParseError."""
    try:
        return extract(url, shorteners)
    except UrlParseError:
        return UrlParseError


# schemes in mixed case, missing or malformed
URL_SCHEMES = st.sampled_from(
    ["", "http://", "https://", "HTTP://", "hTtPs://", "ftp://", "//", "http:/", "https:", "http:///"]
)
# hosts: www., shorteners, twitter, no dot, trailing and fullwidth dots, user
# info, brackets, tab/CR/LF, and letters that case-fold to ASCII (ſ, the
# Kelvin sign) or are non-ASCII
URL_HOST_PIECES = st.sampled_from(
    ["www.", "WWW.", "example", "Example", ".com", ".co.uk", "t.co", "bit.ly", "twitter.com",
     "mobile.", "localhost", ".", "-", "1", "127.0.0.1", "xn--bcher-kva", "bücher", "例え", "．",
     "。", "ſ", "\u212a", "İ", "_", "user@", "@", "[", "]", "::1", "%25", "\t", "\r", "\n", " "]
)
URL_PORTS = st.sampled_from(["", ":", ":80", ":8080", ":" + "9" * 30, ":0x1", ":-1", ":８０", "::"])
# what follows the host: ? or # at once, a path, a backslash, spaces
URL_TAILS = st.sampled_from(
    ["", "/", "/path", "?", "?q=1", "#", "#frag", "/a?b#c", "/@evil.com", "\\x", " x", "\t/",
     "/x y", ".", "/http://other.org/"]
)
URL_PADDING = st.sampled_from(["", " ", "\t", "\n ", "\r\n", "\x00"])
URLS = st.builds(
    lambda lead, scheme, host, port, tail, trail: lead + scheme + "".join(host) + port + tail + trail,
    URL_PADDING,
    URL_SCHEMES,
    st.lists(URL_HOST_PIECES, max_size=6),
    URL_PORTS,
    URL_TAILS,
    URL_PADDING,
)


class TestExtractDomainEqualsOracle:
    @settings(max_examples=1000, deadline=None)
    @given(
        url=URLS | st.text(max_size=30),
        shorteners=st.sampled_from([frozenset(), load_wordlist(PACKAGED["shorteners"])]),
    )
    @example(url="http://www.localhost/x", shorteners=frozenset())
    @example(url="https://www.com", shorteners=frozenset())
    @example(url="http://ſ.com/", shorteners=frozenset())
    @example(url="http://a.com\n", shorteners=frozenset())
    @example(url="http://bit.\ud800ly/x", shorteners=frozenset({"bit.\ud800ly"}))
    def test_same_domain_or_error(self, url, shorteners):
        assert domain_outcome(extract_domain, url, shorteners) == domain_outcome(
            oracles.extract_domain, url, shorteners
        )


class TestNormalizeText:
    def test_basic(self):
        tokens = normalize_text("The CDC quietly updated")
        assert tokens == ("the", "cdc", "quietly", "updated")
        assert decoded_counts([tokens], frozenset({"the"})) == {("cdc", "quietly", "updated"): 1}

    def test_mention_and_url_removed(self):
        tokens = normalize_text("@user http://a.b c")
        assert tokens == ("c",)
        assert decoded_counts([tokens]) == {}

    def test_fifty_token_sentence(self):
        text = " ".join(f"word{i}" for i in range(50))
        tokens = normalize_text(text)
        assert sum(decoded_counts([tokens]).values()) == 48

    def test_empty_text(self):
        tokens = normalize_text("")
        assert tokens == ()
        assert decoded_counts([tokens]) == {}

    def test_hashtag_keeps_stem(self):
        tokens = normalize_text("#covid spreading")
        assert tokens == ("covid", "spreading")

    def test_default_stopwords_drop_rt(self):
        tokens = normalize_text("RT @x: the lockdown ends today")
        assert tokens == ("rt", "the", "lockdown", "ends", "today")
        stopwords = load_wordlist(PACKAGED["stopwords"])
        assert decoded_counts([tokens], stopwords) == {("lockdown", "ends", "today"): 1}

    @given(st.text(max_size=200))
    def test_no_url_or_mention_remnants(self, text):
        tokens = normalize_text(text)
        url_pattern = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
        for token in tokens:
            assert "@" not in token
            assert not url_pattern.search(token)
            assert re.fullmatch(r"[^\W_]+", token)

    def test_url_like_tokens_removed_whole(self):
        tokens = normalize_text("see www.example.org/x?y=1 and http only")
        assert "example" not in tokens
        assert tokens == ("see", "and", "http", "only")

    @given(st.lists(st.sampled_from(["covid", "cases", "rise", "cdc", "mask"]), max_size=12))
    def test_trigram_total_identity(self, words):
        tokens = normalize_text(" ".join(words))
        assert sum(decoded_counts([tokens]).values()) == max(0, len(tokens) - 2)


# URL and mention markers in every case, scheme-less "://", underscores and
# digits, and letters whose lowercase is longer (İ), changes script (K, the
# Kelvin sign, lowers to ASCII k) or is fullwidth
TOKENIZER_PIECES = st.sampled_from(
    ["www.", "WWW.", "wWw.", "http://", "HTTPS://", "https", "a://b", "://", "@",
     "@www.foo.com", "@user", "_", "__init__", "0", "42", "x1_y2", "İ", "ß", "\u212a",
     "ＷＷＷ．", "ｗｗｗ.", "café", "naïve", "Straße", "covid", "The", " ", "  ", ".",
     "/", ":", "#", "-", "\t", "\n"]
)
# stop lists: empty, small, the packaged one, and one that names the boundary
ENCODER_STOPWORDS = st.sampled_from(
    [
        frozenset(),
        frozenset({"the", "b"}),
        load_wordlist(PACKAGED["stopwords"]),
        frozenset({BOUNDARY, "the", "a"}),
    ]
)


class TestTokenizerEquivalence:
    @settings(max_examples=500)
    @given(text=st.text())
    @example(text="@www.foo.com bar")
    def test_any_text(self, text):
        assert normalize_text(text) == oracles.normalize_text(text)

    @settings(max_examples=500)
    @given(pieces=st.lists(TOKENIZER_PIECES | st.text(max_size=4), max_size=12))
    def test_mixed_pieces(self, pieces):
        text = "".join(pieces)
        assert normalize_text(text) == oracles.normalize_text(text)


def batch_texts(tokens):
    """A batch's token stream cut at its boundaries, one token tuple per text."""
    texts = [[]]
    for token in tokens:
        if token == BOUNDARY:
            texts.append([])
        else:
            texts[-1].append(token)
    return [tuple(text) for text in texts]


class TestTokenizerBatch:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(
            st.text() | st.lists(TOKENIZER_PIECES, max_size=8).map("".join),
            min_size=1,
            max_size=6,
        ),
    )
    # a NUL or newline inside a text
    @example(texts=["a\x00b c", "d\ne f", "g"])
    # a final sigma, then a text that starts with a letter
    @example(texts=["ΑΣ", "Ab ΣΑΣ", "ΟΔΟΣ"])
    # a URL or mention as the last or first word of a text
    @example(texts=["see http://a.b/c", "@bob says", "news www.x.org", "@ann"])
    # an ASCII batch, lowercased before its URLs and mentions are removed
    @example(texts=["See HTTPS://X.ORG/A now", "WwW.Example.COM/p @Bob_2 hi", "@ANN"])
    # one non-ASCII text in an ASCII batch, and empty texts
    @example(texts=["", "plain words here", "café crème brûlée", "more plain words", ""])
    def test_each_text_as_if_alone(self, texts):
        assert batch_texts(tokenize(texts)) == [oracles.normalize_text(text) for text in texts]


def _joined(docs):
    """One token stream of ``docs``, a boundary before each."""
    return tuple(token for doc in docs for token in (BOUNDARY, *doc))


class TestTrigramEncoder:
    def test_codes_pack_first_seen_ids(self):
        encoder = TrigramEncoder()
        matrix, codes = encoder.count([("b", "a", "c", "b", "a", "c"), ("a", "b")])
        # ids: the boundary 0, b 1, a 2, c 3
        assert codes.tolist() == [1 << 42 | 2 << 21 | 3, 2 << 42 | 3 << 21 | 1, 3 << 42 | 1 << 21 | 2]
        assert matrix.indices.tolist() == [0, 1, 2]
        assert matrix.data.tolist() == [2, 1, 1] and matrix.indptr.tolist() == [0, 3, 3]
        assert encoder.decode(codes) == [("b", "a", "c"), ("a", "c", "b"), ("c", "b", "a")]

    def test_no_trigram_spans_two_docs(self):
        docs = [("alpha", "beta"), ("gamma", "delta", "epsilon")]
        matrix, _ = TrigramEncoder().count(docs)
        assert matrix.indptr.tolist() == [0, 0, 1]
        assert decoded_counts(docs) == {("gamma", "delta", "epsilon"): 1}

    def test_boundary_inside_a_stream_splits_it(self):
        joined_matrix, joined_codes = TrigramEncoder().count([("a", "b", "c", BOUNDARY, "b", "c", "d")])
        apart_matrix, apart_codes = TrigramEncoder().count([("a", "b", "c"), ("b", "c", "d")])
        assert joined_codes.tolist() == apart_codes.tolist()
        assert joined_matrix.indptr.tolist() == [0, 2] and joined_matrix.data.tolist() == [1, 1]
        assert scipy_of(joined_matrix).toarray().tolist() == [
            scipy_of(apart_matrix).sum(axis=0).A1.tolist()
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.lists(st.sampled_from("abcde"), max_size=7), max_size=4),
            max_size=5,
        )
    )
    def test_groups_sum_their_docs_indexed_counts(self, groups):
        # a group's docs joined into one stream, a boundary between two docs
        encoder = TrigramEncoder()
        matrix, codes = encoder.count(_joined(group) for group in groups)
        assert matrix.shape == (len(groups), codes.size) and matrix.data.dtype == float
        assert codes.tolist() == sorted(set(codes.tolist()))
        decoded = encoder.decode(codes[matrix.indices])
        for g, group in enumerate(groups):
            expected = {}
            for tokens in group:
                for trigram, count in oracles.indexed_trigram_counts(tokens).items():
                    expected[trigram] = expected.get(trigram, 0) + count
            start, end = matrix.indptr[g], matrix.indptr[g + 1]
            assert dict(zip(decoded[start:end], matrix.data[start:end].tolist())) == expected
            columns = matrix.indices[start:end].tolist()
            assert columns == sorted(set(columns))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(st.lists(st.sampled_from("abcd"), max_size=9), max_size=4),
            max_size=6,
        ),
        st.integers(1, 7),
    )
    @example([], 1)
    @example([[], [("a", "b", "c")], []], 1)
    @example([[("a", "b", "c", "d", "a", "b", "c", "d")], [("a", "b", "c")]], 2)
    def test_chunks_count_as_one(self, groups, chunk_tokens):
        streams = [_joined(group) for group in groups]
        whole_matrix, whole_codes = TrigramEncoder().count(streams)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_TOKENS", chunk_tokens)
            matrix, codes = TrigramEncoder().count(iter(streams))
        assert matrix.shape == whole_matrix.shape
        for field in ("indptr", "indices", "data"):
            ours, theirs = getattr(matrix, field), getattr(whole_matrix, field)
            assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
        assert codes.dtype == whole_codes.dtype and codes.tolist() == whole_codes.tolist()

    @pytest.mark.parametrize("chunk_tokens", [1, 4, 7])
    # the lengths of the streams that "a b c a d" is cut into
    @pytest.mark.parametrize("sizes", [[4, 1], [5]])
    def test_vocabulary_guard_in_any_chunk(self, monkeypatch, chunk_tokens, sizes):
        monkeypatch.setattr(ingest, "TOKEN_ID_BITS", 2)
        monkeypatch.setattr(ingest, "CHUNK_TOKENS", chunk_tokens)
        tokens = iter("abcad")
        # the fifth id, "d", overflows whether or not it starts a stream or a
        # chunk of its own
        with pytest.raises(VocabularyOverflowError):
            TrigramEncoder().count([tuple(islice(tokens, size)) for size in sizes])

    def test_vocabulary_guard(self, monkeypatch):
        monkeypatch.setattr(ingest, "TOKEN_ID_BITS", 2)
        # the boundary and three tokens fill two-bit ids; their codes still decode
        full = [("a", "b", "c", "a")]
        encoder = TrigramEncoder()
        _, codes = encoder.count(full)
        assert encoder.decode(codes) == [("a", "b", "c"), ("b", "c", "a")]
        with pytest.raises(VocabularyOverflowError):
            TrigramEncoder().count(full + [("d",)])
        # stopwords take no id: any number of them, listed or met, still fits
        for size in (1, 4, 50):
            stopwords = frozenset(f"s{i}" for i in range(size))
            encoder = TrigramEncoder(stopwords)
            _, codes = encoder.count([("s0", "a", "b", *sorted(stopwords), "c", "a", "s0")])
            assert encoder.decode(codes) == [("a", "b", "c"), ("b", "c", "a")]

    @settings(max_examples=300, deadline=None)
    @given(
        streams=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "the", "of", "rt", BOUNDARY]), max_size=12),
            max_size=6,
        ),
        stopwords=ENCODER_STOPWORDS,
        chunk_tokens=st.integers(1, 9),
    )
    # a stream of stopwords alone, and a stopword on each side of a boundary
    @example(streams=[["the", "the"], ["a", "the", BOUNDARY, "the", "b", "c"]],
             stopwords=frozenset({"the"}), chunk_tokens=1)
    def test_stopwords_count_as_filtered_streams(self, streams, stopwords, chunk_tokens):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_TOKENS", chunk_tokens)
            encoder = TrigramEncoder(stopwords)
            matrix, codes = encoder.count(iter(streams))
        reference = TrigramEncoder()
        expected, expected_codes = reference.count(
            oracles.drop_stopwords(stream, stopwords) for stream in streams
        )
        assert matrix.shape == expected.shape
        for field in ("indptr", "indices", "data"):
            ours, theirs = getattr(matrix, field), getattr(expected, field)
            assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
        assert codes.tolist() == expected_codes.tolist()
        assert encoder.decode(codes) == reference.decode(expected_codes)
