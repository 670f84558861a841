import io
import json
import re
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import decoded_counts
from sentinet import ingest
from sentinet.errors import EmptyCorpusError, UrlParseError, VocabularyOverflowError
from sentinet.ingest import (
    BOUNDARY,
    PACKAGED,
    TrigramEncoder,
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
        assert [r.tweet_id for r in result.records] == ["0", "1", "2"]

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
        assert [r.tweet_id for r in result.records] == ["0", "2"]
        assert result.skipped == 1

    def test_duplicate_ids_skipped(self):
        result = parse_tweet_stream(io.StringIO("\n".join([make_line(7), make_line(7)])))
        assert len(result.records) == 1
        assert result.skipped == 1

    def test_day_is_the_utc_date_outside_equality_and_hash(self):
        lines = [make_line(0), make_line(1, created_at="2020-07-01T23:30:00-02:00")]
        records = parse_tweet_stream(io.StringIO("\n".join(lines))).records
        assert [r.day for r in records] == [r.created_at.date() for r in records]
        assert [r.day for r in records] == [date(2020, 7, 1), date(2020, 7, 2)]
        (again,) = parse_tweet_stream(io.StringIO(make_line(0))).records
        assert again == records[0] and hash(again) == hash(records[0])
        identity = ("tweet_id", "author_id", "created_at", "text", "retweeted_author_id", "urls")
        assert hash(again) == hash(tuple(getattr(again, name) for name in identity))
        assert "day=" not in repr(again)
        moved = replace(again, created_at=datetime(2020, 8, 9, 1, 0, tzinfo=timezone.utc))
        assert moved.day == date(2020, 8, 9) and moved != again

    def test_records_of_one_day_share_their_date(self):
        lines = [
            make_line(0, created_at="2020-07-01T00:00:01Z"),
            make_line(1, created_at="2020-07-01T21:30:00-02:00"),
            make_line(2, created_at="2020-07-02T00:00:00Z"),
        ]
        first, second, third = parse_tweet_stream(io.StringIO("\n".join(lines))).records
        assert first.day is second.day
        assert third.day == date(2020, 7, 2) and third.day is not first.day

    def test_records_of_one_parse_share_account_ids(self):
        lines = [
            make_line(0, author_id="acct"),
            make_line(1, author_id="acct", retweeted_author_id="other"),
            make_line(2, author_id="other", retweeted_author_id="acct"),
        ]
        first, second, third = parse_tweet_stream(io.StringIO("\n".join(lines))).records
        assert first.author_id is second.author_id is third.retweeted_author_id
        assert second.retweeted_author_id is third.author_id
        assert not hasattr(first, "__dict__")

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
        write_corpus(records, path)
        reparsed = read_corpus(path)
        assert reparsed.skipped == 0
        assert reparsed.records == records
        # serialize -> parse -> serialize is a fixed point
        path2 = tmp_path / "again.jsonl"
        write_corpus(reparsed.records, path2)
        assert path.read_bytes() == path2.read_bytes()


# ISO-8601 renderings, mostly ones parse_timestamp accepts, with padding
ISO_TIMESTAMPS = st.builds(
    lambda moment, offset, spec, suffix, pad: pad
    + moment.replace(tzinfo=offset).isoformat(timespec=spec)
    + suffix
    + pad,
    st.datetimes(datetime(1990, 1, 1), datetime(2100, 1, 1)),
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
        "tweet_id": draw(st.sampled_from(["1", "2", "3"])),
        "author_id": draw(st.sampled_from(["a", "b"])),
        "created_at": draw(ISO_TIMESTAMPS),
        "text": draw(st.text(max_size=5)),
        "retweeted_author_id": draw(st.sampled_from([None, "a", "b"])),
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
    """Skipped count and each record with its timestamp's rendering, or None if nothing parses."""
    try:
        result = parse(lines)
    except EmptyCorpusError:
        return None
    utc = timezone.utc
    return result.skipped, [
        (record, record.day, record.created_at.isoformat(), record.created_at.tzinfo is utc)
        for record in result.records
    ]


class TestParseEquivalence:
    @settings(max_examples=1000)
    @given(TIMESTAMPS)
    @example("2020-07-01T12:00:00.999999z")
    @example("2020-07-01T23:30:00.5-02:00")
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
        for bad in ["", "http://", "mailto:", "no spaces allowed.com/x y"[:3]]:
            with pytest.raises(UrlParseError):
                extract_domain(bad)

    @given(st.sampled_from(["a.com", "news.site.org", "x.y.z.co", "sub.example.net"]))
    def test_idempotent_on_own_output(self, host):
        domain = extract_domain(f"https://www.{host}/path?q=1")
        assert extract_domain(domain) == domain


class TestNormalizeText:
    def test_basic(self):
        tokens = normalize_text("The CDC quietly updated", frozenset({"the"}))
        assert tokens == ("cdc", "quietly", "updated")
        assert decoded_counts([tokens]) == {("cdc", "quietly", "updated"): 1}

    def test_mention_and_url_removed(self):
        tokens = normalize_text("@user http://a.b c", frozenset())
        assert tokens == ("c",)
        assert decoded_counts([tokens]) == {}

    def test_fifty_token_sentence(self):
        text = " ".join(f"word{i}" for i in range(50))
        tokens = normalize_text(text, frozenset())
        assert sum(decoded_counts([tokens]).values()) == 48

    def test_empty_text(self):
        tokens = normalize_text("", frozenset())
        assert tokens == ()
        assert decoded_counts([tokens]) == {}

    def test_hashtag_keeps_stem(self):
        tokens = normalize_text("#covid spreading", frozenset())
        assert tokens == ("covid", "spreading")

    def test_default_stopwords_drop_rt(self):
        tokens = normalize_text("RT @x: the lockdown ends", load_wordlist(PACKAGED["stopwords"]))
        assert tokens == ("lockdown", "ends")

    @given(st.text(max_size=200))
    def test_no_url_or_mention_remnants(self, text):
        tokens = normalize_text(text, frozenset())
        url_pattern = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
        for token in tokens:
            assert "@" not in token
            assert not url_pattern.search(token)
            assert re.fullmatch(r"[^\W_]+", token)

    def test_url_like_tokens_removed_whole(self):
        tokens = normalize_text("see www.example.org/x?y=1 and http only", frozenset())
        assert "example" not in tokens
        assert tokens == ("see", "and", "http", "only")

    @given(st.lists(st.sampled_from(["covid", "cases", "rise", "cdc", "mask"]), max_size=12))
    def test_trigram_total_identity(self, words):
        tokens = normalize_text(" ".join(words), frozenset())
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
SMALL_STOPWORDS = frozenset({"the", "www", "i̇", "k", "ß", "42"})
TOKENIZER_STOPWORDS = st.sampled_from(
    [frozenset(), SMALL_STOPWORDS, load_wordlist(PACKAGED["stopwords"])]
)


class TestTokenizerEquivalence:
    @settings(max_examples=500)
    @given(text=st.text(), stopwords=TOKENIZER_STOPWORDS)
    @example(text="@www.foo.com bar", stopwords=frozenset())
    def test_any_text(self, text, stopwords):
        assert normalize_text(text, stopwords) == oracles.normalize_text(text, stopwords)

    @settings(max_examples=500)
    @given(
        pieces=st.lists(TOKENIZER_PIECES | st.text(max_size=4), max_size=12),
        stopwords=TOKENIZER_STOPWORDS,
    )
    def test_mixed_pieces(self, pieces, stopwords):
        text = "".join(pieces)
        assert normalize_text(text, stopwords) == oracles.normalize_text(text, stopwords)


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
        stopwords=TOKENIZER_STOPWORDS,
    )
    # a NUL or newline inside a text
    @example(texts=["a\x00b c", "d\ne f", "g"], stopwords=frozenset())
    # a final sigma, then a text that starts with a letter
    @example(texts=["ΑΣ", "Ab ΣΑΣ", "ΟΔΟΣ"], stopwords=frozenset())
    # a URL or mention as the last or first word of a text
    @example(texts=["see http://a.b/c", "@bob says", "news www.x.org", "@ann"], stopwords=frozenset())
    # an ASCII batch, lowercased before its URLs and mentions are removed
    @example(
        texts=["See HTTPS://X.ORG/A now", "WwW.Example.COM/p @Bob_2 hi", "@ANN"],
        stopwords=frozenset(),
    )
    # one non-ASCII text in an ASCII batch, and empty texts
    @example(texts=["", "plain words here", "café crème brûlée", "more plain words", ""], stopwords=frozenset())
    # every token of a text is a stopword
    @example(texts=["covid now", "The 42 www", "cases rise"], stopwords=SMALL_STOPWORDS)
    # a stopword list that names the boundary token itself
    @example(texts=["a b", "c\x00d"], stopwords=frozenset({BOUNDARY, "the"}))
    def test_each_text_as_if_alone(self, texts, stopwords):
        assert batch_texts(tokenize(texts, stopwords)) == [
            oracles.normalize_text(text, stopwords) for text in texts
        ]


class TestTrigramEncoder:
    def test_codes_pack_first_seen_ids(self):
        encoder = TrigramEncoder()
        matrix, codes = encoder.count([("b", "a", "c", "b", "a", "c"), ("a", "b")], [2])
        # ids: the boundary 0, b 1, a 2, c 3
        assert codes.tolist() == [1 << 42 | 2 << 21 | 3, 2 << 42 | 3 << 21 | 1, 3 << 42 | 1 << 21 | 2]
        assert matrix.indices.tolist() == [0, 1, 2]
        assert matrix.data.tolist() == [2, 1, 1] and matrix.indptr.tolist() == [0, 3]
        assert encoder.decode(codes) == [("b", "a", "c"), ("a", "c", "b"), ("c", "b", "a")]

    def test_no_trigram_spans_two_docs(self):
        docs = [("alpha", "beta"), ("gamma", "delta", "epsilon")]
        matrix, _ = TrigramEncoder().count(docs, [1, 1])
        assert matrix.indptr.tolist() == [0, 0, 1]
        assert decoded_counts(docs) == {("gamma", "delta", "epsilon"): 1}

    def test_boundary_inside_a_stream_splits_it(self):
        joined = TrigramEncoder().count([("a", "b", "c", BOUNDARY, "b", "c", "d")], [1])
        apart = TrigramEncoder().count([("a", "b", "c"), ("b", "c", "d")], [2])
        (joined_matrix, joined_codes), (apart_matrix, apart_codes) = joined, apart
        for field in ("indptr", "indices", "data"):
            assert getattr(joined_matrix, field).tolist() == getattr(apart_matrix, field).tolist()
        assert joined_codes.tolist() == apart_codes.tolist()
        assert joined_matrix.data.tolist() == [1, 1]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.lists(st.sampled_from("abcde"), max_size=7), max_size=4),
            max_size=5,
        )
    )
    def test_groups_sum_their_docs_indexed_counts(self, groups):
        streams = [tuple(tokens) for group in groups for tokens in group]
        encoder = TrigramEncoder()
        matrix, codes = encoder.count(iter(streams), [len(group) for group in groups])
        assert matrix.shape == (len(groups), codes.size) and matrix.dtype == float
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
        streams = [tuple(tokens) for group in groups for tokens in group]
        sizes = [len(group) for group in groups]
        whole_matrix, whole_codes = TrigramEncoder().count(streams, sizes)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_TOKENS", chunk_tokens)
            matrix, codes = TrigramEncoder().count(iter(streams), sizes)
        assert matrix.shape == whole_matrix.shape
        for field in ("indptr", "indices", "data"):
            ours, theirs = getattr(matrix, field), getattr(whole_matrix, field)
            assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
        assert codes.dtype == whole_codes.dtype and codes.tolist() == whole_codes.tolist()

    @pytest.mark.parametrize("chunk_tokens", [1, 4, 7])
    @pytest.mark.parametrize("sizes", [[2], [1, 1]])
    def test_vocabulary_guard_in_any_chunk(self, monkeypatch, chunk_tokens, sizes):
        monkeypatch.setattr(ingest, "TOKEN_ID_BITS", 2)
        monkeypatch.setattr(ingest, "CHUNK_TOKENS", chunk_tokens)
        # the fifth id, "d", overflows whether or not it starts a chunk of its own
        with pytest.raises(VocabularyOverflowError):
            TrigramEncoder().count([("a", "b", "c", "a"), ("d",)], sizes)

    def test_vocabulary_guard(self, monkeypatch):
        monkeypatch.setattr(ingest, "TOKEN_ID_BITS", 2)
        # the boundary and three tokens fill two-bit ids; their codes still decode
        full = [("a", "b", "c", "a")]
        encoder = TrigramEncoder()
        _, codes = encoder.count(full, [1])
        assert encoder.decode(codes) == [("a", "b", "c"), ("b", "c", "a")]
        with pytest.raises(VocabularyOverflowError):
            TrigramEncoder().count(full + [("d",)], [2])
