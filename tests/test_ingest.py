import io
import json
import re
from dataclasses import replace
from datetime import date, datetime, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import decoded_counts
from sentinet import ingest
from sentinet.errors import EmptyCorpusError, UrlParseError, VocabularyOverflowError
from sentinet.ingest import (
    BOUNDARY,
    PACKAGED,
    TokenDoc,
    TrigramEncoder,
    extract_domain,
    load_wordlist,
    normalize_text,
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
        doc = normalize_text("The CDC quietly updated", frozenset({"the"}))
        assert doc.tokens == ("cdc", "quietly", "updated")
        assert decoded_counts([doc]) == {("cdc", "quietly", "updated"): 1}

    def test_mention_and_url_removed(self):
        doc = normalize_text("@user http://a.b c", frozenset())
        assert doc.tokens == ("c",)
        assert decoded_counts([doc]) == {}

    def test_fifty_token_sentence(self):
        text = " ".join(f"word{i}" for i in range(50))
        doc = normalize_text(text, frozenset())
        assert sum(decoded_counts([doc]).values()) == 48

    def test_empty_text(self):
        doc = normalize_text("", frozenset())
        assert doc.tokens == ()
        assert decoded_counts([doc]) == {}

    def test_hashtag_keeps_stem(self):
        doc = normalize_text("#covid spreading", frozenset())
        assert doc.tokens == ("covid", "spreading")

    def test_default_stopwords_drop_rt(self):
        doc = normalize_text("RT @x: the lockdown ends", load_wordlist(PACKAGED["stopwords"]))
        assert doc.tokens == ("lockdown", "ends")

    @given(st.text(max_size=200))
    def test_no_url_or_mention_remnants(self, text):
        doc = normalize_text(text, frozenset())
        url_pattern = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
        for token in doc.tokens:
            assert "@" not in token
            assert not url_pattern.search(token)
            assert re.fullmatch(r"[^\W_]+", token)

    def test_url_like_tokens_removed_whole(self):
        doc = normalize_text("see www.example.org/x?y=1 and http only", frozenset())
        assert "example" not in doc.tokens
        assert doc.tokens == ("see", "and", "http", "only")

    @given(st.lists(st.sampled_from(["covid", "cases", "rise", "cdc", "mask"]), max_size=12))
    def test_trigram_total_identity(self, words):
        doc = normalize_text(" ".join(words), frozenset())
        assert sum(decoded_counts([doc]).values()) == max(0, len(doc.tokens) - 2)


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
            oracles.normalize_text(text, stopwords).tokens for text in texts
        ]


class TestTrigramEncoder:
    def test_codes_pack_first_seen_ids(self):
        encoder = TrigramEncoder()
        counted = encoder.count([("b", "a", "c", "b", "a", "c"), ("a", "b")], [2])
        codes = counted.vocabulary[counted.columns]
        # ids: the boundary 0, b 1, a 2, c 3
        assert codes.tolist() == [1 << 42 | 2 << 21 | 3, 2 << 42 | 3 << 21 | 1, 3 << 42 | 1 << 21 | 2]
        assert counted.counts.tolist() == [2, 1, 1] and counted.indptr.tolist() == [0, 3]
        assert encoder.decode(codes) == [("b", "a", "c"), ("a", "c", "b"), ("c", "b", "a")]

    def test_no_trigram_spans_two_docs(self):
        docs = [TokenDoc(("alpha", "beta")), TokenDoc(("gamma", "delta", "epsilon"))]
        counted = TrigramEncoder().count((doc.tokens for doc in docs), [1, 1])
        assert counted.indptr.tolist() == [0, 0, 1]
        assert decoded_counts(docs) == {("gamma", "delta", "epsilon"): 1}

    def test_boundary_inside_a_stream_splits_it(self):
        joined = TrigramEncoder().count([("a", "b", "c", BOUNDARY, "b", "c", "d")], [1])
        apart = TrigramEncoder().count([("a", "b", "c"), ("b", "c", "d")], [2])
        for field in ("indptr", "columns", "counts", "vocabulary"):
            assert getattr(joined, field).tolist() == getattr(apart, field).tolist()
        assert joined.counts.tolist() == [1, 1]

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
        counted = encoder.count(iter(streams), [len(group) for group in groups])
        decoded = encoder.decode(counted.vocabulary[counted.columns])
        assert counted.vocabulary.tolist() == sorted(set(counted.vocabulary.tolist()))
        for g, group in enumerate(groups):
            expected = {}
            for tokens in group:
                for trigram, count in oracles.indexed_trigram_counts(tokens).items():
                    expected[trigram] = expected.get(trigram, 0) + count
            start, end = counted.indptr[g], counted.indptr[g + 1]
            assert dict(zip(decoded[start:end], counted.counts[start:end].tolist())) == expected
            columns = counted.columns[start:end].tolist()
            assert columns == sorted(set(columns))

    def test_vocabulary_guard(self, monkeypatch):
        monkeypatch.setattr(ingest, "TOKEN_ID_BITS", 2)
        # the boundary and three tokens fill two-bit ids; their codes still decode
        full = [("a", "b", "c", "a")]
        encoder = TrigramEncoder()
        counted = encoder.count(full, [1])
        assert encoder.decode(counted.vocabulary) == [("a", "b", "c"), ("b", "c", "a")]
        with pytest.raises(VocabularyOverflowError):
            TrigramEncoder().count(full + [("d",)], [2])
