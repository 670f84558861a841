import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import (
    day_counts,
    day_docs_of,
    decoded_counts,
    decoded_rows,
    grouped_corpus,
    make_record,
    scipy_of,
)
from sentinet.errors import (
    InvalidDocumentError,
    ParameterError,
    UndefinedScoreError,
)
from sentinet.ingest import PACKAGED, CountMatrix, TrigramEncoder, load_wordlist, normalize_text
from sentinet.similarity import (
    CommunityDayDoc,
    DayDocs,
    SimilaritySeries,
    adf_critical_value,
    adf_test,
    build_community_day_docs,
    burst_score,
    burst_scores,
    cosine_similarity,
    flag_days,
    intercluster_similarity,
    read_series_csv,
    similarity_series,
    write_series_csv,
)

DAY = date(2020, 7, 1)


def doc(community, counts, day=DAY, ids=("t",)):
    return CommunityDayDoc(
        community=community, day=day, trigram_counts=counts, tweet_ids=tuple(ids)
    )


def series_of(values, start=DAY):
    days = tuple(start + timedelta(days=i) for i in range(len(values)))
    return SimilaritySeries(pair=("A", "B"), days=days, values=tuple(values))


class TestCosine:
    def test_identical_vectors(self):
        u = {("a", "b", "c"): 2, ("b", "c", "d"): 1}
        assert cosine_similarity(u, dict(u)) == 1.0

    def test_disjoint_supports(self):
        assert cosine_similarity({("a", "a", "a"): 1}, {("b", "b", "b"): 1}) == 0.0

    def test_half_overlap(self):
        u = {("a",) * 3: 1, ("b",) * 3: 1}
        v = {("a",) * 3: 1, ("c",) * 3: 1}
        assert cosine_similarity(u, v) == pytest.approx(0.5)

    def test_zero_vector_invalid(self):
        with pytest.raises(InvalidDocumentError):
            cosine_similarity({}, {("a",) * 3: 1})

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
    def test_scale_invariance(self, p, q):
        u = {("a",) * 3: 1, ("b",) * 3: 3}
        v = {("a",) * 3: 2, ("c",) * 3: 1}
        base = cosine_similarity(u, v)
        scaled = cosine_similarity(
            {k: c * p for k, c in u.items()}, {k: c * q for k, c in v.items()}
        )
        assert scaled == pytest.approx(base)


class TestIntercluster:
    def test_single_identical_pair(self):
        a = doc("a1", {("x", "y", "z"): 2})
        b = doc("b1", {("x", "y", "z"): 5})
        assert intercluster_similarity([a], [b]) == pytest.approx(1.0)

    def test_mean_of_four_pairs(self):
        shared1 = {("p",) * 3: 1}
        shared2 = {("q",) * 3: 1}
        docs_a = [doc("a1", shared1), doc("a2", shared2)]
        docs_b = [doc("b1", shared1), doc("b2", shared2)]
        assert intercluster_similarity(docs_a, docs_b) == pytest.approx(0.5)

    def test_empty_doc_skipped(self):
        shared = {("p",) * 3: 1}
        docs_a = [doc("a1", shared), doc("a2", shared)]
        docs_b = [doc("b1", shared), doc("b2", {})]
        # the two valid pairs both score 1
        assert intercluster_similarity(docs_a, docs_b) == pytest.approx(1.0)

    def test_all_empty_invalid(self):
        assert intercluster_similarity([doc("a", {})], [doc("b", {})]) is None

    def test_symmetry(self):
        docs_a = [doc("a1", {("x",) * 3: 1, ("y",) * 3: 2})]
        docs_b = [doc("b1", {("x",) * 3: 2}), doc("b2", {("y",) * 3: 1})]
        assert intercluster_similarity(docs_a, docs_b) == pytest.approx(
            intercluster_similarity(docs_b, docs_a)
        )


# codes of five trigrams that share their last two tokens
VOCAB = [i << 42 | 5 << 21 | 6 for i in range(5)]
DAYS = [DAY + timedelta(days=i) for i in range(4)]


@st.composite
def cluster_day_docs(draw):
    """Docs of two clusters over a few days; some absent, some empty."""
    communities_a = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    communities_b = [f"b{i}" for i in range(draw(st.integers(1, 4)))]
    days = DAYS[: draw(st.integers(1, len(DAYS)))]
    kinds = st.sampled_from(["absent", "empty", "counts", "counts", "counts"])
    counts = st.dictionaries(
        st.sampled_from(VOCAB), st.integers(1, 50), min_size=1, max_size=len(VOCAB)
    )
    day_docs = {}
    for community in communities_a + communities_b:
        for day in days:
            kind = draw(kinds)
            if kind != "absent":
                drawn = {} if kind == "empty" else draw(counts)
                day_docs[(community, day)] = doc(community, drawn, day=day)
    return day_docs, communities_a, communities_b, days


class TestSimilaritySeries:
    @settings(max_examples=300, deadline=None)
    @given(cluster_day_docs())
    @example(
        (
            {
                ("a0", DAYS[0]): doc("a0", {VOCAB[0]: 3, VOCAB[1]: 7}),
                ("b0", DAYS[0]): doc("b0", {VOCAB[0]: 3, VOCAB[1]: 7}),
                ("a0", DAYS[1]): doc("a0", {}, day=DAYS[1]),
                ("b0", DAYS[1]): doc("b0", {VOCAB[2]: 1}, day=DAYS[1]),
            },
            ["a0"],
            ["b0"],
            DAYS[:3],
        )
    )
    # summing the cosines in another order, or with np.mean, changes the last bit here
    @example(
        (
            {
                ("a0", DAY): doc(
                    "a0", {VOCAB[2]: 41, VOCAB[3]: 12, VOCAB[4]: 36, VOCAB[0]: 38, VOCAB[1]: 12}
                ),
                ("a1", DAY): doc("a1", {VOCAB[4]: 17}),
                ("a2", DAY): doc("a2", {VOCAB[0]: 6}),
                ("b0", DAY): doc("b0", {VOCAB[3]: 1}),
                ("b1", DAY): doc("b1", {VOCAB[1]: 40, VOCAB[2]: 12, VOCAB[0]: 23}),
                ("b2", DAY): doc("b2", {VOCAB[0]: 17, VOCAB[1]: 34, VOCAB[4]: 11}),
            },
            ["a0", "a1", "a2"],
            ["b0", "b1", "b2"],
            DAYS[:1],
        )
    )
    def test_equals_per_day_reference_exactly(self, case):
        day_docs, communities_a, communities_b, days = case
        series = similarity_series(
            day_docs_of(day_docs), communities_a, communities_b, days, pair=("A", "B")
        )
        expected = tuple(
            intercluster_similarity(
                [day_docs[(c, day)] for c in communities_a if (c, day) in day_docs],
                [day_docs[(c, day)] for c in communities_b if (c, day) in day_docs],
            )
            for day in days
        )
        assert series.values == expected

    def test_identical_docs_exactly_one_and_invalid_days_none(self):
        counts = {VOCAB[0]: 3, VOCAB[1]: 7, VOCAB[2]: 11}
        day_docs = {
            ("a0", DAYS[0]): doc("a0", counts),
            ("b0", DAYS[0]): doc("b0", dict(counts)),
            ("b1", DAYS[0]): doc("b1", dict(counts)),
            ("a0", DAYS[1]): doc("a0", {}, day=DAYS[1]),
            ("b0", DAYS[1]): doc("b0", counts, day=DAYS[1]),
        }
        series = similarity_series(
            day_docs_of(day_docs), ["a0"], ["b0", "b1"], DAYS[:3], ("A", "B")
        )
        assert series.values == (1.0, None, None)


class TestDayDocs:
    def test_trigrams_do_not_cross_tweets(self, record_factory):
        texts = ["alpha beta gamma", "delta epsilon zeta"]
        records = {"c": [record_factory(str(i), "u", text=t) for i, t in enumerate(texts)]}
        encoder = TrigramEncoder()
        built = day_counts(*grouped_corpus(records), encoder)
        built = decoded_rows(built, encoder)[("c", DAY)]
        assert sum(built.values()) == 2
        assert ("gamma", "delta", "epsilon") not in built

    def test_concatenation_matches_per_tweet_sum(self, record_factory):
        texts = ["one two three four", "five six seven", "eight nine ten eleven"]
        per_tweet = [normalize_text(t) for t in texts]
        expected = {}
        for tokens in per_tweet:
            for trigram, count in oracles.indexed_trigram_counts(tokens).items():
                expected[trigram] = expected.get(trigram, 0) + count
        records = {
            "c": [record_factory(str(i), "u", text=t) for i, t in enumerate(texts)]
        }
        encoder = TrigramEncoder()
        built = day_counts(*grouped_corpus(records), encoder)
        assert decoded_rows(built, encoder) == {("c", DAY): expected}

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=8).flatmap(
            lambda lengths: st.tuples(
                st.just(lengths),
                st.lists(st.integers(1, 10**6), min_size=sum(lengths), max_size=sum(lengths)),
            )
        )
    )
    # empty leading, inner and trailing rows
    @example(([0, 2, 0, 0, 1, 0], [3, 4, 5]))
    @example(([0, 0], []))
    def test_norms_equal_the_squared_matrix_row_sums(self, drawn):
        lengths, counts = drawn
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        columns = [j for length in lengths for j in range(length)]
        matrix = CountMatrix(
            np.array(counts, dtype=float), np.array(columns, dtype=np.intp), indptr, (len(lengths), 3)
        )
        docs = DayDocs.from_rows(range(len(lengths)), matrix)
        reference = scipy_of(matrix)
        expected = np.asarray(reference.multiply(reference).sum(axis=1)).ravel()
        norms_sq = docs.gram.diagonal()
        assert norms_sq.dtype == expected.dtype and norms_sq.tolist() == expected.tolist()
        assert docs.gram.tolist() == (reference @ reference.T).toarray().tolist()
        assert docs.position == {row: row for row in range(len(lengths))}


def per_tweet_reference(records_by_community, stopwords):
    """Day trigram counts summing one indexed counter per tweet, each tweet
    tokenized alone by the reference tokenizer."""
    grouped = {}
    for community in sorted(records_by_community, key=str):
        for record in records_by_community[community]:
            day = date.fromisoformat(record["created_at"][:10])
            counts = grouped.setdefault((community, day), {})
            tokens = oracles.normalize_text(record["text"], stopwords)
            for trigram, count in oracles.indexed_trigram_counts(tokens).items():
                counts[trigram] = counts.get(trigram, 0) + count
    return grouped


# words, stopwords, URLs, mentions and non-ASCII letters
TEXT_PIECES = st.sampled_from(
    ["covid", "cases", "rise", "Mask", "the", "of", "RT", "@cdc", "@who_int",
     "http://t.co/x1", "https://example.org/a?b=1", "www.news.com/p",
     "café", "Straße", "ÉCOLE", "вакцина", "日本", "-", "!!", "#covid"]
)
# one to four pieces, possibly repeated, so a tweet can repeat a trigram
TWEET_TEXTS = st.tuples(st.lists(TEXT_PIECES, max_size=4), st.integers(1, 3)).map(
    lambda drawn: " ".join(drawn[0] * drawn[1])
)


# per community, its tweets' texts and day offsets
COMMUNITY_TWEETS = st.lists(
    st.lists(st.tuples(TWEET_TEXTS, st.integers(0, 3)), max_size=6), min_size=1, max_size=3
)


def records_of(communities):
    """Community label -> its tweets' records, from (text, day offset) pairs per community."""
    return {
        f"c{i}": [
            make_record(f"{i}-{j}", "u", text=text, day_offset=offset)
            for j, (text, offset) in enumerate(tweets)
        ]
        for i, tweets in enumerate(communities)
    }


class TestDayDocsEqualPerTweetReference:
    @settings(max_examples=150, deadline=None)
    @given(
        communities=COMMUNITY_TWEETS,
        stopwords=st.sampled_from([frozenset(), frozenset({"the", "of", "rt"})]),
    )
    # the day's tweets end and start with words that would form trigrams if joined
    @example(communities=[[("alpha beta", 0), ("gamma delta", 0)]], stopwords=frozenset())
    # ASCII and non-ASCII tweets on one day: the day is tokenized as two batches
    @example(
        communities=[
            [("alpha beta", 0), ("café gamma", 0), ("delta epsilon", 0), ("ÉCOLE x y", 0)]
        ],
        stopwords=frozenset(),
    )
    def test_equals_summed_indexed_counters(self, communities, stopwords):
        records = records_of(communities)
        corpus, rows = grouped_corpus(records)
        encoder = TrigramEncoder(stopwords)
        counted = day_counts(corpus, rows, encoder)
        expected = per_tweet_reference(records, stopwords)
        # days once each and ascending; one row per community-day, in label order
        days = [day for day, *_ in counted]
        assert days == sorted(set(days))
        for _, labels, matrix, codes in counted:
            assert labels == sorted(set(labels)) and matrix.shape == (len(labels), codes.size)
            # codes ascend with the column, and columns ascend within each row
            assert np.all(np.diff(codes) > 0)
            assert scipy_of(matrix).has_sorted_indices and matrix.data.dtype == float
        # one encoder decodes every day's rows
        assert decoded_rows(counted, encoder) == expected
        docs = build_community_day_docs(corpus, rows, TrigramEncoder(stopwords))
        assert docs.keys() == set(days)
        for (community, day), counts in expected.items():
            row = docs[day].position[community]
            assert docs[day].gram[row, row] == sum(c * c for c in counts.values())


class TestDayDocsEqualWindowBuild:
    @settings(max_examples=150, deadline=None)
    @given(
        communities=COMMUNITY_TWEETS,
        stopwords=st.sampled_from([frozenset(), frozenset({"the", "of", "rt"})]),
        order=st.randoms(use_true_random=False),
    )
    def test_every_norm_and_dot_equals_the_window_build(self, communities, stopwords, order):
        corpus, rows = grouped_corpus(records_of(communities))
        # the build orders communities by label itself
        labels = list(rows)
        order.shuffle(labels)
        rows = {label: rows[label] for label in labels}
        built = build_community_day_docs(corpus, rows, TrigramEncoder(stopwords))
        expected = oracles.window_day_grams(corpus, rows, TrigramEncoder(stopwords))
        assert built.keys() == expected.keys()
        for day, dots in expected.items():
            docs = built[day]
            assert {pair[0] for pair in dots} == docs.position.keys()
            assert docs.gram.shape == (len(docs.position),) * 2
            for (first, second), dot in dots.items():
                assert docs.gram[docs.position[first], docs.position[second]] == dot


class TestBuildMemory:
    COMMUNITIES, TWEETS, WORDS = 6, 40, 40

    def traced_peak(self, n_days):
        """tracemalloc's peak over one build of the same daily tweets on ``n_days`` days."""
        texts = [
            " ".join(f"w{(7 * c + 31 * i + 17 * j) % 997}" for j in range(self.WORDS))
            for c in range(self.COMMUNITIES)
            for i in range(self.TWEETS)
        ]
        records = {
            f"c{c}": [
                make_record(f"{c}-{day}-{i}", "u", text=texts[c * self.TWEETS + i], day_offset=day)
                for day in range(n_days)
                for i in range(self.TWEETS)
            ]
            for c in range(self.COMMUNITIES)
        }
        corpus, rows = grouped_corpus(records)
        corpus.days  # the corpus's own cached column, made once per run
        tracemalloc.start()
        try:
            docs = build_community_day_docs(corpus, rows, TrigramEncoder())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(docs) == n_days
        return peak

    def test_peak_does_not_grow_with_the_window(self):
        days = 5
        assert self.traced_peak(4 * days) <= 1.25 * self.traced_peak(days)


NORMALIZE_EXAMPLES = [
    ("The CDC quietly updated", frozenset({"the"})),
    ("@user http://a.b c", frozenset()),
    (" ".join(f"word{i}" for i in range(50)), frozenset()),
    ("", frozenset()),
    ("#covid spreading", frozenset()),
    ("RT @x: the lockdown ends", load_wordlist(PACKAGED["stopwords"])),
    ("see www.example.org/x?y=1 and http only", frozenset()),
    ("covid cases rise covid cases rise", frozenset()),
]


class TestTokenDoc:
    """A tweet's token doc is the tuple normalize_text returns."""

    @pytest.mark.parametrize("text,stopwords", NORMALIZE_EXAMPLES)
    def test_equality_and_trigram_counts_unchanged(self, text, stopwords):
        token_doc = normalize_text(text)
        fresh = oracles.normalize_text(text)
        assert type(token_doc) is tuple
        assert token_doc == fresh and hash(token_doc) == hash(fresh)
        expected = oracles.indexed_trigram_counts(oracles.drop_stopwords(token_doc, stopwords))
        counts = decoded_counts([token_doc], stopwords)
        assert counts == expected
        # counting leaves the doc as it was
        assert token_doc == fresh
        assert token_doc != token_doc + ("extra",)


class TestBurstScore:
    def test_equal_to_history_mean_is_zero(self):
        series = series_of([0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.2, 0.4, 0.3])
        assert burst_score(series, 8, min_history=7) == pytest.approx(0.0)

    def test_matches_direct_mean_sd_oracle(self):
        history = [0.1, 0.1, 0.1, 0.3]
        target = 0.5
        series = series_of(history + [target])
        mean, sd = oracles.mean_and_population_sd(history)
        expected = (target - mean) / sd
        assert burst_score(series, 4, min_history=4) == pytest.approx(
            expected, abs=1e-12
        )

    def test_constant_history_undefined(self):
        series = series_of([0.2] * 7 + [0.9])
        assert burst_score(series, 7, min_history=7) is None

    def test_insufficient_history_undefined(self):
        series = series_of([0.1, 0.4, 0.2, 0.5])
        assert burst_score(series, 3, min_history=7) is None

    def test_invalid_days_excluded_from_history(self):
        values = [0.1, None, 0.3, None, 0.2, 0.4, 0.1, 0.3, 0.2, 0.6]
        series = series_of(values)
        prior = [v for v in values[:9] if v is not None]
        mean, sd = oracles.mean_and_population_sd(prior)
        assert burst_score(series, 9, min_history=7) == pytest.approx(
            (0.6 - mean) / sd
        )

    def test_invalid_day_scores_none(self):
        series = series_of([0.1] * 7 + [None])
        assert burst_score(series, 7, min_history=7) is None

    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=0.1, max_value=10, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_translation_and_scale_invariance(self, shift, scale):
        values = [0.11, 0.25, 0.17, 0.31, 0.21, 0.28, 0.16, 0.55]
        base = burst_score(series_of(values), 7, min_history=7)
        moved = burst_score(series_of([v + shift for v in values]), 7, min_history=7)
        scaled = burst_score(series_of([v * scale for v in values]), 7, min_history=7)
        assert moved == pytest.approx(base, rel=1e-9)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestFlagDays:
    def test_quiet_series_unflagged(self):
        series = series_of([0.2, 0.3, 0.25, 0.2, 0.3, 0.25, 0.2, 0.26])
        assert flag_days(series) == set()

    def test_exactly_two_is_flagged(self):
        # history with exactly representable mean 0.5 and sd 0.5, so the
        # final day scores exactly 2.0 and must be flagged under the >= rule
        history = [0.0, 1.0] * 4
        series = series_of(history + [1.5])
        scores = burst_scores(series, min_history=7)
        assert scores[8] == 2.0
        assert flag_days(series, threshold=2.0) == {series.days[8]}

    def test_removing_shared_driver_lowers_similarity(self, record_factory):
        viral = "cdc quietly updated the death statistics overnight"
        noise_a = "local cases rise in the north region today"
        noise_b = "hospital capacity steady across southern towns"

        def similarity(texts_a, texts_b):
            records = {
                community: [record_factory(f"{community}{i}", "u", text=t) for i, t in enumerate(texts)]
                for community, texts in (("ca", texts_a), ("cb", texts_b))
            }
            day_docs = build_community_day_docs(*grouped_corpus(records), TrigramEncoder())
            (value,) = similarity_series(day_docs, ["ca"], ["cb"], [DAY], ("A", "B")).values
            return value

        assert similarity([noise_a, viral], [noise_b, viral]) > similarity([noise_a], [noise_b])


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        series = series_of([0.1, None, 0.3, 0.2, 0.15, 0.22, 0.18, 0.2, 0.9])
        path = tmp_path / "series.csv"
        write_series_csv([series], path)
        loaded = read_series_csv(path)
        assert len(loaded) == 1
        assert loaded[0].values == series.values
        assert loaded[0].days == series.days

    def test_day_of_a_pair_listed_twice_is_an_error(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv([series_of([0.1, 0.2, 0.3])], path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[1:2]))
        day, pair = lines[1].split(",")[:2]
        with pytest.raises(ValueError, match=f"day {day} of pair {pair} listed twice"):
            read_series_csv(path)

    def test_header_and_flag_column(self, tmp_path):
        history = [0.1, 0.3, 0.1, 0.3, 0.1, 0.3, 0.1]
        mean, sd = oracles.mean_and_population_sd(history)
        series = series_of(history + [mean + 5 * sd])
        path = tmp_path / "series.csv"
        write_series_csv([series], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "day,pair,s,valid,H,flagged"
        assert lines[-1].endswith(",1")


class TestAdf:
    def test_white_noise_rejected_random_walk_not(self):
        rng = np.random.default_rng(123)
        noise = adf_test(rng.standard_normal(180), 0.05)
        walk = adf_test(np.cumsum(rng.standard_normal(180)), 0.05)
        assert noise.reject
        assert not walk.reject

    def test_trend_statistic_defined(self):
        result = adf_test(np.arange(180, dtype=float), 0.05)
        assert not math.isnan(result.statistic)
        assert result.verdict

    def test_constant_series_degenerate(self):
        with pytest.raises(UndefinedScoreError):
            adf_test([3.0] * 50)

    def test_short_series_rejected(self):
        with pytest.raises(ParameterError):
            adf_test([1.0, 2.0, 3.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            adf_test([1.0] * 20 + [float("nan")])

    def test_alpha_levels(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(100)
        strict = adf_test(y, 0.01)
        loose = adf_test(y, 0.10)
        assert strict.critical_value < loose.critical_value
        with pytest.raises(ParameterError):
            adf_test(y, 0.2)

    def test_critical_value_interpolation(self):
        # between the 100-row (-2.89) and 250-row (-2.88) at 5%
        value = adf_critical_value(179, 0.05)
        assert -2.89 < value < -2.88
        assert adf_critical_value(10, 0.05) == -3.00
        assert adf_critical_value(10_000, 0.05) == -2.86

    def test_statistic_matches_statsmodels_convention(self):
        # hand-checked OLS: statistic is slope/SE from (dy ~ 1 + lag)
        rng = np.random.default_rng(9)
        y = rng.standard_normal(60).cumsum()
        dy = np.diff(y)
        design = np.column_stack([np.ones(59), y[:-1]])
        beta, *_ = np.linalg.lstsq(design, dy, rcond=None)
        resid = dy - design @ beta
        s2 = resid @ resid / (59 - 2)
        se = np.sqrt(s2 * np.linalg.inv(design.T @ design)[1, 1])
        assert adf_test(y).statistic == pytest.approx(beta[1] / se, rel=1e-9)
