import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from sentinet.errors import (
    InvalidDocumentError,
    ParameterError,
    UndefinedStatisticError,
)
from sentinet.ingest import normalize_text
from sentinet.similarity import (
    CommunityDayDoc,
    SimilaritySeries,
    adf_critical_value,
    adf_test,
    build_community_day_docs,
    burst_score,
    burst_scores,
    cosine_similarity,
    doc_from_tweets,
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


VOCAB = [(word, "x", "y") for word in "abcde"]
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
            day_docs, communities_a, communities_b, days, pair=("A", "B")
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
        series = similarity_series(day_docs, ["a0"], ["b0", "b1"], DAYS[:3], ("A", "B"))
        assert series.values == (1.0, None, None)


class TestDayDocs:
    def test_trigrams_do_not_cross_tweets(self, record_factory):
        records = {
            "c": [
                record_factory("1", "u", text="alpha beta gamma"),
                record_factory("2", "u", text="delta epsilon zeta"),
            ]
        }
        docs = build_community_day_docs(records, frozenset())
        built = docs[("c", DAY)]
        assert sum(built.trigram_counts.values()) == 2
        assert ("gamma", "delta", "epsilon") not in built.trigram_counts

    def test_concatenation_matches_per_tweet_sum(self, record_factory):
        texts = ["one two three four", "five six seven", "eight nine ten eleven"]
        per_tweet = [normalize_text(t, frozenset()) for t in texts]
        expected = {}
        for token_doc in per_tweet:
            for trigram, count in token_doc.trigram_counts.items():
                expected[trigram] = expected.get(trigram, 0) + count
        records = {
            "c": [record_factory(str(i), "u", text=t) for i, t in enumerate(texts)]
        }
        built = build_community_day_docs(records, frozenset())[("c", DAY)]
        assert dict(built.trigram_counts) == expected


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
        stop = frozenset()
        tweets_a = [("a1", normalize_text(noise_a, stop)), ("va", normalize_text(viral, stop))]
        tweets_b = [("b1", normalize_text(noise_b, stop)), ("vb", normalize_text(viral, stop))]
        full_a = doc_from_tweets("ca", DAY, tweets_a)
        full_b = doc_from_tweets("cb", DAY, tweets_b)
        reduced_a = doc_from_tweets("ca", DAY, tweets_a[:1])
        reduced_b = doc_from_tweets("cb", DAY, tweets_b[:1])
        with_driver = intercluster_similarity([full_a], [full_b])
        without = intercluster_similarity([reduced_a], [reduced_b])
        assert with_driver > without


class TestSeriesCsv:
    def test_roundtrip(self, tmp_path):
        series = series_of([0.1, None, 0.3, 0.2, 0.15, 0.22, 0.18, 0.2, 0.9])
        path = tmp_path / "series.csv"
        write_series_csv([series], path)
        loaded = read_series_csv(path)
        assert len(loaded) == 1
        assert loaded[0].values == series.values
        assert loaded[0].days == series.days

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
        with pytest.raises(UndefinedStatisticError):
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
        loose = adf_test(y, "10%")
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
