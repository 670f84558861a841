from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import oracles
from sentinet import lsa
from sentinet.ingest import normalize_text
from sentinet.lsa import (
    confirm_drivers,
    lsa_topical_tweets,
    trigram_jaccard,
    truncated_svd,
)
from sentinet.similarity import (
    SimilaritySeries,
    burst_score,
    docs_from_tweets,
    intercluster_similarity,
)

DAY = date(2020, 7, 25)
STOP = frozenset()


def toks(text):
    return normalize_text(text, STOP)


UNRELATED = [
    "quiet morning walk by the river with coffee",
    "garden tomatoes finally ripening this weekend folks",
    "old jazz records sound better on rainy days",
    "the bakery downtown sells out before nine daily",
    "mountain trail closed after last night heavy storm",
    "stray cat adopted by the fire station crew",
    "local chess club meets tuesday at the library",
    "new mural appearing on the east side wall",
    "farmers market moved to the north parking lot",
    "bike repair shop reopened after a long winter",
]


class TestTruncatedSvd:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(2)
        dense = rng.random((8, 12))
        matrix = sp.csr_matrix(dense)
        _, s = truncated_svd(matrix, k=8)
        assert np.sum(s**2) == pytest.approx(np.sum(dense**2), rel=1e-8)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(3)
        matrix = sp.csr_matrix(rng.random((10, 6)))
        u, s = truncated_svd(matrix, k=4)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12)

    @pytest.mark.parametrize(
        "rows, cols, rank, k",
        [(40, 120, None, 5), (150, 40, None, 5), (12, 40, None, 12), (60, 90, 4, 7)],
        ids=["wide", "rows-above-cols", "k-equals-rows", "rank-deficient"],
    )
    def test_gram_path_matches_dense_svd(self, rows, cols, rank, k):
        # integer counts, as lsa_topical_tweets builds them; the rank-deficient
        # matrix repeats `rank` distinct rows
        rng = np.random.default_rng(rows * cols)
        counts = rng.poisson(0.4, size=(rank or rows, cols))
        if rank is not None:
            counts = counts[np.concatenate([np.arange(rank), rng.integers(0, rank, rows - rank)])]
        dense = counts.astype(float)
        u, s = truncated_svd(sp.csr_matrix(dense), k)
        u_svd, s_svd, _ = np.linalg.svd(dense, full_matrices=False)
        nonzero = min(k, rank or k)
        np.testing.assert_allclose(s[:nonzero], s_svd[:nonzero], rtol=1e-12)
        # the squares of exact zeros come back as rounding-level eigenvalues
        assert np.all(s[nonzero:] <= np.sqrt(rows * np.finfo(float).eps) * s[0])
        squared = s_svd**2
        for j in range(nonzero):
            others = np.delete(squared, j)
            if np.min(np.abs(others - squared[j])) >= 1e-6 * squared[0]:
                np.testing.assert_allclose(np.abs(u[:, j]), np.abs(u_svd[:, j]), atol=1e-8)

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(4)
        dense = rng.random((500, 430))
        matrix = sp.csr_matrix(dense)
        u_dense, s_dense, _ = np.linalg.svd(dense, full_matrices=False)
        _, s_sparse = truncated_svd(matrix, k=3)
        np.testing.assert_allclose(s_sparse, s_dense[:3], rtol=1e-8)

    def test_sparse_path_is_reproducible(self):
        rng = np.random.default_rng(6)
        matrix = sp.csr_matrix(rng.poisson(0.02, size=(600, 900)).astype(float))
        u_first, s_first = truncated_svd(matrix, k=5)
        for _ in range(3):
            u_again, s_again = truncated_svd(matrix, k=5)
            assert np.array_equal(s_again, s_first)
            assert np.array_equal(np.abs(u_again), np.abs(u_first))


class TestLsaTopicalTweets:
    def test_repeated_block_dominates_first_vector(self):
        viral = "cdc quietly updated death statistics again today online"
        docs = [(f"x{i}", toks(viral)) for i in range(10)]
        docs += [(f"u{i}", toks(text)) for i, text in enumerate(UNRELATED)]
        extraction = lsa_topical_tweets(docs, k=5)
        assert extraction.per_vector[0] == frozenset(f"x{i}" for i in range(10))
        assert {f"x{i}" for i in range(10)} <= set(extraction.topical_ids)

    def test_single_tweet_selected(self):
        extraction = lsa_topical_tweets([("only", toks("alpha beta gamma delta"))])
        assert extraction.topical_ids == {"only"}

    def test_two_orthogonal_blocks(self):
        block_a = "red orange yellow green blue indigo violet"
        block_b = "monday tuesday wednesday thursday friday saturday sunday"
        docs = [(f"a{i}", toks(block_a)) for i in range(6)]
        docs += [(f"b{i}", toks(block_b)) for i in range(4)]
        extraction = lsa_topical_tweets(docs, k=2)
        first_two = [set(v) for v in extraction.per_vector[:2]]
        assert {frozenset(f"a{i}" for i in range(6)), frozenset(f"b{i}" for i in range(4))} == {
            frozenset(group) for group in first_two
        }

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True),
        data=st.data(),
    )
    def test_orthogonal_blocks_in_any_row_order(self, sizes, data):
        # every text has three trigrams and shares none with another block, so
        # block sizes set the singular values and each vector is one block
        texts = [
            "alpha bravo charlie delta echo",
            "foxtrot golf hotel india juliet",
            "kilo lima mike november oscar",
        ]
        blocks = [
            [(f"b{b}-{i}", toks(texts[b])) for i in range(size)] for b, size in enumerate(sizes)
        ]
        docs = data.draw(st.permutations([doc for block in blocks for doc in block]))
        extraction = lsa_topical_tweets(docs, k=len(sizes))
        expected = sorted(
            (frozenset(tweet_id for tweet_id, _ in block) for block in blocks), key=len, reverse=True
        )
        assert extraction.per_vector == tuple(expected)

    def test_all_empty_documents(self):
        extraction = lsa_topical_tweets([("e1", toks("a b")), ("e2", toks(""))])
        assert extraction.topical_ids == frozenset()
        assert extraction.singular_values == ()

    def test_order_invariance(self):
        # distinct text lengths keep the singular values simple; with exact
        # ties the degenerate subspace has no canonical basis to select from
        viral = "identical viral text repeated for everyone here now"
        docs = [(f"x{i}", toks(viral)) for i in range(5)]
        docs += [
            (f"u{i}", toks(" ".join(text.split()[: 4 + i])))
            for i, text in enumerate(UNRELATED[:5])
        ]
        forward = lsa_topical_tweets(docs, k=3)
        backward = lsa_topical_tweets(list(reversed(docs)), k=3)
        assert forward.topical_ids == backward.topical_ids

    def test_matrix_columns_in_lexicographic_trigram_order(self, monkeypatch):
        texts = ["zeta alpha beta gamma", "", "beta gamma zeta alpha beta gamma", "mu nu xi"]
        docs = [(f"t{i}", toks(text)) for i, text in enumerate(texts)]
        captured = []

        def capture(matrix, k):
            captured.append(matrix.copy())
            return truncated_svd(matrix, k)

        monkeypatch.setattr(lsa, "truncated_svd", capture)
        lsa_topical_tweets(docs, k=2)
        # rows: tweets with a trigram, in order; columns: sorted (token, token, token)
        rows = [oracles.indexed_trigram_counts(doc.tokens) for _, doc in docs if len(doc.tokens) > 2]
        vocabulary = sorted({trigram for row in rows for trigram in row})
        expected = np.array(
            [[row.get(trigram, 0) for trigram in vocabulary] for row in rows], dtype=float
        )
        (matrix,) = captured
        assert matrix.has_sorted_indices
        assert np.array_equal(matrix.toarray(), expected)

    def test_no_gap_selects_nothing(self):
        # ten identical tweets and nothing else: a flat plateau has no drop
        docs = [(f"x{i}", toks("flat plateau of identical documents")) for i in range(10)]
        extraction = lsa_topical_tweets(docs, k=1)
        assert extraction.per_vector[0] == frozenset()


class TestTrigramJaccard:
    def test_identical_is_one(self):
        doc = toks("the quick brown fox jumps over dogs")
        assert trigram_jaccard(doc, doc) == 1.0

    def test_disjoint_is_zero(self):
        assert trigram_jaccard(toks("a b c d"), toks("e f g h")) == 0.0

    def test_empty_pair_is_zero(self):
        assert trigram_jaccard(toks(""), toks("")) == 0.0


def _burst_fixture():
    """Series with a day-8 spike plus the per-community tweets behind it."""
    viral = "cdc quietly updated covid death statistics nationwide overnight"
    base_a = "covid cases steady across the west region today"
    base_b = "covid tests available at the clinic this week"
    tweets_a = {"a1": [("a1-base", toks(base_a))] , "a2": [("a2-base", toks(base_a))]}
    tweets_b = {"b1": [("b1-base", toks(base_b))], "b2": [("b2-base", toks(base_b))]}
    for community in tweets_a:
        tweets_a[community].append((f"{community}-viral", toks(viral)))
    for community in tweets_b:
        tweets_b[community].append((f"{community}-viral", toks(viral)))
    by_community = [(c, tweets[c]) for tweets in (tweets_a, tweets_b) for c in sorted(tweets)]
    docs = docs_from_tweets(
        [(c, DAY, [tid for tid, _ in pairs]) for c, pairs in by_community],
        (doc for _, pairs in by_community for _, doc in pairs),
    )
    spike = intercluster_similarity(docs[: len(tweets_a)], docs[len(tweets_a) :])
    history = [0.010, 0.013, 0.009, 0.012, 0.011, 0.014, 0.010, 0.012]
    days = tuple(DAY - timedelta(days=len(history) - i) for i in range(len(history)))
    series = SimilaritySeries(
        pair=("A", "B"), days=days + (DAY,), values=tuple(history) + (spike,)
    )
    extraction_a = lsa_topical_tweets([t for c in sorted(tweets_a) for t in tweets_a[c]], k=5)
    extraction_b = lsa_topical_tweets([t for c in sorted(tweets_b) for t in tweets_b[c]], k=5)
    return series, tweets_a, tweets_b, extraction_a, extraction_b


def _invalidated_fixture():
    """One shared tweet per side: removing it leaves the day with no valid pair."""
    viral = toks("one single shared viral message in both places")
    tweets_a = {"a1": [("va", viral)]}
    tweets_b = {"b1": [("vb", viral)]}
    days = tuple(DAY - timedelta(days=8 - i) for i in range(8))
    series = SimilaritySeries(
        pair=("A", "B"),
        days=days + (DAY,),
        values=(0.01, 0.02, 0.01, 0.03, 0.02, 0.01, 0.02, 0.01, 1.0),
    )
    ex_a = lsa_topical_tweets(tweets_a["a1"], k=5)
    ex_b = lsa_topical_tweets(tweets_b["b1"], k=5)
    return series, tweets_a, tweets_b, ex_a, ex_b


class TestConfirmDrivers:
    def test_shared_viral_tweet_confirmed(self):
        series, tweets_a, tweets_b, ex_a, ex_b = _burst_fixture()
        result = confirm_drivers(series, DAY, tweets_a, tweets_b, ex_a, ex_b)
        assert result.common_a and result.common_b
        assert result.is_driver
        assert result.recomputed_h is None or result.recomputed_h < 2.0
        assert result.recomputed_s is None or result.recomputed_s < series.values[-1]

    def test_disjoint_topical_sets_unchanged(self):
        series, tweets_a, tweets_b, ex_a, _ = _burst_fixture()
        empty = lsa_topical_tweets([], k=5)
        result = confirm_drivers(series, DAY, tweets_a, tweets_b, ex_a, empty)
        assert not result.is_driver
        assert result.recomputed_s == series.values[-1]
        assert result.common_a == frozenset()

    def test_removing_all_shared_trigrams_invalidates_day(self):
        series, tweets_a, tweets_b, ex_a, ex_b = _invalidated_fixture()
        result = confirm_drivers(series, DAY, tweets_a, tweets_b, ex_a, ex_b)
        # the only tweet is removed from both sides: the day has no valid pairs
        assert result.recomputed_s is None
        assert result.is_driver

    def test_recompute_never_increases_similarity(self):
        series, tweets_a, tweets_b, ex_a, ex_b = _burst_fixture()
        result = confirm_drivers(series, DAY, tweets_a, tweets_b, ex_a, ex_b)
        if result.recomputed_s is not None:
            assert result.recomputed_s <= series.values[-1] + 1e-12

    @pytest.mark.parametrize(
        "fixture, day_stays_valid",
        [(_burst_fixture, True), (_invalidated_fixture, False)],
        ids=["confirmed", "invalidated"],
    )
    def test_recomputed_score_is_the_burst_score_of_the_reduced_day(
        self, fixture, day_stays_valid
    ):
        series, tweets_a, tweets_b, ex_a, ex_b = fixture()
        result = confirm_drivers(series, DAY, tweets_a, tweets_b, ex_a, ex_b)
        assert result.common_a and result.common_b
        reduced = replace(series, values=series.values[:-1] + (result.recomputed_s,))
        expected = burst_score(reduced, DAY)
        assert result.recomputed_h == expected
        assert (expected is not None) == day_stays_valid
