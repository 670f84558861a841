from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import count_matrix, scipy_of
from sentinet.ingest import BOUNDARY, TrigramEncoder, normalize_text
from sentinet.lsa import (
    TopicalExtraction,
    _Uniform,
    confirm_drivers,
    lsa_topical_tweets,
    truncated_svd,
)
from sentinet.similarity import DayDocs, SimilaritySeries, burst_score, similarity_series

DAY = date(2020, 7, 25)


def toks(text):
    return normalize_text(text)


def stage(*sides, order=None):
    """The count matrix of every tweet of ``sides``, as the lsa stage builds it.

    Each side maps a community to its (tweet id, tokens) pairs. The tweets
    take the matrix's rows in ``order`` (default: as listed). Returns the
    matrix, its row ids, each trigram's column and, per side, each
    community's rows.
    """
    tweets = [tweet for side in sides for c in side for tweet in side[c]]
    order = list(range(len(tweets))) if order is None else list(order)
    encoder = TrigramEncoder()
    counts, codes = encoder.count(tweets[i][1] for i in order)
    ids = [tweets[i][0] for i in order]
    column_of = {trigram: j for j, trigram in enumerate(encoder.decode(codes))}
    row_of = {tweet_id: row for row, tweet_id in enumerate(ids)}
    rows = [{c: [row_of[t] for t, _ in side[c]] for c in side} for side in sides]
    return counts, ids, column_of, *rows


def extract(docs, k=5):
    """lsa_topical_tweets over (tweet id, tokens) pairs, every row in order."""
    counts, ids, _, _ = stage({"c": docs})
    return lsa_topical_tweets(counts, ids, range(len(ids)), k)


def confirm(series, tweets_a, tweets_b, extraction_a, extraction_b, **kwargs):
    """confirm_drivers on DAY, with both sides counted as one matrix."""
    counts, ids, _, rows_a, rows_b = stage(tweets_a, tweets_b)
    return confirm_drivers(
        series, DAY, counts, ids, rows_a, rows_b, extraction_a, extraction_b, **kwargs
    )


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


def assert_matches_dense_svd(rows, cols, rank, k):
    """truncated_svd of integer counts against numpy's dense SVD.

    The rank-deficient matrix repeats ``rank`` distinct rows.
    """
    rng = np.random.default_rng(rows * cols)
    counts = rng.poisson(0.4, size=(rank or rows, cols))
    if rank is not None:
        counts = counts[np.concatenate([np.arange(rank), rng.integers(0, rank, rows - rank)])]
    assert_svd_of(counts.astype(float), k, nonzero=min(k, rank or k))


def assert_svd_of(dense, k, nonzero):
    """truncated_svd of ``dense``, of rank ``nonzero`` within k, against numpy's dense SVD."""
    rows = dense.shape[0]
    u, s = truncated_svd(count_matrix(dense), k)
    u_svd, s_svd, _ = np.linalg.svd(dense, full_matrices=False)
    np.testing.assert_allclose(s[:nonzero], s_svd[:nonzero], rtol=1e-12)
    # exact zeros come back as rounding-level values
    assert np.all(s[nonzero:] <= np.sqrt(rows * np.finfo(float).eps) * s[0])
    np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
    squared = s_svd**2
    for j in range(nonzero):
        others = np.delete(squared, j)
        if np.min(np.abs(others - squared[j])) >= 1e-6 * squared[0]:
            np.testing.assert_allclose(np.abs(u[:, j]), np.abs(u_svd[:, j]), atol=1e-8)


BLOCK_SIZES = st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True)


def assert_each_vector_is_one_block(sizes, data):
    """Blocks of ``sizes`` copies in a drawn row order: vector j selects the j-th largest block.

    Every text has three trigrams and shares none with another block, so
    block sizes set the singular values and each vector is one block.
    """
    texts = [
        "alpha bravo charlie delta echo",
        "foxtrot golf hotel india juliet",
        "kilo lima mike november oscar",
    ]
    blocks = [[(f"b{b}-{i}", toks(texts[b])) for i in range(size)] for b, size in enumerate(sizes)]
    docs = data.draw(st.permutations([doc for block in blocks for doc in block]))
    extraction = extract(docs, k=len(sizes))
    expected = sorted(
        (frozenset(tweet_id for tweet_id, _ in block) for block in blocks), key=len, reverse=True
    )
    assert extraction.per_vector == tuple(expected)


SVD_SHAPES = pytest.mark.parametrize(
    "rows, cols, rank, k",
    [(40, 120, None, 5), (150, 40, None, 5), (12, 40, None, 12), (60, 90, 4, 7)],
    ids=["wide", "rows-above-cols", "k-equals-rows", "rank-deficient"],
)


class TestTruncatedSvd:
    @SVD_SHAPES
    def test_matches_dense_svd(self, rows, cols, rank, k):
        assert_matches_dense_svd(rows, cols, rank, k)

    def test_reconstruction_identity(self):
        # k is the smaller side: the basis spans it, and the values are exact
        dense = np.random.default_rng(2).random((8, 12))
        _, s = truncated_svd(count_matrix(dense), k=8)
        assert np.sum(s**2) == pytest.approx(np.sum(dense**2), rel=1e-12)

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(3)
        u, s = truncated_svd(count_matrix(rng.random((10, 6))), k=4)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12)

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(4)
        dense = rng.random((500, 430))
        u_dense, s_dense, _ = np.linalg.svd(dense, full_matrices=False)
        _, s_sparse = truncated_svd(count_matrix(dense), k=3)
        np.testing.assert_allclose(s_sparse, s_dense[:3], rtol=1e-8)

    def test_sparse_path_is_reproducible(self):
        rng = np.random.default_rng(6)
        matrix = count_matrix(rng.poisson(0.02, size=(600, 900)).astype(float))
        u_first, s_first = truncated_svd(matrix, k=5)
        for _ in range(3):
            u_again, s_again = truncated_svd(matrix, k=5)
            assert np.array_equal(s_again, s_first)
            assert np.array_equal(np.abs(u_again), np.abs(u_first))

    def test_exact_tie(self):
        # two disjoint all-ones 40 x 12 blocks, apart from sparse noise: the
        # value sqrt(480) twice, the second copy brought in only by rounding
        rng = np.random.default_rng(7)
        dense = rng.poisson(0.02, size=(600, 900)).astype(float)
        dense[:80], dense[:, :24] = 0.0, 0.0
        dense[:40, :12] = dense[40:80, 12:24] = 1.0
        u, s = truncated_svd(count_matrix(dense), k=5)
        u_svd, s_svd, _ = np.linalg.svd(dense, full_matrices=False)
        np.testing.assert_allclose(s, s_svd[:5], rtol=1e-12)
        assert s[0] == pytest.approx(np.sqrt(480), rel=1e-14) and s[1] == pytest.approx(s[0])
        # the tied pair spans the dense SVD's pair; the rest match one by one
        overlap = np.linalg.svd(u_svd[:, :2].T @ u[:, :2], compute_uv=False)
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(u[:, 2:]), np.abs(u_svd[:, 2:5]), atol=1e-8)

    def test_fewer_distinct_columns_than_k(self):
        # three distinct columns, each repeated: three values, the rest 0 up
        # to rounding and their vectors orthonormal completions
        dense = np.zeros((30, 9))
        dense[:10, :3] = 1.0
        dense[10:25, 3:6] = 2.0
        dense[25:, 6:] = 1.0
        u, s = truncated_svd(count_matrix(dense), k=5)
        s_svd = np.linalg.svd(dense, compute_uv=False)
        np.testing.assert_allclose(s, s_svd[:5], rtol=1e-12, atol=1e-12)
        assert np.all(s[3:] <= np.sqrt(30 * np.finfo(float).eps) * s[0])
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(
            u[:, :3].T @ dense @ dense.T @ u[:, :3], np.diag(s[:3] ** 2), atol=1e-10
        )

    def test_repeated_columns(self):
        # 12 distinct integer columns, each repeated 1 to 4 times, shuffled,
        # as tweets that repeat a text give
        rng = np.random.default_rng(8)
        distinct = rng.poisson(0.5, size=(300, 12)).astype(float)
        dense = np.repeat(distinct, rng.integers(1, 5, size=12), axis=1)
        assert_svd_of(dense[:, rng.permutation(dense.shape[1])], k=5, nonzero=5)


class TestUniformStream:
    def test_first_draws(self):
        # splitmix64's first output from state 0 is 0xe220a8397b1dcdaf, whose
        # top 53 bits give the first draw
        first = _Uniform()(8)
        assert first[0] == (0xE220A8397B1DCDAF >> 11) * 2.0**-52 - 1.0
        assert [float(x).hex() for x in first] == [
            "0x1.8882a0e5ec772p-1",
            "-0x1.18761955e46a0p-3",
            "-0x1.e4ee8b9dffdb0p-1",
            "0x1.e22ee2a1c9320p-1",
            "-0x1.9319da56b95e4p-1",
            "-0x1.61a3079c5c0b0p-2",
            "-0x1.4df5950782eb4p-1",
            "0x1.16104ceb245aap-1",
        ]

    def test_draws_lie_in_half_open_interval(self):
        draws = _Uniform()(100_000)
        assert draws.min() >= -1.0 and draws.max() < 1.0
        assert abs(draws.mean()) < 0.01 and len(np.unique(draws)) == draws.size

    def test_second_call_continues_the_stream(self):
        uniform = _Uniform()
        first, second = uniform(5), uniform(3)
        assert np.array_equal(np.concatenate([first, second]), _Uniform()(8))
        assert not np.array_equal(second, first[:3])

    def test_svd_needs_no_numpy_random(self, monkeypatch):
        # the start vector and the breakdown vectors both come from the
        # stream: three distinct columns and k = 5 take the breakdown path
        def forbidden(*args, **kwargs):
            raise AssertionError("truncated_svd called numpy.random")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        dense = np.zeros((30, 9))
        dense[:10, :3] = dense[25:, 6:] = 1.0
        dense[10:25, 3:6] = 2.0
        u, s = truncated_svd(count_matrix(dense), k=5)
        assert u.shape == (30, 5)
        np.testing.assert_allclose(s[:3], np.linalg.svd(dense, compute_uv=False)[:3], rtol=1e-12)


class TestLsaTopicalTweets:
    def test_repeated_block_dominates_first_vector(self):
        viral = "cdc quietly updated death statistics again today online"
        docs = [(f"x{i}", toks(viral)) for i in range(10)]
        docs += [(f"u{i}", toks(text)) for i, text in enumerate(UNRELATED)]
        extraction = extract(docs, k=5)
        assert extraction.per_vector[0] == frozenset(f"x{i}" for i in range(10))
        assert {f"x{i}" for i in range(10)} <= set(extraction.topical_ids)

    def test_single_tweet_selected(self):
        extraction = extract([("only", toks("alpha beta gamma delta"))])
        assert extraction.topical_ids == {"only"}

    def test_two_orthogonal_blocks(self):
        block_a = "red orange yellow green blue indigo violet"
        block_b = "monday tuesday wednesday thursday friday saturday sunday"
        docs = [(f"a{i}", toks(block_a)) for i in range(6)]
        docs += [(f"b{i}", toks(block_b)) for i in range(4)]
        extraction = extract(docs, k=2)
        first_two = [set(v) for v in extraction.per_vector[:2]]
        assert {frozenset(f"a{i}" for i in range(6)), frozenset(f"b{i}" for i in range(4))} == {
            frozenset(group) for group in first_two
        }

    @settings(max_examples=60, deadline=None)
    @given(sizes=BLOCK_SIZES, data=st.data())
    def test_orthogonal_blocks_in_any_row_order(self, sizes, data):
        assert_each_vector_is_one_block(sizes, data)

    def test_lanczos_path_selects_verbatim_blocks_as_the_gram_path(self):
        # blocks of 2, 1 and 3 copies of three-trigram texts (s = 3, 2.45,
        # 1.73), in row order, each selected whole by its own vector, as by
        # the exact eigenvectors of the Gram matrix: the first Lanczos vector
        # reads 1.0e-15 on the 2 rows where it is exactly 0, above a floor
        # of first * n * eps (7.7e-16), which would select 5 tweets, not 3
        texts = [
            "alpha bravo charlie delta echo",
            "foxtrot golf hotel india juliet",
            "kilo lima mike november oscar",
        ]
        blocks = [[f"b{b}-{i}" for i in range(size)] for b, size in enumerate((2, 1, 3))]
        tweets = [(tweet_id, toks(texts[b])) for b, block in enumerate(blocks) for tweet_id in block]
        extraction = extract(tweets, k=3)
        assert extraction.per_vector == tuple(
            frozenset(block) for block in sorted(blocks, key=len, reverse=True)
        )

    def test_all_empty_documents(self):
        extraction = extract([("e1", toks("a b")), ("e2", toks(""))])
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
        forward = extract(docs, k=3)
        backward = extract(list(reversed(docs)), k=3)
        assert forward.topical_ids == backward.topical_ids

    def test_column_order_leaves_selection_unchanged(self):
        # the Lanczos run's summation order follows the column order, so the
        # singular values may move in the last bits (4.898979485566356
        # against ...358 here), but no selection does
        docs = [(f"x{i}", toks("cdc quietly updated death statistics again")) for i in range(6)]
        docs += [(f"u{i}", toks(text)) for i, text in enumerate(UNRELATED)]
        counts, ids, _, _ = stage({"c": docs})
        order = np.random.default_rng(5).permutation(counts.shape[1])
        permuted = count_matrix(scipy_of(counts)[:, order])
        forward = lsa_topical_tweets(counts, ids, range(len(ids)), k=5)
        moved = lsa_topical_tweets(permuted, ids, range(len(ids)), k=5)
        assert moved.per_vector == forward.per_vector
        assert moved.topical_ids == forward.topical_ids
        np.testing.assert_allclose(moved.singular_values, forward.singular_values, rtol=1e-14)
        assert forward.per_vector[0] == frozenset(f"x{i}" for i in range(6))

    def test_null_space_vectors_select_nothing(self):
        # three distinct texts and k = 5: the last two vectors span part of
        # the null space, their singular values rounding-level zeros
        texts = UNRELATED[:3]
        docs = [
            (f"t{g}-{i}", toks(text)) for g, (text, n) in enumerate(zip(texts, (6, 3, 1)))
            for i in range(n)
        ]
        extraction = extract(docs, k=5)
        s = extraction.singular_values
        assert len(s) == 5 and s[3] <= np.sqrt(10 * np.finfo(float).eps) * s[0]
        assert extraction.per_vector[:3] == tuple(
            frozenset(f"t{g}-{i}" for i in range(n)) for g, n in enumerate((6, 3, 1))
        )
        assert extraction.per_vector[3:] == (frozenset(), frozenset())

    def test_no_gap_selects_nothing(self):
        # ten identical tweets and nothing else: a flat plateau has no drop
        docs = [(f"x{i}", toks("flat plateau of identical documents")) for i in range(10)]
        extraction = extract(docs, k=1)
        assert extraction.per_vector[0] == frozenset()


def _matched(text_a, text_b, match_threshold):
    """Whether confirm_drivers pairs two topical tweets, one per side."""
    series = SimilaritySeries(pair=("A", "B"), days=(DAY,), values=(0.5,))
    result = confirm(
        series,
        {"a1": [("a", toks(text_a))]},
        {"b1": [("b", toks(text_b))]},
        TopicalExtraction((), (), frozenset({"a"})),
        TopicalExtraction((), (), frozenset({"b"})),
        match_threshold=match_threshold,
    )
    assert bool(result.common_a) == bool(result.common_b)
    return bool(result.common_a)


class TestTrigramJaccard:
    def test_identical_is_one(self):
        text = "the quick brown fox jumps over dogs"
        assert _matched(text, text, 1.0)

    def test_disjoint_is_zero(self):
        assert not _matched("a b c d", "e f g h", 1e-9)

    def test_empty_pair_is_zero(self):
        assert not _matched("", "", 1e-9)

    def test_threshold_is_inclusive(self):
        # trigram sets {abc, bcd} and {abc, bce}: one shared of three
        assert _matched("a b c d", "a b c e", 1 / 3)
        assert not _matched("a b c d", "a b c e", 0.34)


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
    matrix, _ = TrigramEncoder().count(
        [token for _, tokens in pairs for token in (BOUNDARY, *tokens)]
        for _, pairs in by_community
    )
    docs = {DAY: DayDocs.from_rows((c for c, _ in by_community), matrix)}
    (spike,) = similarity_series(docs, sorted(tweets_a), sorted(tweets_b), [DAY], ("A", "B")).values
    history = [0.010, 0.013, 0.009, 0.012, 0.011, 0.014, 0.010, 0.012]
    days = tuple(DAY - timedelta(days=len(history) - i) for i in range(len(history)))
    series = SimilaritySeries(
        pair=("A", "B"), days=days + (DAY,), values=tuple(history) + (spike,)
    )
    extraction_a = extract([t for c in sorted(tweets_a) for t in tweets_a[c]], k=5)
    extraction_b = extract([t for c in sorted(tweets_b) for t in tweets_b[c]], k=5)
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
    ex_a = extract(tweets_a["a1"], k=5)
    ex_b = extract(tweets_b["b1"], k=5)
    return series, tweets_a, tweets_b, ex_a, ex_b


class TestConfirmDrivers:
    def test_shared_viral_tweet_confirmed(self):
        series, tweets_a, tweets_b, ex_a, ex_b = _burst_fixture()
        result = confirm(series, tweets_a, tweets_b, ex_a, ex_b)
        assert result.common_a and result.common_b
        assert result.is_driver
        assert result.recomputed_h is None or result.recomputed_h < 2.0
        assert result.recomputed_s is None or result.recomputed_s < series.values[-1]

    def test_disjoint_topical_sets_unchanged(self):
        series, tweets_a, tweets_b, ex_a, _ = _burst_fixture()
        empty = extract([], k=5)
        result = confirm(series, tweets_a, tweets_b, ex_a, empty)
        assert not result.is_driver
        assert result.recomputed_s == series.values[-1]
        assert result.common_a == frozenset()

    def test_removing_all_shared_trigrams_invalidates_day(self):
        series, tweets_a, tweets_b, ex_a, ex_b = _invalidated_fixture()
        result = confirm(series, tweets_a, tweets_b, ex_a, ex_b)
        # the only tweet is removed from both sides: the day has no valid pairs
        assert result.recomputed_s is None
        assert result.is_driver

    def test_recompute_never_increases_similarity(self):
        series, tweets_a, tweets_b, ex_a, ex_b = _burst_fixture()
        result = confirm(series, tweets_a, tweets_b, ex_a, ex_b)
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
        result = confirm(series, tweets_a, tweets_b, ex_a, ex_b)
        assert result.common_a and result.common_b
        reduced = series._replace(values=series.values[:-1] + (result.recomputed_s,))
        expected = burst_score(reduced, DAY)
        assert result.recomputed_h == expected
        assert (expected is not None) == day_stays_valid


WORDS = ["covid", "cases", "rise", "mask", "cdc", "data"]
# a tweet's tokens: a few words, so some have no trigram
TOKENS = st.lists(st.sampled_from(WORDS), max_size=6).map(tuple)


@st.composite
def tweet_sides(draw):
    """Two sides of communities whose tweets copy, edit or ignore a few bases."""
    bases = draw(
        st.lists(st.lists(st.sampled_from(WORDS), min_size=3, max_size=6), min_size=1, max_size=3)
    )

    def tweet_tokens():
        # mostly copies of a base, so that matches are common
        tokens = list(draw(st.sampled_from(bases) if draw(st.integers(0, 3)) else TOKENS))
        if tokens and draw(st.booleans()):
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(WORDS))
        return tuple(tokens)

    sides = []
    for side in "ab":
        sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
        sides.append(
            {
                f"{side}{c}": [(f"{side}{c}-{i}", tweet_tokens()) for i in range(size)]
                for c, size in enumerate(sizes)
            }
        )
    return sides


@st.composite
def driver_events(draw):
    """Two sides of tweets, arbitrary topical sets, and a series whose last
    day is the event day."""
    sides = draw(tweet_sides())
    extractions = [
        TopicalExtraction(
            (),
            (),
            frozenset(
                tid for tweets in side.values() for tid, _ in tweets if draw(st.integers(0, 2))
            ),
        )
        for side in sides
    ]
    history = draw(st.lists(st.floats(0, 1), min_size=7, max_size=9))
    days = tuple(DAY - timedelta(days=len(history) - i) for i in range(len(history) + 1))
    value = draw(st.none() | st.floats(0, 1))
    series = SimilaritySeries(pair=("A", "B"), days=days, values=tuple(history) + (value,))
    return series, *sides, *extractions


class TestConfirmDriversEqualsPairwiseReference:
    @settings(max_examples=300, deadline=None)
    @given(
        event=driver_events(),
        match_threshold=st.sampled_from([1e-9, 0.2, 1 / 3, 0.5, 2 / 3, 1.0])
        | st.floats(0.01, 1.0),
    )
    def test_same_common_sets_and_scores(self, event, match_threshold):
        series, *tweets_and_extractions = event
        result = confirm(series, *tweets_and_extractions, match_threshold=match_threshold)
        common_a, common_b, new_s, new_h, is_driver = oracles.confirm_drivers(
            series, DAY, *tweets_and_extractions, match_threshold=match_threshold
        )
        assert result.common_a == common_a and result.common_b == common_b
        assert result.recomputed_s == new_s and result.recomputed_h == new_h
        assert result.is_driver == is_driver


def _random_side(n_tweets, n_words, seed):
    """One community of tweets of 3 to 10 words drawn from ``n_words`` words,
    the first 40 copies of two texts."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    texts = [tuple(rng.choice(words, size=rng.integers(3, 11))) for _ in range(n_tweets - 38)]
    texts[:2] = [texts[0]] * 28 + [texts[1]] * 12
    return {"c0": [(f"s{seed}-{i}", tokens) for i, tokens in enumerate(texts)]}


class TestLsaEqualsPerSideReference:
    """The stage matrix's rows give each side what its own matrix gave."""

    @staticmethod
    def check(sides, order, k=5):
        counts, ids, column_of, *rows = stage(*sides, order=order)
        for side, side_rows in zip(sides, rows):
            ours = lsa_topical_tweets(
                counts, ids, [row for c in sorted(side) for row in side_rows[c]], k
            )
            reference = oracles.lsa_topical_tweets(
                [tweet for c in sorted(side) for tweet in side[c]], column_of, k
            )
            assert ours.topical_ids == reference.topical_ids
            assert ours.per_vector == reference.per_vector
            assert ours.singular_values == reference.singular_values

    @settings(max_examples=200, deadline=None)
    @given(sides=tweet_sides(), data=st.data())
    def test_same_selection_in_any_row_order(self, sides, data):
        n_tweets = sum(len(tweets) for side in sides for tweets in side.values())
        self.check(sides, data.draw(st.permutations(range(n_tweets))))

    @pytest.mark.parametrize(
        "n_words, columns_below_rows",
        [(7, True), (12, False)],
        ids=["columns-below-rows", "columns-above-rows"],
    )
    def test_tall_shapes(self, n_words, columns_below_rows):
        # 450 tweets a side; 7 words have at most 343 trigrams, 12 words
        # more than 450
        sides = [_random_side(450, n_words, seed) for seed in (1, 2)]
        order = np.random.default_rng(3).permutation(900)
        counts, _, _, rows_a, _ = stage(*sides, order=order)
        side = counts.take(rows_a["c0"]).compact()
        assert (side.shape[1] < side.shape[0]) == columns_below_rows
        self.check(sides, order)
