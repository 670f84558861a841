from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import grouped_corpus, make_record
from sentinet import domains as domains_mod
from sentinet.domains import (
    DomainMatrix,
    LinkedDomainScore,
    centroids,
    cluster_members,
    cluster_scores,
    domain_frequency_matrix,
    first_principal_component,
    read_matrix_csv,
    read_scores_csv,
    write_matrix_csv,
    write_scores_csv,
)
from sentinet.errors import (
    DegenerateClusteringError,
    ParameterError,
    UrlParseError,
    ZeroVarianceError,
)
from sentinet.ingest import host_domain


def matrix_from(values, communities=None, domains=None):
    array = np.asarray(values, dtype=float)
    communities = communities or tuple(f"c{i}" for i in range(array.shape[0]))
    domains = domains or tuple(f"d{j}.com" for j in range(array.shape[1]))
    return DomainMatrix(
        communities=tuple(communities),
        domains=tuple(domains),
        values=array,
        retained_totals=tuple([100] * array.shape[0]),
        unparseable_urls=0,
    )


class TestDomainFrequencyMatrix:
    def test_single_community_single_domain(self, record_factory):
        records = {
            "A": [
                record_factory(str(i), "u", urls=("https://a.com/x",))
                for i in range(20)
            ]
        }
        matrix = domain_frequency_matrix(*grouped_corpus(records), min_count=10)
        assert matrix.domains == ("a.com",)
        assert matrix.values[0, 0] == 1.0

    def test_hand_counted_two_communities(self, record_factory):
        def bundle(community, urls):
            return [record_factory(f"{community}-{i}", "u", urls=(u,)) for i, u in enumerate(urls)]

        records = {
            "A": bundle("A", ["https://x.com/a"] * 12 + ["https://y.com/b"] * 8),
            "B": bundle("B", ["https://y.com/c"] * 11 + ["https://z.com/d"] * 5),
        }
        matrix = domain_frequency_matrix(*grouped_corpus(records), min_count=10)
        assert matrix.domains == ("x.com", "y.com")
        assert matrix.retained_totals == (20, 16)
        np.testing.assert_allclose(matrix.values[0], [0.6, 0.4])
        np.testing.assert_allclose(matrix.values[1], [0.0, 0.6875])

    def test_exclusions_and_unparseable(self, record_factory):
        records = {
            "A": [
                record_factory(
                    "1",
                    "u",
                    urls=(
                        "https://twitter.com/s/1",
                        "http://bit.ly/x",
                        ":::not a url",
                    )
                    + tuple(f"https://keep.com/{i}" for i in range(11)),
                )
            ]
        }
        matrix = domain_frequency_matrix(
            *grouped_corpus(records), shorteners=frozenset({"bit.ly"}), min_count=10
        )
        assert matrix.domains == ("keep.com",)
        assert matrix.retained_totals == (11,)
        assert matrix.unparseable_urls == 1

    def test_zero_link_community_flagged(self, record_factory):
        records = {
            "A": [record_factory("1", "u", urls=tuple(f"https://a.com/{i}" for i in range(11)))],
            "B": [record_factory("2", "v", urls=())],
        }
        matrix = domain_frequency_matrix(*grouped_corpus(records), min_count=10)
        assert matrix.zero_link_communities == ("B",)
        assert np.all(matrix.values[list(matrix.communities).index("B")] == 0)

    def test_each_host_decided_once(self, record_factory, monkeypatch):
        decided = []

        def recording(host, shorteners=frozenset()):
            decided.append(host)
            return host_domain(host, shorteners)

        monkeypatch.setattr(domains_mod, "host_domain", recording)
        hosts = ("a.com", "WWW.a.com", "localhost", "bit.ly")
        urls = tuple(f"https://{host}/{i}" for i in range(15) for host in hosts)
        records = {
            "A": [record_factory("1", "u", urls=urls)],
            "B": [record_factory("2", "v", urls=urls[:20])],
        }
        matrix = domain_frequency_matrix(
            *grouped_corpus(records), shorteners=frozenset({"bit.ly"}), min_count=10
        )
        assert sorted(decided) == sorted(hosts)
        assert matrix.domains == ("a.com",) and matrix.retained_totals == (30, 10)
        # localhost names no registrable host
        assert matrix.unparseable_urls == 15 + 5

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    ["https://a.com/x", "http://WWW.A.com", "a.com.", "b.org/p", "https://b.org:8080?q",
                     "https://t.co/z", "https://twitter.com/s", "http://localhost/", "www.localhost",
                     ":::bad", "http://[::1]/", "https://c.net#f", "https://user@c.net/"]
                ),
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 3),
    )
    def test_equals_per_url_oracle_counts(self, url_lists, min_count):
        shorteners = frozenset({"t.co"})
        records = {
            f"c{i}": [make_record(f"{i}-{j}", "u", urls=(url,)) for j, url in enumerate(urls)]
            for i, urls in enumerate(url_lists)
        }
        matrix = domain_frequency_matrix(
            *grouped_corpus(records), shorteners=shorteners, min_count=min_count
        )
        counts, unparseable = [], 0
        for urls in url_lists:
            counter = Counter()
            for url in urls:
                try:
                    domain = oracles.extract_domain(url, shorteners)
                except UrlParseError:
                    unparseable += 1
                    continue
                if domain is not None:
                    counter[domain] += 1
            counts.append(counter)
        qualifying = sorted({d for counter in counts for d, n in counter.items() if n > min_count})
        assert matrix.domains == tuple(qualifying)
        assert matrix.unparseable_urls == unparseable
        assert matrix.retained_totals == tuple(sum(counter.values()) for counter in counts)
        for i, counter in enumerate(counts):
            total = sum(counter.values())
            expected = [counter[d] / total if total else 0.0 for d in qualifying]
            assert matrix.values[i].tolist() == expected

    def test_host_utf8_cannot_encode_is_unparseable(self, tmp_path, record_factory):
        # a lone surrogate in a qualifying host would make it a column that
        # no CSV header can hold
        urls = ("http://exa\ud800mple.com/x",) * 12 + tuple(f"https://a.com/{i}" for i in range(11))
        records = {"A": [record_factory("1", "u", urls=urls)]}
        matrix = domain_frequency_matrix(*grouped_corpus(records), min_count=10)
        assert matrix.domains == ("a.com",)
        assert matrix.retained_totals == (11,)
        assert matrix.unparseable_urls == 12
        write_matrix_csv(matrix, tmp_path / "matrix.csv")
        assert read_matrix_csv(tmp_path / "matrix.csv").domains == ("a.com",)

    def test_csv_roundtrip(self, tmp_path, record_factory):
        records = {
            "A": [record_factory("1", "u", urls=tuple(f"https://a.com/{i}" for i in range(12)))],
        }
        matrix = domain_frequency_matrix(*grouped_corpus(records), min_count=10)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(matrix, path)
        loaded = read_matrix_csv(path)
        assert loaded.domains == matrix.domains
        np.testing.assert_allclose(loaded.values, matrix.values)


class TestFirstPrincipalComponent:
    def test_symmetric_2x2(self):
        score = first_principal_component(matrix_from([[1, 0], [0, 1]]))
        values = sorted(score.scores.values())
        assert values[0] == pytest.approx(-np.sqrt(2) / 2)
        assert values[1] == pytest.approx(np.sqrt(2) / 2)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(5)
        values = rng.random((6, 10))
        score = first_principal_component(matrix_from(values))
        mine = np.array([score.scores[f"c{i}"] for i in range(6)])
        reference = oracles.pca_scores_eigh(values)
        agreement = min(
            np.abs(mine - reference).max(), np.abs(mine + reference).max()
        )
        assert agreement < 1e-8

    def test_zero_variance_raises(self):
        with pytest.raises(ZeroVarianceError):
            first_principal_component(matrix_from([[0.5, 0.5], [0.5, 0.5]]))

    def test_unit_norm_and_centered_scores(self):
        rng = np.random.default_rng(9)
        score = first_principal_component(matrix_from(rng.random((5, 7))))
        assert np.linalg.norm(score.loadings) == pytest.approx(1.0)
        assert sum(score.scores.values()) == pytest.approx(0.0, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.random((5, 6))
        base = first_principal_component(matrix_from(values))
        shifted = first_principal_component(matrix_from(values + 0.25))
        for community in base.scores:
            assert base.scores[community] == pytest.approx(
                shifted.scores[community], abs=1e-9
            )

    def test_scaling_scales_scores(self):
        rng = np.random.default_rng(4)
        values = rng.random((5, 6))
        base = first_principal_component(matrix_from(values))
        doubled = first_principal_component(matrix_from(values * 2.0))
        for community in base.scores:
            assert doubled.scores[community] == pytest.approx(
                2 * base.scores[community], abs=1e-9
            )

    def test_anchor_domain_orients_sign(self):
        rng = np.random.default_rng(6)
        values = rng.random((5, 4))
        base = first_principal_component(matrix_from(values))
        anchor = base.domains[int(np.argmax(np.abs(base.loadings)))]
        flipped = first_principal_component(matrix_from(values), anchor_domain=anchor)
        np.testing.assert_allclose(flipped.loadings, base.loadings)

    def test_too_small_raises(self):
        with pytest.raises(ParameterError):
            first_principal_component(matrix_from([[1.0, 0.0]]))


class TestClusterScores:
    def test_three_obvious_groups(self):
        scores = {"a": -10.0, "b": -9.0, "c": 0.0, "d": 1.0, "e": 9.0, "f": 10.0}
        result = cluster_scores(scores, k=3)
        assert result == {"a": 0, "b": 0, "c": 1, "d": 1, "e": 2, "f": 2}
        oracle = oracles.best_contiguous_three_split(list(scores.values()))
        assert oracle == [[-10.0, -9.0], [0.0, 1.0], [9.0, 10.0]]

    def test_single_cluster(self):
        result = cluster_scores({"a": 1.0, "b": 1.0, "c": 1.0}, k=1)
        assert set(result.values()) == {0}

    def test_singletons(self):
        result = cluster_scores({"a": 1.0, "b": 2.0, "c": 3.0}, k=3)
        assert sorted(result.values()) == [0, 1, 2]
        assert result["a"] == 0 and result["c"] == 2

    def test_scores_csv_roundtrip(self, tmp_path):
        scores = {"a": -10.0, "b": -9.0, "c": 0.0, "d": 1.0, "e": 9.0, "f": 10.0}
        clusters = cluster_scores(scores, k=3)
        path = tmp_path / "scores.csv"
        linked = LinkedDomainScore(domains=(), loadings=np.zeros(0), scores=scores)
        write_scores_csv(linked, clusters, path)
        assert read_scores_csv(path) == (scores, clusters)
        # so a resumed run recomputes the centroids of a fresh one
        assert centroids(*read_scores_csv(path)) == centroids(scores, clusters)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateClusteringError):
            cluster_scores({"a": 1.0, "b": 1.0, "c": 2.0}, k=3)

    def test_too_few_communities(self):
        with pytest.raises(ParameterError):
            cluster_scores({"a": 1.0, "b": 2.0}, k=3)

    # two-decimal score grids keep merge distances well separated; adjacent
    # representable doubles could otherwise reorder merges through rounding
    @given(
        st.lists(
            st.integers(min_value=-10_000, max_value=10_000).map(lambda v: v / 100),
            min_size=5,
            max_size=12,
            unique=True,
        )
    )
    @settings(max_examples=60)
    def test_clusters_are_contiguous_intervals(self, values):
        scores = {f"c{i}": v for i, v in enumerate(values)}
        result = cluster_scores(scores, k=3)
        by_cluster = {}
        for label, cluster in result.items():
            by_cluster.setdefault(cluster, []).append(scores[label])
        spans = sorted(
            (min(group), max(group)) for group in by_cluster.values()
        )
        for (_, high), (low, _) in zip(spans, spans[1:]):
            assert high < low

    @pytest.mark.parametrize("method", ["centroid", "average"])
    @given(
        st.lists(
            st.integers(min_value=-5_000, max_value=5_000),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100)
    def test_equals_scipy_linkage_on_grids(self, method, cents, k):
        # a tie between two-decimal gaps is decided by rounding, so ties are
        # looked for among the decimals, not among their binary doubles
        exact = [Fraction(v, 100) for v in cents]
        self.check_against_linkage([v / 100 for v in cents], exact, k, method)

    @pytest.mark.parametrize("method", ["centroid", "average"])
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        st.floats(min_value=0.05, max_value=2.0),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100)
    def test_equals_scipy_linkage_on_gaussian_blobs(
        self, method, seed, sizes, spread, k
    ):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-5.0, 5.0, len(sizes))
        values = [
            float(v) for center, size in zip(centers, sizes)
            for v in rng.normal(center, spread, size)
        ]
        self.check_against_linkage(values, [Fraction(v) for v in values], k, method)

    @staticmethod
    def check_against_linkage(values, exact, k, method):
        assume(len(set(values)) >= k)
        assume(not oracles.adjacent_merge_has_tie(exact, k))
        scores = {f"c{i}": v for i, v in enumerate(values)}
        expected = oracles.linkage_cut(scores, k, method)
        assert cluster_scores(scores, k=k) == expected

    def test_equal_gaps_merge_leftmost_pair(self):
        scores = {"a": 0.0, "b": 2.0, "c": 4.0}
        result = cluster_scores(scores, k=2)
        assert result == {"a": 0, "b": 0, "c": 1}
        assert centroids(scores, result) == (1.0, 4.0)

    def test_scaling_preserves_assignment(self):
        scores = {"a": -4.0, "b": -3.5, "c": 0.5, "d": 1.0, "e": 6.0, "f": 7.0}
        base = cluster_scores(scores, k=3)
        scaled = cluster_scores({k: v * 3.0 for k, v in scores.items()}, k=3)
        assert base == scaled

    def test_members_helper(self):
        result = cluster_scores({"d": 9.0, "b": 0.1, "c": 5.0, "a": 0.0}, k=2)
        assert cluster_members(result) == {"0": ["a", "b"], "1": ["c", "d"]}
