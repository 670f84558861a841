from datetime import date

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from conftest import activity_of, corpus_of, make_record, record_fields
from sentinet.community import Partition
from sentinet.errors import ParameterError
from sentinet.graph import RetweetGraph
from sentinet.sentinel import (
    activity,
    ascii_language_filter,
    coverage,
    read_roster,
    select_sentinels,
    write_roster,
)

WINDOW = (date(2020, 7, 1), date(2020, 7, 30))


def star_graph(center="hub", leaves=4):
    return RetweetGraph.from_arcs({(center, f"leaf{i}"): 1 for i in range(leaves)})


class TestSelectSentinels:
    def test_small_community_fully_selected(self):
        graph = RetweetGraph.from_arcs({("a", "b"): 5, ("b", "c"): 2})
        partition = Partition.from_assignment({"a": 0, "b": 0, "c": 0})
        result = select_sentinels(graph, partition, k=15)
        assert [acct for acct, _ in result[0]] == ["a", "b", "c"]
        assert coverage(graph, partition, result)[0] == 1.0

    def test_zipf_community_coverage_matches_direct_ratio(self):
        # heavy-tailed in-degrees: node i retweeted ~ 1000/(i+1) times
        arcs = {}
        for i in range(200):
            weight = max(1, 1000 // (i + 1))
            arcs[(f"v{i:03d}", f"w{i:03d}")] = weight
        graph = RetweetGraph.from_arcs(arcs)
        partition = Partition.from_assignment({n: 0 for n in graph.nodes})
        result = select_sentinels(graph, partition, k=15)
        top = sorted(
            (n for n in graph.nodes), key=lambda n: (-graph.w_in.get(n, 0), n)
        )[:15]
        expected = sum(graph.w_in.get(n, 0) for n in top) / sum(
            graph.w_in.get(n, 0) for n in graph.nodes
        )
        assert coverage(graph, partition, result)[0] == pytest.approx(expected)
        assert [acct for acct, _ in result[0]] == top

    def test_top_m_limits_communities(self):
        arcs = {}
        for c in range(4):
            for i in range(3 + c):
                arcs[(f"c{c}hub", f"c{c}leaf{i}")] = 1
        graph = RetweetGraph.from_arcs(arcs)
        assignment = {n: n[:2] for n in graph.nodes}
        partition = Partition.from_assignment(assignment)
        result = select_sentinels(graph, partition, k=2, top_m=2)
        assert set(result) == {"c3", "c2"}

    def test_tie_break_by_account_id(self):
        graph = RetweetGraph.from_arcs({("b", "x"): 3, ("a", "y"): 3, ("c", "z"): 1})
        partition = Partition.from_assignment({n: 0 for n in graph.nodes})
        result = select_sentinels(graph, partition, k=2)
        assert [acct for acct, _ in result[0]] == ["a", "b"]

    def test_bad_parameters(self):
        graph = star_graph()
        partition = Partition.from_assignment({n: 0 for n in graph.nodes})
        with pytest.raises(ParameterError):
            select_sentinels(graph, partition, k=0)
        with pytest.raises(ParameterError):
            select_sentinels(graph, partition, top_m=0)

    def test_language_filter_drops_community(self):
        graph = RetweetGraph.from_arcs({("a", "b"): 1, ("x", "y"): 1, ("x", "z"): 1})
        partition = Partition.from_assignment(
            {"a": 0, "b": 0, "x": 1, "y": 1, "z": 1}
        )
        result = select_sentinels(
            graph, partition, k=5, language_filter=lambda label, members: label != 0
        )
        assert 0 not in result
        assert 1 in result

    def test_arc_insertion_order_irrelevant(self):
        arcs = {("a", "b"): 2, ("c", "d"): 7, ("e", "f"): 1}
        forward = RetweetGraph.from_arcs(dict(arcs))
        backward = RetweetGraph.from_arcs(dict(reversed(list(arcs.items()))))
        partition = Partition.from_assignment({n: 0 for n in forward.nodes})
        assert (
            select_sentinels(forward, partition, k=2)
            == select_sentinels(backward, partition, k=2)
        )

    def test_removing_unselected_node_preserves_roster(self):
        arcs = {("a", "b"): 9, ("c", "b"): 5, ("d", "b"): 1}
        graph = RetweetGraph.from_arcs(arcs)
        partition = Partition.from_assignment({n: 0 for n in graph.nodes})
        before = select_sentinels(graph, partition, k=2)[0]
        del arcs[("d", "b")]
        smaller = RetweetGraph.from_arcs(arcs)
        partition2 = Partition.from_assignment({n: 0 for n in smaller.nodes})
        after = select_sentinels(smaller, partition2, k=2)[0]
        assert before == after


class TestAsciiLanguageFilter:
    def test_mostly_ascii_passes(self, record_factory):
        records = [record_factory(str(i), "a", text="plain english text") for i in range(10)]
        predicate = ascii_language_filter(corpus_of(records))
        assert predicate(0, frozenset({"a"}))

    def test_non_ascii_fails(self, record_factory):
        records = [record_factory(str(i), "a", text="привет мир") for i in range(10)]
        predicate = ascii_language_filter(corpus_of(records))
        assert not predicate(0, frozenset({"a"}))

    @settings(max_examples=300)
    @given(st.text())
    @example("abcdefghi\u00e9")  # 9 of 10 ASCII: exactly at the threshold
    @example("abcdefgh\u00e9\ud800")  # a lone surrogate counts as non-ASCII
    def test_one_tweet_passes_iff_nine_tenths_ascii(self, text):
        compact = "".join(text.split())
        ascii_count = sum(1 for ch in compact if ord(ch) < 128)
        expected = bool(compact) and ascii_count / len(compact) >= 0.9
        corpus = corpus_of([make_record("t", "a", text=text)])
        predicate = ascii_language_filter(corpus, 1.0)
        assert predicate(0, frozenset({"a"})) == expected

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from(["plain", "ünïcödé"])),
            max_size=260,
        ),
        st.sets(st.sampled_from(["a", "b", "c", "d", "ghost"])),
        st.sampled_from([0.4, 0.5, 0.6]),
    )
    def test_samples_as_the_record_by_author_reference(self, tweets, community, threshold):
        # authors interleave, and more than LANGUAGE_SAMPLE_SIZE tweets make the seeded sample
        records = [
            make_record(str(i), author, text=text) for i, (author, text) in enumerate(tweets)
        ]
        corpus = corpus_of(records)
        predicate = ascii_language_filter(corpus, threshold, seed=7)
        reference = oracles.ascii_language_filter(records, threshold, seed=7)
        for label in ("0", "1"):
            assert predicate(label, frozenset(community)) == reference(label, frozenset(community))

    def test_no_tweets_fails(self):
        predicate = ascii_language_filter(corpus_of([make_record("t", "other")]))
        assert not predicate(0, frozenset({"ghost"}))


class TestActivity:
    def test_tweet_on_day_ten(self, record_factory):
        # window index 9: 2020-07-10, so the account is active on ten days
        assert activity_of({"a": [record_factory("1", "a", day_offset=9)]}, WINDOW) == {"a": 9}

    def test_tweet_on_last_day_spans_window(self, record_factory):
        assert activity_of({"a": [record_factory("1", "a", day_offset=29)]}, WINDOW) == {"a": 29}

    def test_tweets_after_the_window_cap_at_its_last_day(self, record_factory):
        assert activity_of({"a": [record_factory("1", "a", day_offset=40)]}, WINDOW) == {"a": 29}

    def test_fifteen_accounts_thirty_days(self, record_factory):
        records = {
            f"s{i}": [
                record_factory(f"{i}-{d}", f"s{i}", day_offset=d) for d in range(30)
            ]
            for i in range(15)
        }
        last = activity_of(records, WINDOW)
        assert sum(day + 1 for day in last.values()) == 450

    def test_empty_window_raises(self, record_factory):
        corpus = corpus_of([record_factory("1", "a")])
        with pytest.raises(ParameterError):
            activity(corpus, ["a"], (date(2020, 7, 10), date(2020, 7, 1)))

    def test_unseen_and_earlier_accounts_are_never_active(self, record_factory):
        corpus = corpus_of([record_factory("1", "a", day_offset=4), record_factory("2", "b")])
        window = (date(2020, 7, 2), date(2020, 7, 30))
        # one entry per entry of accounts, repeats included
        assert activity(corpus, ["a", "b", "ghost", "a"], window).tolist() == [3, -1, -1, 3]

    @given(st.integers(min_value=0, max_value=29), st.integers(min_value=0, max_value=29))
    @settings(max_examples=30)
    def test_extension_monotonicity(self, first, second):
        base = [make_record("1", "a", day_offset=first)]
        extended = base + [make_record("2", "a", day_offset=second)]
        assert activity_of({"a": extended}, WINDOW)["a"] >= activity_of({"a": base}, WINDOW)["a"]


class TestRosterIO:
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(record_fields, record_fields, st.integers(min_value=0, max_value=10**9)),
            min_size=1,
            max_size=10,
            unique_by=lambda row: row[1],
        )
    )
    @example([("7", "a", 5), ("7", "c", 3)])
    def test_roundtrip(self, tmp_path, rows):
        members: dict[str, list] = {}
        for label, account, in_degree in rows:
            members.setdefault(label, []).append((account, in_degree))
        roster = {label: tuple(entries) for label, entries in members.items()}
        path = tmp_path / "roster.txt"
        write_roster(roster, path)
        loaded = read_roster(path)
        assert loaded == roster
        assert list(loaded) == list(roster)

    def test_account_listed_twice_is_an_error(self, tmp_path):
        path = tmp_path / "roster.txt"
        path.write_text("7 a 5\n7 c 3\n8 a 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="'a' listed twice"):
            read_roster(path)

    def test_coverage_of_the_roster_read_back(self, tmp_path):
        graph = RetweetGraph.from_arcs({("a", "b"): 5, ("c", "b"): 3, ("a", "d"): 1})
        partition = Partition.from_assignment({"a": "0", "c": "0", "b": "1", "d": "1"})
        path = tmp_path / "roster.txt"
        write_roster(select_sentinels(graph, partition, k=1), path)
        # community 1 was never retweeted, so it has nothing to cover
        assert coverage(graph, partition, read_roster(path)) == {"0": 6 / 9, "1": 1.0}
