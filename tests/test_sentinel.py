from datetime import date

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_record
from sentinet.community import Partition
from sentinet.errors import ParameterError
from sentinet.graph import RetweetGraph
from sentinet.sentinel import (
    activity,
    ascii_language_filter,
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
        assert [acct for acct, _ in result.members[0]] == ["a", "b", "c"]
        assert result.coverage[0] == 1.0

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
        assert result.coverage[0] == pytest.approx(expected)
        assert [acct for acct, _ in result.members[0]] == top

    def test_top_m_limits_communities(self):
        arcs = {}
        for c in range(4):
            for i in range(3 + c):
                arcs[(f"c{c}hub", f"c{c}leaf{i}")] = 1
        graph = RetweetGraph.from_arcs(arcs)
        assignment = {n: n[:2] for n in graph.nodes}
        partition = Partition.from_assignment(assignment)
        result = select_sentinels(graph, partition, k=2, top_m=2)
        assert set(result.considered) == {"c3", "c2"}

    def test_tie_break_by_account_id(self):
        graph = RetweetGraph.from_arcs({("b", "x"): 3, ("a", "y"): 3, ("c", "z"): 1})
        partition = Partition.from_assignment({n: 0 for n in graph.nodes})
        result = select_sentinels(graph, partition, k=2)
        assert [acct for acct, _ in result.members[0]] == ["a", "b"]

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
        assert 0 not in result.members
        assert 1 in result.members

    def test_arc_insertion_order_irrelevant(self):
        arcs = {("a", "b"): 2, ("c", "d"): 7, ("e", "f"): 1}
        forward = RetweetGraph.from_arcs(dict(arcs))
        backward = RetweetGraph.from_arcs(dict(reversed(list(arcs.items()))))
        partition = Partition.from_assignment({n: 0 for n in forward.nodes})
        assert (
            select_sentinels(forward, partition, k=2).members
            == select_sentinels(backward, partition, k=2).members
        )

    def test_removing_unselected_node_preserves_roster(self):
        arcs = {("a", "b"): 9, ("c", "b"): 5, ("d", "b"): 1}
        graph = RetweetGraph.from_arcs(arcs)
        partition = Partition.from_assignment({n: 0 for n in graph.nodes})
        before = select_sentinels(graph, partition, k=2).members[0]
        del arcs[("d", "b")]
        smaller = RetweetGraph.from_arcs(arcs)
        partition2 = Partition.from_assignment({n: 0 for n in smaller.nodes})
        after = select_sentinels(smaller, partition2, k=2).members[0]
        assert before == after


class TestAsciiLanguageFilter:
    def test_mostly_ascii_passes(self, record_factory):
        records = {"a": [record_factory(str(i), "a", text="plain english text") for i in range(10)]}
        predicate = ascii_language_filter(records)
        assert predicate(0, frozenset({"a"}))

    def test_non_ascii_fails(self, record_factory):
        records = {
            "a": [record_factory(str(i), "a", text="привет мир") for i in range(10)]
        }
        predicate = ascii_language_filter(records)
        assert not predicate(0, frozenset({"a"}))

    @settings(max_examples=300)
    @given(st.text())
    @example("abcdefghi\u00e9")  # 9 of 10 ASCII: exactly at the threshold
    @example("abcdefgh\u00e9\ud800")  # a lone surrogate counts as non-ASCII
    def test_one_tweet_passes_iff_nine_tenths_ascii(self, text):
        compact = "".join(text.split())
        ascii_count = sum(1 for ch in compact if ord(ch) < 128)
        expected = bool(compact) and ascii_count / len(compact) >= 0.9
        predicate = ascii_language_filter({"a": [make_record("t", "a", text=text)]}, 1.0)
        assert predicate(0, frozenset({"a"})) == expected

    def test_no_tweets_fails(self):
        predicate = ascii_language_filter({})
        assert not predicate(0, frozenset({"ghost"}))


class TestActivity:
    def test_tweet_on_day_ten(self, record_factory):
        ledger = activity(
            {"a": [record_factory("1", "a", day_offset=9)]}, WINDOW
        )
        assert ledger.active_days["a"] == 10
        # window indices 9 and 10: 2020-07-10 and 2020-07-11
        active = ledger.daily_active({"a"})
        assert active[9] == 1
        assert active[10] == 0

    def test_tweet_on_last_day_spans_window(self, record_factory):
        ledger = activity(
            {"a": [record_factory("1", "a", day_offset=29)]}, WINDOW
        )
        assert ledger.active_days["a"] == 30

    def test_fifteen_accounts_thirty_days(self, record_factory):
        records = {
            f"s{i}": [
                record_factory(f"{i}-{d}", f"s{i}", day_offset=d) for d in range(30)
            ]
            for i in range(15)
        }
        ledger = activity(records, WINDOW)
        assert ledger.account_days(records) == 450

    def test_empty_window_raises(self, record_factory):
        with pytest.raises(ParameterError):
            activity({}, (date(2020, 7, 10), date(2020, 7, 1)))

    def test_daily_active_counts(self, record_factory):
        records = {
            "a": [record_factory("1", "a", day_offset=4)],
            "b": [record_factory("2", "b", day_offset=29)],
        }
        ledger = activity(records, WINDOW)
        daily = ledger.daily_active(("a", "b"))
        assert daily[0] == 2 and daily[4] == 2 and daily[5] == 1 and daily[29] == 1

    @given(st.integers(min_value=0, max_value=29), st.integers(min_value=0, max_value=29))
    @settings(max_examples=30)
    def test_extension_monotonicity(self, first, second):
        from conftest import make_record

        base = [make_record("1", "a", day_offset=first)]
        extended = base + [make_record("2", "a", day_offset=second)]
        short_ledger = activity({"a": base}, WINDOW)
        long_ledger = activity({"a": extended}, WINDOW)
        assert long_ledger.active_days["a"] >= short_ledger.active_days["a"]


class TestRosterIO:
    def test_roundtrip(self, tmp_path):
        graph = RetweetGraph.from_arcs({("a", "b"): 5, ("c", "b"): 3})
        partition = Partition.from_assignment({n: 7 for n in graph.nodes})
        sentinels = select_sentinels(graph, partition, k=2)
        path = tmp_path / "roster.txt"
        write_roster(sentinels, path)
        loaded = read_roster(path)
        assert loaded == {"7": (("a", 5), ("c", 3))}
