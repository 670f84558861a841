import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from conftest import corpus_of, make_record, record_fields, retweet_graphs
from sentinet.errors import EmptyGraphError
from sentinet.graph import (
    RetweetGraph,
    build_retweet_graph,
    largest_component,
    read_edges,
    weak_components,
    write_edges,
)


class TestBuildRetweetGraph:
    def test_double_retweet_counts(self, record_factory):
        records = [
            record_factory("1", "j", retweeted="i"),
            record_factory("2", "j", retweeted="i"),
        ]
        graph = build_retweet_graph(corpus_of(records))
        assert graph.arcs == {("i", "j"): 2}
        assert graph.w == 2
        assert graph.w_in["i"] == 2 and graph.w_out["j"] == 2

    def test_self_retweet_excluded(self, record_factory):
        graph = build_retweet_graph(corpus_of([record_factory("1", "i", retweeted="i")]))
        assert graph.arcs == {}
        assert graph.nodes == frozenset()

    def test_originals_not_added(self, record_factory):
        records = [
            record_factory("1", "alone"),
            record_factory("2", "j", retweeted="i"),
        ]
        graph = build_retweet_graph(corpus_of(records))
        assert graph.nodes == {"i", "j"}

    def test_synthetic_event_count_preserved(self, record_factory):
        # w equals the number of retweet events fed in (no self-loops)
        records = [
            record_factory(str(i), f"a{i % 50}", retweeted=f"a{(i % 50) + 1}")
            for i in range(87_030)
        ]
        graph = build_retweet_graph(corpus_of(records))
        assert graph.w == 87_030

    def test_permutation_invariance(self, record_factory):
        records = [
            record_factory(str(i), f"u{i % 5}", retweeted=f"u{(i + 1) % 5}")
            for i in range(20)
        ]
        forward = build_retweet_graph(corpus_of(records))
        backward = build_retweet_graph(corpus_of(records[::-1]))
        assert forward.arcs == backward.arcs
        assert forward.w_in == backward.w_in

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.sampled_from([None, "a", "b", "c", "x"])),
            max_size=30,
        )
    )
    def test_equals_record_by_record_count(self, pairs):
        records = [
            make_record(str(i), author, retweeted=source)
            for i, (author, source) in enumerate(pairs)
        ]
        graph = build_retweet_graph(corpus_of(records))
        assert graph.arcs == oracles.retweet_arcs(records)

    def test_from_arcs_rejects_self_loop(self):
        with pytest.raises(ValueError):
            RetweetGraph.from_arcs({("a", "a"): 1})

    def test_from_arcs_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            RetweetGraph.from_arcs({("a", "b"): 0})


class TestLargestComponent:
    def test_five_beats_three(self):
        arcs = {
            ("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1, ("d", "e"): 1,
            ("x", "y"): 1, ("y", "z"): 1,
        }
        kept = largest_component(RetweetGraph.from_arcs(arcs))
        assert kept.nodes == {"a", "b", "c", "d", "e"}

    def test_connected_graph_identity(self):
        graph = RetweetGraph.from_arcs({("a", "b"): 2, ("b", "c"): 1})
        assert largest_component(graph) is graph

    @pytest.mark.parametrize(
        "arcs",
        [
            {("a", "b"): 2, ("c", "b"): 1, ("c", "d"): 3},
            {("a", "b"): 2, ("c", "b"): 1, ("x", "y"): 3},
        ],
        ids=["spans-every-node", "drops-a-component"],
    )
    def test_equals_the_rebuilt_induced_subgraph(self, arcs):
        graph = RetweetGraph.from_arcs(arcs)
        keep = weak_components(graph)[0]
        rebuilt = RetweetGraph.from_arcs(
            {arc: weight for arc, weight in arcs.items() if arc[0] in keep}
        )
        assert largest_component(graph) == rebuilt

    def test_star_plus_dyad(self):
        arcs = {("hub", f"leaf{i}"): 1 for i in range(4)}
        arcs[("p", "q")] = 1
        kept = largest_component(RetweetGraph.from_arcs(arcs))
        assert kept.nodes == {"hub", "leaf0", "leaf1", "leaf2", "leaf3"}
        assert kept.w == 4

    def test_tie_broken_by_min_node_id(self):
        arcs = {("b", "c"): 1, ("a", "d"): 1}
        kept = largest_component(RetweetGraph.from_arcs(arcs))
        assert kept.nodes == {"a", "d"}

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            largest_component(RetweetGraph.from_arcs({}))

    @given(retweet_graphs())
    @settings(max_examples=60)
    def test_output_weakly_connected(self, graph):
        kept = largest_component(graph)
        assert oracles.is_weakly_connected(kept.nodes, kept.arcs)

    @given(retweet_graphs())
    @settings(max_examples=60)
    def test_components_partition_nodes(self, graph):
        components = weak_components(graph)
        union = set()
        for component in components:
            assert not (union & component)
            union |= component
        assert union == set(graph.nodes)


class TestDegreeIdentities:
    @given(retweet_graphs())
    @settings(max_examples=60)
    def test_degree_sums_equal_total(self, graph):
        assert sum(graph.w_in.values()) == graph.w
        assert sum(graph.w_out.values()) == graph.w


class TestEdgeListIO:
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.dictionaries(
            st.tuples(record_fields, record_fields).filter(lambda arc: arc[0] != arc[1]),
            st.integers(min_value=1, max_value=10**9),
            min_size=1,
            max_size=6,
        )
    )
    @example({("a", "b"): 2, ("b", "c"): 1, ("c", "a"): 3})
    def test_roundtrip(self, tmp_path, arcs):
        graph = RetweetGraph.from_arcs(arcs)
        path = tmp_path / "graph.edges"
        write_edges(graph, path)
        parsed = read_edges(path)
        assert parsed.arcs == graph.arcs
        assert parsed.w == graph.w

    def test_format(self, tmp_path):
        path = tmp_path / "graph.edges"
        write_edges(RetweetGraph.from_arcs({("src", "rt"): 5}), path)
        assert path.read_text() == "src rt 5\n"

    def test_lines_in_arc_order_not_line_order(self, tmp_path):
        # "\x01" is no whitespace to str.split, so "a\x01" is one field; it
        # sorts after "a" as a field but before "a " as a line
        graph = RetweetGraph.from_arcs({("a\x01", "b"): 1, ("a", "b"): 2})
        path = tmp_path / "graph.edges"
        write_edges(graph, path)
        assert path.read_text(encoding="utf-8").splitlines() == ["a b 2", "a\x01 b 1"]
        assert read_edges(path) == graph
